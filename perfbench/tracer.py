"""In-memory spans around the calls the benchmark makes into each layer.

A span records its name, start, end, parent span and the op it belongs to.
Spans live only in the benchmark's own files; the library is neither edited
nor patched, so traced and untraced runs execute the same program.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False
    op: Optional[str] = None

    def span(self, name: str):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self):
        self.op: Optional[str] = None
        # [name, start, end, parent index or None, op id]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def by_name(self) -> Dict[str, dict]:
        """Self seconds, call count and distinct ops per span name."""
        out: Dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "ops": set()})
        for rec, own in zip(self.spans, self.self_times()):
            agg = out[rec[0]]
            agg["self_s"] += own
            agg["calls"] += 1
            agg["ops"].add(rec[4])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")
