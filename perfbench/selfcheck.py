#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

Run it from the root of a checkout. It checks that:
1. the input generator is deterministic for a seed, and the seed matters;
2. a held-out seed, used nowhere else, runs clean: no timed op fails, and
   the ops that failed at the seed commit (the ledger in README.md, run
   apart from the timed passes) fail only as they did then;
3. the metric names a run prints equal those BENCHMARK.json declares,
   for --trace 0 and --trace 1.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

import run as bench

HELD_OUT_SEED = 271828
SECONDS = {0: 35, 1: 8}  # trace 0 runs a full pass of every pool


def fingerprint(workload: str, seed: int) -> list:
    workdir = os.path.join(bench.OUT, f"selfcheck-{workload}-{os.getpid()}")
    wl, cases, _ = bench.setup(workload, seed, workdir)
    try:
        out = []
        for case in cases:
            if workload == "cli-reports":
                with open(case.payload[1]) as fh:
                    out.append((case.key, fh.read()))
            else:
                out.append((case.key, repr(case.payload)))
        return out
    finally:
        wl.close()


def fail(msg: str) -> int:
    print(f"FAIL {msg}")
    return 1


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(bench.WORKLOAD_NAMES):
        return fail("BENCHMARK.json workloads differ from run.py's")
    for workload in bench.WORKLOAD_NAMES:
        first = fingerprint(workload, 7)
        if first != fingerprint(workload, 7):
            return fail(f"{workload}: two builds for seed 7 differ")
        if first == fingerprint(workload, 8):
            return fail(f"{workload}: seeds 7 and 8 give the same inputs")
        print(f"ok   {workload}: inputs deterministic for a seed ({len(first)} ops listed)")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
                 "--seed", str(HELD_OUT_SEED), "--seconds", str(SECONDS[trace]), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                return fail(f"{workload} trace {trace}: failures beyond the ledger\n{proc.stderr}")
            if set(result["metrics"]) != declared[trace]:
                return fail(f"{workload} trace {trace}: printed {sorted(result['metrics'])}")
            print(f"ok   {workload} trace {trace}: held-out seed clean ({result['attempted']} ops), "
                  f"metric names match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
