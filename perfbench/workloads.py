"""The three seeded workloads: inputs, ops and output checks.

Every workload runs a fixed pool of cases. Case ``i`` is built from its own
``random.Random`` stream, so ``reference.json`` holds the digest of every
case. A run makes passes over the pool, each in an order drawn from the
run's ``--seed``; its timing statistics cover its complete passes, so every
run weighs every case the same whatever its seed. A pool is sized so that a
35-second run completes at least one pass. The cases that failed at the seed
commit (the ledger in ``reference.json``) are not in the passes: a run
executes each of them once, off the clock, and reports them apart.

An op returns the library's raw results; ``check`` then turns them into a
digest of the mathematically determined outputs only (arrow streams, integer
cocycle matrices and norms, exact ``Fraction``/``Quadratic`` values) and runs
the library's own invariants. Floats, verdict booleans and exit codes stay
out of the digest, because correct fixes may change them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from ietkz.birkhoff import dual_holder_profile
from ietkz.cli import COMMANDS
from ietkz.cli import main as cli_main
from ietkz.combinatorics import CombinatorialData, all_irreducible
from ietkz.diophantine import (
    KIND_A,
    KIND_A_PRIME,
    KIND_B,
    dual_roth_profiles,
    length_diagnostics,
    roth_profiles,
)
from ietkz.errors import (
    ConnectionHit,
    HorizontalDegenerate,
    IetkzError,
    InsufficientTrajectory,
    InvalidLengths,
    NotSuspensionVector,
)
from ietkz.induction import (
    DUAL_COMPLETE,
    Steps,
    ZorichSteps,
    accelerated_times,
    canonical_tau,
    make_state,
    run,
    visit_words,
)
from ietkz.limitshape import FourierTestFunction
from ietkz.numerics import Quadratic, certified_sign, scalar_to_json, to_float
from ietkz.oracle import visit_counts
from ietkz.scenario import sample_rational_lengths, sample_rational_suspension, scenario_from_dict

# Documented halts are completed outcomes, not failures.
HALTS = (ConnectionHit, HorizontalDegenerate, InsufficientTrajectory)
TOL = 0.2
FIELDS = (2, 3, 5, 6, 7, 10, 11, 13)

PASSES = 40  # passes listed per run; a run that needs more starts the list again

# dual-sweep sizing: backward depth, and the norm cap on the complete-block
# levels handed to dual_holder_profile (its explicit words grow like the norm).
DUAL_POOL = 64
DUAL_DEPTH = 80
HOLDER_NORM_CAP = 10**6
HOLDER_GRID = 4

# forward-oracle sizing: Zorich steps per run, and the norm cap that keeps
# the brute-force orbits of the oracle affordable.
FORWARD_POOL = 64
ZORICH_STEPS = 10
ORACLE_NORM_CAP = 10**4

# cli-reports: a fixed suite of scenario files, named by family and index in
# the family's stream; a pass runs every command on every scenario, less
# the seed ledger. The limit-shape op of the suite's scenarios takes up to
# about 3.5 s; the family streams also hold scenarios where it takes 5 to
# 12 s, left out so that a run makes several passes. abc-0 is the deep
# ABC/CBA reproducer of the float-height bug.
CLI_SUITE = tuple(
    (family, i)
    for family, indices in (("rot2", (0, 1)), ("abc", (0, 4)), ("rat4", (0, 3)), ("ball", (0, 3)))
    for i in indices
)
BALL_BITS = 16


@dataclass
class Case:
    key: str  # reference key, unique within the workload's pool
    family: str
    payload: object


@dataclass
class Outcome:
    halt: Optional[str] = None
    failure: Optional[str] = None  # cause, e.g. "TypeError" or "exit 1"
    where: str = ""
    digest: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)
    operands: List[tuple] = field(default_factory=list)  # deepest-state scalars
    ledgered: bool = False


# ---------------------------------------------------------------------------
# digests and invariants


def _canon(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, Quadratic):  # through the library's own serial form
        return _canon(scalar_to_json(x))
    if isinstance(x, np.ndarray):
        return _canon(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, str):
        try:  # numbers written as strings ("12", "3/7") compare by value
            return _canon(Fraction(x))
        except (ValueError, ZeroDivisionError):
            return x
    if x is None:
        return None
    raise TypeError(f"no exact form for {type(x).__name__}")


def _stream(rows: List[dict]) -> List[list]:
    """The arrow fields of an exported or reported trajectory stream."""
    return [[r["n"], r["type"], r["winner"], r["loser"], r["Z"]] for r in rows]


def digest(exact: dict) -> str:
    blob = json.dumps(_canon(exact), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _cocycle_triples(traj, rng: random.Random, count: int = 3) -> List[str]:
    """B(p, m) = B(n, m) B(p, n) on sampled p <= n <= m."""
    bad = []
    for _ in range(count):
        p, n, m = sorted(rng.randint(traj.n_min, traj.n_max) for _ in range(3))
        if not (traj.matrix(p, m) == traj.matrix(n, m) @ traj.matrix(p, n)).all():
            bad.append(f"cocycle_identity_{p}_{n}_{m}")
    return bad


def _transport(traj, lo: int, hi: int) -> List[str]:
    """Exact transport by B = B(lo, hi), lo <= hi, decided by certified_sign:
    lam_lo = B^T lam_hi (lengths) and q_hi = B q_lo (heights)."""
    B = traj.matrix(lo, hi)
    d = B.shape[0]
    s_lo, s_hi = traj.state(lo), traj.state(hi)
    bad = []
    for j in range(d):
        acc = sum(B[i, j] * s_hi.lam[i] for i in range(d))
        if certified_sign(acc - s_lo.lam[j]) != 0:
            bad.append("length_transport_exact")
            break
    if s_lo.tau is not None:
        q_lo, q_hi = s_lo.heights(), s_hi.heights()
        for i in range(d):
            acc = sum(B[i, j] * q_lo[j] for j in range(d))
            if certified_sign(acc - q_hi[i]) != 0:
                bad.append("height_transport_exact")
                break
    return bad


def _norm(M) -> int:
    return int(np.abs(M).sum())


def failure_from_exception(exc: BaseException) -> Outcome:
    """Cause is the exception type; ``where`` is its innermost library frame."""
    where = ""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        if f"{os.sep}ietkz{os.sep}" in frame.filename:
            where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
            break
    return Outcome(failure=type(exc).__name__, where=where)


# ---------------------------------------------------------------------------
# shared sampling


def _irreducible(d: int) -> List[CombinatorialData]:
    return list(all_irreducible(d, top_identity_only=d >= 5))


class Workload:
    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.pool_size = 0
        self.ledger: List[Case] = []

    def pool(self) -> List[Case]:
        raise NotImplementedError

    def order(self, seed: int, ledgered=frozenset()) -> List[Case]:
        """PASSES passes over the pool, each in its own seeded order. Cases
        whose keys are in ``ledgered`` (they failed at the seed commit) are
        left out of the passes and kept in ``self.ledger``."""
        pool = self.pool()
        self.ledger = [case for case in pool if case.key in ledgered]
        pool = [case for case in pool if case.key not in ledgered]
        self.pool_size = len(pool)
        rng = random.Random(seed)
        return [case for _ in range(PASSES) for case in rng.sample(pool, len(pool))]

    def permutation(self, case: Case):
        """The case's combinatorial data, for the kernel probes of a traced run."""
        return None

    def prepare(self, case: Case) -> None:
        """Untimed work before an op."""

    def op(self, case: Case, tr) -> dict:
        raise NotImplementedError

    def check(self, case: Case, raw: dict) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Removes what the workload wrote."""
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# dual-sweep


class DualSweep(Workload):
    """Backward runs on d in {2,3,4} with rational lengths and quadratic
    suspension data; Quadratic-heavy dual Roth and dual Hoelder profiling."""

    name = "dual-sweep"

    def pool(self) -> List[Case]:
        pis = {d: _irreducible(d) for d in (2, 3, 4)}
        cases = []
        for i in range(DUAL_POOL):
            rng = random.Random(f"dual-sweep:{i}")
            while True:
                d = rng.choice((2, 3, 4))
                pi = rng.choice(pis[d])
                D = rng.choice(FIELDS)
                lam = tuple(Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97)) for _ in pi.letters)
                tau = tuple(
                    Quadratic(b, Fraction(rng.randint(-400, 400), 9973), D) for b in canonical_tau(pi)
                )
                try:
                    state = make_state(pi, lam, tau)
                    break
                except (InvalidLengths, NotSuspensionVector):
                    continue
            alpha = pi.letters[0]
            height = to_float(state.heights()[pi.index(alpha)])
            psi = FourierTestFunction.random(height, 0.5, 3, rng)
            cases.append(Case(f"dual-{i}", f"d{d}", (state, psi, alpha)))
        return cases

    def permutation(self, case: Case):
        return case.payload[0].pi

    def op(self, case: Case, tr) -> dict:
        state, psi, alpha = case.payload
        raw: dict = {}
        try:
            with tr.span("induction.run"):
                traj = run(state, "backward", Steps(DUAL_DEPTH))
            raw["traj"] = traj
            with tr.span("induction.matrix"):
                mats = [traj.matrix(n, 0) for n in range(-1, traj.n_min - 1, -1)]
            raw["mats"] = mats
            with tr.span("diophantine.dual_roth"):
                raw["dual"] = dual_roth_profiles(traj, tol=TOL)
            with tr.span("induction.accelerated_times"):
                times = accelerated_times(traj, DUAL_COMPLETE)
            levels = [t for t in times[1:] if _norm(mats[-t - 1]) <= HOLDER_NORM_CAP]
            raw["levels"] = levels
            with tr.span("birkhoff.dual_holder"):
                raw["holder"] = dual_holder_profile(traj, levels, psi, alpha, grid=HOLDER_GRID)
            with tr.span("diophantine.length_diagnostics"):
                raw["lengths"] = length_diagnostics(traj, tau_tol=TOL, direction="backward")
        except HALTS as exc:
            raw["halt"] = type(exc).__name__
            if "traj" not in raw and getattr(exc, "trajectory", None) is not None:
                raw["traj"] = exc.trajectory
        return raw

    def check(self, case: Case, raw: dict) -> Outcome:
        out = Outcome(halt=raw.get("halt"))
        exact: dict = {"halt": out.halt}
        bad: List[str] = []
        traj = raw.get("traj")
        if traj is not None:
            deep = traj.state(traj.n_min)
            exact["stream"] = _stream(traj.export_stream())
            exact["deep"] = [deep.level, deep.lam, deep.tau, deep.heights()]
            out.stats["levels"] = traj.n_max - traj.n_min
            out.operands = [deep.lam, deep.tau, deep.heights()]
            bad += _cocycle_triples(traj, random.Random(case.key))
            bad += _transport(traj, traj.n_min, 0)
        if "mats" in raw:
            mats = raw["mats"]
            exact["mats"] = mats
            out.stats["matrix_calls"] = len(mats)
            out.stats["log2_norm"] = max((math.log2(_norm(M)) for M in mats), default=0.0)
        if "dual" in raw:
            prof = raw["dual"]
            exact["dual_blocks"] = [(b.k, b.n_lo, b.n_hi, b.block_norm, b.base_norm) for b in prof.blocks]
            exact["dual_gaps"] = [(g.n, g.norm) for g in prof.gaps]
            out.stats["gap_levels"] = len(prof.gaps)
        if "holder" in raw:
            exact["holder_levels"] = raw["levels"]
            out.stats["word_letters"] = sum(_norm(raw["mats"][-t - 1]) for t in raw["levels"])
        if "lengths" in raw:
            exact["length_rows"] = [(r["n"], r["norm"]) for r in raw["lengths"].rows]
        out.digest = digest(exact)
        if bad:
            out.failure, out.where = "invariant", ",".join(bad)
        return out


# ---------------------------------------------------------------------------
# forward-oracle


class ForwardOracle(Workload):
    """Forward runs on d in {2..5} with rational lengths, checked against the
    brute-force orbit oracle; Fraction only."""

    name = "forward-oracle"

    def pool(self) -> List[Case]:
        pis = {d: _irreducible(d) for d in (2, 3, 4, 5)}
        cases = []
        for i in range(FORWARD_POOL):
            rng = random.Random(f"forward-oracle:{i}")
            d = rng.choice((2, 3, 4, 5))
            pi = rng.choice(pis[d])
            state = make_state(pi, sample_rational_lengths(pi, rng))
            cases.append(Case(f"fwd-{i}", f"d{d}", state))
        return cases

    def permutation(self, case: Case):
        return case.payload.pi

    def op(self, case: Case, tr) -> dict:
        raw: dict = {}
        try:
            with tr.span("induction.run"):
                traj = run(case.payload, "forward", ZorichSteps(ZORICH_STEPS))
            raw["traj"] = traj
            with tr.span("induction.matrix"):
                mats = [traj.matrix(0, n) for n in range(1, traj.n_max + 1)]
            raw["mats"] = mats
            n = traj.n_max
            while n > 1 and _norm(mats[n - 1]) > ORACLE_NORM_CAP:
                n -= 1
            raw["n_oracle"] = n
            with tr.span("oracle.visit_counts"):
                raw["counts"], raw["words"] = visit_counts(traj, 0, n)
            with tr.span("induction.visit_words"):
                raw["visit_words"] = visit_words(traj, 0, n)
            raw["roth"] = {}
            for kind in (KIND_A, KIND_A_PRIME, KIND_B):
                with tr.span("diophantine.roth"):
                    raw["roth"][kind] = roth_profiles(traj, kind, tol=TOL)
            with tr.span("diophantine.length_diagnostics"):
                raw["lengths"] = length_diagnostics(traj, tau_tol=TOL)
        except HALTS as exc:
            raw["halt"] = type(exc).__name__
            if "traj" not in raw and getattr(exc, "trajectory", None) is not None:
                raw["traj"] = exc.trajectory
        return raw

    def check(self, case: Case, raw: dict) -> Outcome:
        out = Outcome(halt=raw.get("halt"))
        exact: dict = {"halt": out.halt}
        bad: List[str] = []
        traj = raw.get("traj")
        if traj is not None:
            deep = traj.state(traj.n_max)
            exact["stream"] = _stream(traj.export_stream())
            exact["deep"] = [deep.level, deep.lam]
            out.stats["levels"] = traj.n_max - traj.n_min
            out.operands = [deep.lam]
            bad += _cocycle_triples(traj, random.Random(case.key))
            bad += _transport(traj, 0, traj.n_max)
        if "mats" in raw:
            exact["mats"] = raw["mats"]
            out.stats["matrix_calls"] = len(raw["mats"])
            out.stats["log2_norm"] = max((math.log2(_norm(M)) for M in raw["mats"]), default=0.0)
        if "counts" in raw:
            n = raw["n_oracle"]
            exact["oracle"] = [n, raw["counts"], {a: "".join(w) for a, w in raw["words"].items()}]
            out.stats["orbit_steps"] = int(raw["counts"].sum())
            if not (raw["counts"] == traj.matrix(0, n)).all():
                bad.append("oracle_visit_counts_equal_matrix")
        if "visit_words" in raw and raw["visit_words"] != raw["words"]:
            bad.append("oracle_visit_order_equals_words")
        for kind, prof in raw.get("roth", {}).items():
            exact[f"roth_{kind}"] = [
                [(b.k, b.n_lo, b.n_hi, b.block_norm, b.base_norm) for b in prof.blocks],
                [(g.n, g.norm) for g in prof.gaps],
            ]
        if "lengths" in raw:
            rep = raw["lengths"]
            exact["length_rows"] = [(r["n"], r["norm"]) for r in rep.rows]
            exact["length_violations"] = rep.violations
            if not rep.partition_exact:
                bad.append("length_partition_identity")
        out.digest = digest(exact)
        if bad:
            out.failure, out.where = "invariant", ",".join(bad)
        return out


# ---------------------------------------------------------------------------
# cli-reports


def _q(a, b, D) -> dict:
    return scalar_to_json(Quadratic(Fraction(a), Fraction(b), D))


def _rows(pi: CombinatorialData) -> dict:
    return {"alphabet": list(pi.letters), "top": list(pi.top), "bottom": list(pi.bottom)}


ABC = CombinatorialData.from_rows(list("ABC"), list("CBA"))


def _abc_reproducer() -> dict:
    """Deep ABC/CBA window whose float heights lose all accuracy."""
    return {
        **_rows(ABC),
        "backend": "quadratic",
        "lambda": [scalar_to_json(Fraction(p, q)) for p, q in ((123457, 7), (654321, 11), (222222, 13))],
        "tau": [_q(b, Fraction(37, 9973), 5) for b in canonical_tau(ABC)],
        "depth": 30,
        "backward_depth": 300,
        "seed": 1,
    }


def cli_scenario(family: str, i: int, pis4: List[CombinatorialData]) -> dict:
    """Scenario ``i`` of a family; resamples until the scenario parses."""
    if family == "abc" and i == 0:
        return _abc_reproducer()
    rng = random.Random(f"cli-reports:{family}:{i}")
    while True:
        seed = rng.randint(0, 10**6)
        if family == "rot2":  # quadratic rotations over several fields
            D = rng.choice(FIELDS)
            depth = rng.randint(20, 32)
            raw = {
                "alphabet": ["A", "B"], "top": ["A", "B"], "bottom": ["B", "A"],
                "backend": "quadratic",
                "lambda": [_q(rng.randint(1, 3), rng.randint(1, 3), D), _q(1, 0, D)],
                "tau": [_q(1, 0, D), _q(-1, Fraction(rng.randint(1, 7), 8), D)],
                "depth": depth, "backward_depth": depth, "seed": seed,
            }
        elif family == "abc":  # s = 2, deep backward windows
            D = rng.choice(FIELDS)
            raw = {
                **_rows(ABC),
                "backend": "quadratic",
                "lambda": [scalar_to_json(Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97))) for _ in range(3)],
                "tau": [_q(b, Fraction(rng.randint(-400, 400), 9973), D) for b in canonical_tau(ABC)],
                "depth": 30, "backward_depth": rng.randint(200, 300), "seed": seed,
            }
        elif family == "rat4":
            pi = rng.choice(pis4)
            raw = {
                **_rows(pi),
                "backend": "rational",
                "lambda": [scalar_to_json(x) for x in sample_rational_lengths(pi, rng)],
                "tau": [scalar_to_json(x) for x in sample_rational_suspension(pi, rng, den=104729)],
                "depth": rng.randint(20, 30), "backward_depth": 40, "seed": seed,
            }
        elif family == "ball":  # low starting precision: forward runs escalate
            lam_fields = rng.sample(FIELDS, 3)
            tau_fields = rng.sample(FIELDS, 3)
            raw = {
                **_rows(ABC),
                "backend": "ball", "precision_bits": BALL_BITS,
                "lambda": [_q(rng.randint(1, 5), rng.randint(1, 3), D) for D in lam_fields],
                "tau": [_q(b, Fraction(rng.randint(-400, 400), 9973), D) for b, D in zip(canonical_tau(ABC), tau_fields)],
                "depth": rng.randint(30, 40), "backward_depth": 40, "seed": seed,
            }
        else:
            raise ValueError(f"unknown family {family!r}")
        try:
            scenario_from_dict(raw)
            return raw
        except IetkzError:
            continue


def _csv(out_dir: str, name: str) -> List[dict]:
    path = os.path.join(out_dir, f"{name}.csv")
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cols(rows: List[dict], *keys) -> List[list]:
    return [[row[k] for k in keys] for row in rows]


def _exact_report(command: str, rep: dict, out_dir: str) -> dict:
    """The exact fields of one command's report and side tables."""
    if command == "diagram":
        return {k: rep[k] for k in ("vertices", "genus", "marked_points", "cone_rays", "diagram")}
    if command == "induct":
        exact = {k: rep[k] for k in ("steps", "zorich_time", "norm", "matrix")}
        return {**exact, "trajectory": _stream(rep["trajectory"])}
    if command == "backward":
        return {"steps": rep["steps"], "trajectory": _stream(rep["trajectory"])}
    if command == "roth":
        return {
            "violations": rep["violations"],
            "A": _cols(_csv(out_dir, "roth_A"), "k_or_n", "lhs", "rhs"),
            "APrime": _cols(_csv(out_dir, "roth_APrime"), "k_or_n", "lhs", "rhs"),
            "B": _cols(_csv(out_dir, "roth_B"), "k_or_n", "rhs"),
            "lengths": _cols(_csv(out_dir, "lengths"), "n", "norm"),
        }
    if command == "dual-roth":
        return {
            "blocks": [[b[k] for k in ("k", "n_lo", "n_hi", "block_norm", "base_norm")] for b in rep["blocks"]],
            "rows": _cols(_csv(out_dir, "dual_roth"), "k_or_n", "rhs"),
            "lengths": _cols(_csv(out_dir, "dual_lengths"), "n", "norm"),
        }
    if command == "birkhoff":
        return {"chi": rep["chi"], "special_sum": rep["special_sum"]}
    if command == "dual-birkhoff":
        return {"copies": [[x["alpha"], x["copies"]] for x in rep["decompositions"]]}
    if command == "limit-shape":
        return {"levels": {a: p["levels"] for a, p in rep["pairings"].items()}}
    if command == "homology":
        letters = sorted(rep["backward_words"])
        return {
            "backward_words": rep["backward_words"],
            "dual_forward_words": rep["dual_forward_words"],
            "genus": rep["kz"]["genus"],
            "broken_lines": {a: _cols(_csv(out_dir, f"broken_line_{a}"), *(["j"] + [f"c_{b}" for b in letters])) for a in letters},
        }
    return {}  # verify: checks and verdicts only


def _report_invariants(command: str, rep: dict) -> List[str]:
    bad = []
    if command == "induct":
        if rep["norm"] != sum(int(x) for row in rep["matrix"] for x in row):
            bad.append("norm_is_matrix_sum")
        if len(rep["trajectory"]) != rep["steps"]:
            bad.append("stream_length_is_steps")
        zs = [row["Z"] for row in rep["trajectory"]]
        if any(b < a for a, b in zip(zs, zs[1:])):
            bad.append("zorich_time_monotone")
    if command == "backward" and len(rep["trajectory"]) != rep["steps"]:
        bad.append("stream_length_is_steps")
    return bad


class CliReports(Workload):
    """Scenario files from four families, each run through every command of
    ``ietkz.cli.main``, reports written to a temporary directory."""

    name = "cli-reports"

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.scenario_dir = os.path.join(workdir, "scenarios")
        self.report_dir = os.path.join(workdir, "report")

    def pool(self) -> List[Case]:
        os.makedirs(self.scenario_dir, exist_ok=True)
        pis4 = _irreducible(4)
        cases = []
        for family, i in CLI_SUITE:
            name = f"{family}-{i}"
            path = os.path.join(self.scenario_dir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cli_scenario(family, i, pis4), fh)
            cases += [Case(f"{name}/{cmd}", family, (name, path, cmd)) for cmd in COMMANDS]
        return cases

    def prepare(self, case: Case) -> None:
        shutil.rmtree(self.report_dir, ignore_errors=True)

    def op(self, case: Case, tr) -> dict:
        _, path, command = case.payload
        buf = io.StringIO()
        with tr.span(f"cli.{command}"), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli_main(["--scenario", path, "--command", command, "--out-dir", self.report_dir])
        return {"code": code, "log": buf.getvalue()}

    def check(self, case: Case, raw: dict) -> Outcome:
        command = case.payload[2]
        code = raw["code"]
        rep = None
        path = os.path.join(self.report_dir, command.replace("-", "_") + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                rep = json.load(fh)
        if code == 2:
            return Outcome(halt="exit 2")
        if code != 0:
            where = raw["log"].strip().splitlines()[-1] if raw["log"].strip() else ""
            if command == "verify" and rep is not None:
                where = ",".join(c["check"] for c in rep["checks"] if not c["pass"])
            return Outcome(failure=f"exit {code}", where=where)
        if "halt" in rep:
            return Outcome(halt=rep["halt"], digest=digest({"halt": rep["halt"]}))
        out = Outcome(digest=digest(_exact_report(command, rep, self.report_dir)))
        bad = _report_invariants(command, rep)
        if bad:
            out.failure, out.where = "invariant", ",".join(bad)
        return out


WORKLOADS = {w.name: w for w in (DualSweep, ForwardOracle, CliReports)}
