"""Scenario-driven command line: runs one command, emits JSON/CSV reports.

Exit codes, each library error printed as one line on stderr:

- 0 pass, or a documented halt (ConnectionHit, HorizontalDegenerate)
  written to the report;
- 1 invariant violation: a failed ``verify`` check, or a bug trap
  (ConsistencyFailure, NoStandardVertex);
- 2 insufficient data: InsufficientTrajectory, WindowMissing,
  DegenerateGap, SplittingUntrusted;
- 3 precision exhausted;
- 4 input error: ParseError, ValidationError, IoError, unknown command;
- 5 any other library error (IetkzError).

Outputs carry decimal strings for all scalars and a stable field order;
the only nondeterministic field is the timestamp.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import birkhoff as bk
from . import diophantine as dio
from . import homology as hom
from . import limitshape as ls
from .combinatorics import build_diagram, diagram_to_json, elementary_matrix, omega_matrix
from .errors import (
    ConnectionHit,
    ConsistencyFailure,
    DegenerateGap,
    HorizontalDegenerate,
    IetkzError,
    InsufficientTrajectory,
    IoError,
    NoStandardVertex,
    ParseError,
    PrecisionExhausted,
    RequiresMultipleSingularities,
    SplittingUntrusted,
    ValidationError,
    WindowMissing,
)
from .induction import (
    DUAL_COMPLETE,
    Steps,
    ZorichSteps,
    accelerated_times,
    h_profile,
    run,
    run_window,
    visit_words,
)
from .numerics import Ball, Quadratic, certified_sign, decimal_string, matrix_to_json, matvec, to_float
from .oracle import visit_counts
from .scenario import Scenario, parse_scenario

def _scalar_str(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (Quadratic, Ball)):
        return decimal_string(Fraction(to_float(x)).limit_denominator(10**15), digits=17)
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (Fraction, Quadratic, Ball)):
        return _scalar_str(obj)
    if isinstance(obj, float):
        return _scalar_str(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def emit(report: dict, out_dir: str, name: str, csv_tables: Optional[Dict[str, List[dict]]] = None) -> str:
    """Writes the JSON report (and CSV side tables); returns the JSON path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        payload = dict(report)
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(_jsonable(payload), fh, indent=1)
            fh.write("\n")
        for table_name, rows in (csv_tables or {}).items():
            if not rows:
                continue
            cpath = os.path.join(out_dir, f"{table_name}.csv")
            with open(cpath, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: _scalar_str(v) if not isinstance(v, (str, bool)) else v for k, v in row.items()})
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return path


def _strictly_increasing(xs) -> bool:
    """Each exact scalar certifiably below the next (an undecided ball sign fails)."""
    return all(certified_sign(b - a) == 1 for a, b in zip(xs, xs[1:]))


def _forward_trajectory(sc: Scenario):
    state = sc.state()
    stop = ZorichSteps(sc.zorich_depth) if sc.zorich_depth else Steps(sc.depth)
    return run(state, "forward", stop, rebuild=sc.rebuild() if sc.backend == "ball" else None, max_bits=sc.max_bits)


def _window_trajectory(sc: Scenario, back: Optional[int] = None, fwd: Optional[int] = None):
    state = sc.state()
    return run_window(state, back if back is not None else sc.backward_depth, fwd if fwd is not None else sc.depth)


# ---------------------------------------------------------------------------
# commands


def cmd_diagram(sc: Scenario) -> tuple:
    from .cones import absolute_cone_rays
    from .combinatorics import singular_structure

    diag = build_diagram(sc.pi, cap=sc.diagram_cap)
    st = singular_structure(sc.pi)
    rays = absolute_cone_rays(sc.pi)
    report = {
        "command": "diagram",
        "vertices": len(diag.vertices),
        "genus": st.g,
        "marked_points": st.s,
        "cone_rays": [[int(x) for x in r] for r in rays.rays],
        "diagram": diagram_to_json(diag),
    }
    return report, {}


def cmd_induct(sc: Scenario) -> tuple:
    traj = _forward_trajectory(sc)
    B = traj.matrix(0, traj.n_max)
    report = {
        "command": "induct",
        "steps": traj.n_max,
        "zorich_time": traj.zorich_time(traj.n_max),
        "norm": traj.norm(0, traj.n_max),
        "matrix": matrix_to_json(B),
        "trajectory": traj.export_stream(),
    }
    return report, {}


def cmd_backward(sc: Scenario) -> tuple:
    state = sc.state()
    traj = run(state, "backward", Steps(sc.backward_depth), rebuild=sc.rebuild() if sc.backend == "ball" else None, max_bits=sc.max_bits)
    H = {n: h_profile(traj.state(n))[2] for n in traj.levels()}
    hs = [{"n": n, "H": to_float(H[n])} for n in reversed(traj.levels())]
    report = {
        "command": "backward",
        "steps": -traj.n_min,
        "h_monotone": _strictly_increasing([H[n] for n in traj.levels()]),
        "h_profile": hs,
        "trajectory": traj.export_stream(),
    }
    return report, {}


def cmd_roth(sc: Scenario) -> tuple:
    traj = _forward_trajectory(sc)
    profiles = {}
    tables = {}
    for kind in (dio.KIND_A, dio.KIND_A_PRIME, dio.KIND_B):
        prof = dio.roth_profiles(traj, kind, tol=sc.tolerance)
        profiles[kind] = {
            "passes": prof.passes,
            "tail_ratio": prof.tail_ratio,
            "theta_estimate": prof.theta_estimate,
        }
        tables[f"roth_{kind}"] = prof.rows()
    lengths = dio.length_diagnostics(traj, tau_tol=sc.tolerance)
    report = {
        "command": "roth",
        "profiles": profiles,
        "partition_exact": lengths.partition_exact,
        "violations": lengths.violations,
    }
    tables["lengths"] = lengths.rows
    return report, tables


def cmd_dual_roth(sc: Scenario) -> tuple:
    state = sc.state()
    traj = run(state, "backward", Steps(sc.backward_depth))
    prof = dio.dual_roth_profiles(traj, tol=sc.tolerance)
    lengths = dio.length_diagnostics(traj, tau_tol=sc.tolerance, direction="backward")
    report = {
        "command": "dual-roth",
        "passes": prof.passes,
        "tail_ratio": prof.tail_ratio,
        "theta_estimate": prof.theta_estimate,
        "blocks": [
            {"k": b.k, "n_lo": b.n_lo, "n_hi": b.n_hi, "block_norm": b.block_norm, "base_norm": b.base_norm, "ratio": b.ratio}
            for b in prof.blocks
        ],
    }
    return report, {"dual_roth": prof.rows(), "dual_lengths": lengths.rows}


def cmd_birkhoff(sc: Scenario) -> tuple:
    traj = _forward_trajectory(sc)
    rng = sc.rng()
    d = sc.pi.d
    chi = bk.PiecewiseConstantVector(
        0, bk.HORIZONTAL, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d))
    )
    n = _oracle_depth(traj)
    out = bk.special_sum(chi, traj, n)
    counts, words = visit_counts(traj, 0, n)
    matrix_ok = (counts == traj.matrix(0, n)).all()
    words_ok = words == visit_words(traj, 0, n)
    b0 = bk.boundary(chi, traj.state(0))
    bn = bk.boundary(out, traj.state(n))
    perm = bk.match_cycles(traj, 0, n)
    boundary_ok = all(certified_sign(bn[perm[i]] - b0[i]) == 0 for i in range(len(b0)))
    report = {
        "command": "birkhoff",
        "oracle_matrix_equal": bool(matrix_ok),
        "oracle_words_equal": bool(words_ok),
        "boundary_invariant": bool(boundary_ok),
        "chi": [ _scalar_str(x) for x in chi.values],
        "special_sum": [_scalar_str(x) for x in out.values],
    }
    return report, {}


def cmd_dual_birkhoff(sc: Scenario) -> tuple:
    state = sc.state()
    traj = run(state, "backward", Steps(sc.backward_depth))
    rng = sc.rng()
    d = sc.pi.d
    psi = bk.PiecewiseConstantVector(
        0, bk.VERTICAL, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d))
    )
    n_prime = traj.n_min
    while n_prime < -1 and traj.norm(n_prime, 0) > 5000:
        n_prime += 1
    out = bk.dual_sum(psi, traj, n_prime)
    B = traj.matrix(n_prime, 0)
    expect = tuple(sum(B[i, j] * psi.values[i] for i in range(d)) for j in range(d))
    transpose_ok = all(certified_sign(a - b) == 0 for a, b in zip(out.values, expect))
    mass_ok = certified_sign(out.integral(traj.state(n_prime)) - psi.integral(traj.state(0))) == 0
    mid = n_prime // 2
    comp = bk.dual_sum(bk.dual_sum(psi, traj, mid), traj, n_prime)
    comp_ok = all(certified_sign(a - b) == 0 for a, b in zip(comp.values, out.values))
    decs = []
    for alpha in sc.pi.letters:
        dec = bk.dual_decomposition(traj, n_prime, 0, alpha)
        decs.append({"alpha": alpha, "copies": len(dec.letters), "total": _scalar_str(dec.total)})
    report = {
        "command": "dual-birkhoff",
        "transpose_matrix_exact": bool(transpose_ok),
        "mass_conserved": bool(mass_ok),
        "composition_exact": bool(comp_ok),
        "decompositions": decs,
    }
    # function dump of the summed vector sampled over its intervals
    sampled = bk.sample_gamma_vector(out, traj.state(n_prime), count=3)
    dump = [
        {"letter": a, "offset": off, "value": val}
        for a in sc.pi.letters
        for off, val in sampled.samples[a]
    ]
    return report, {"dual_function": dump}


def cmd_limit_shape(sc: Scenario) -> tuple:
    traj = _window_trajectory(sc)
    est = ls.splitting_estimate(traj)
    if est.central.shape[1] >= 1:
        chi0 = ls.estimated_central_vector(traj, est) if est.central.shape[1] == 1 else None
    else:
        chi0 = None
    if chi0 is None:
        rng = sc.rng()
        chi0 = tuple(Fraction(rng.randint(-3, 3), 1) for _ in sc.pi.letters)
    chi = ls.central_sequence_from_vector(traj, chi0, (traj.n_min, min(2, traj.n_max)))
    times = accelerated_times(traj, DUAL_COMPLETE)
    # graph size equals the window norm; keep emitted levels desk-scale
    levels = [t for t in times if t >= traj.n_min and traj.norm(t, 0) <= 20000]
    theta = None
    try:
        theta = dio.dual_roth_profiles(traj, tol=sc.tolerance).theta_estimate
    except InsufficientTrajectory:
        pass
    tables = {}
    pair_reports = {}
    rng = sc.rng()
    for alpha in sc.pi.letters:
        graphs = [ls.omega_graph(traj, chi, n, alpha) for n in levels]
        for n, g in zip(levels, graphs):
            tables[f"graph_{alpha}_n{abs(n)}"] = [
                {"x": x, "y": y} for x, y in g.float_points()
            ]
        g0 = graphs[levels.index(0)]
        psi = ls.FourierTestFunction.random(
            float(to_float(g0.total)), sc.test_functions["eta"], sc.test_functions["modes"], rng
        )
        rep = ls.pair_test(traj, graphs, psi, theta=theta)
        pair_reports[alpha] = {
            "levels": rep.levels,
            "pairings": rep.pairings,
            "differences": rep.differences,
            "slope": rep.slope,
            "expected_slope": rep.expected_slope,
        }
    report = {
        "command": "limit-shape",
        "splitting_trusted": est.trusted,
        "gap_forward": est.gap_forward,
        "gap_backward": est.gap_backward,
        "chi0": [_scalar_str(x) for x in chi0],
        "pairings": pair_reports,
    }
    return report, tables


def cmd_homology(sc: Scenario) -> tuple:
    traj = _window_trajectory(sc)
    words_b = hom.substitution_words(traj, max(traj.n_min, -6), hom.BACKWARD)
    words_f = hom.substitution_words(traj, min(traj.n_max, 6), hom.DUAL_FORWARD)
    tables = {}
    for alpha in sc.pi.letters:
        line = hom.broken_line(traj, max(traj.n_min, -6), alpha, hom.BACKWARD)
        tables[f"broken_line_{alpha}"] = [
            {"j": j, **{f"c_{b}": int(v[traj.state(line.level).pi.index(b)]) for b in sc.pi.letters}}
            for j, v in enumerate(line.vertices)
        ]
    report = {
        "command": "homology",
        "backward_words": {a: "".join(w) for a, w in words_b.items()},
        "dual_forward_words": {a: "".join(w) for a, w in words_f.items()},
        "kz": None,
        "section": None,
    }
    kz = hom.kz_diagnostics(traj)
    report["kz"] = {
        "dims": list(kz.dims),
        "genus": kz.genus,
        "trusted": kz.trusted,
        "direct_sum_condition": kz.direct_sum_condition,
        "tail_ratios": kz.tail_ratios,
    }
    try:
        ups = [Fraction(1), Fraction(-1)] + [Fraction(0)] * 10
        s = len(bk.boundary_matrix(sc.pi))
        rep = hom.boundary_section(traj, tuple(ups[:s]), direction="positive")
        report["section"] = {
            "boundary_exact": rep.boundary_exact,
            "slope": rep.slope,
            "chi0": [_scalar_str(x) for x in rep.chi0],
        }
    except RequiresMultipleSingularities:
        report["section"] = "not applicable (single singularity)"
    return report, tables


def _oracle_depth(traj, norm_cap: int = 5000) -> int:
    """Deepest level whose return times keep brute orbits affordable."""
    n = traj.n_max
    while n > 1 and traj.norm(0, n) > norm_cap:
        n -= 1
    return n


def cmd_verify(sc: Scenario) -> tuple:
    """Full oracle and invariant suite over the scenario's trajectories."""
    checks: List[dict] = []

    def check(name: str, ok: bool):
        checks.append({"check": name, "pass": bool(ok)})

    traj = _forward_trajectory(sc)
    n = traj.n_max
    if sc.backend != "ball":
        n_oracle = _oracle_depth(traj)
        counts, words = visit_counts(traj, 0, n_oracle)
        check("oracle_visit_counts_equal_matrix", (counts == traj.matrix(0, n_oracle)).all())
        check("oracle_visit_order_equals_words", words == visit_words(traj, 0, n_oracle))
    for k in (0, n // 2, n):
        for m in (0, n // 3):
            if m <= k:
                lhs = traj.matrix(m, n)
                rhs = traj.matrix(k, n) @ traj.matrix(m, k)
                check(f"cocycle_identity_{m}_{k}_{n}", (lhs == rhs).all())
    # symplectic relation along the trajectory's arrows
    sympl = True
    for j in range(1, n + 1):
        a = traj.arrow_at(j)
        B = elementary_matrix(a)
        if not (B @ omega_matrix(a.source) @ B.T == omega_matrix(a.target)).all():
            sympl = False
    check("symplectic_along_trajectory", sympl)
    # length transport
    total0 = traj.state(0).total_length()
    B = traj.matrix(0, n)
    lam_n = traj.state(n).lam
    d = sc.pi.d
    acc = sum(B[i, j] * lam_n[i] for i in range(d) for j in range(d))
    check("length_partition_identity", certified_sign(acc - total0) == 0)
    if sc.tau_spec is not None:
        state = sc.state()
        try:
            back = run(state, "backward", Steps(sc.backward_depth))
            hs = [h_profile(back.state(m))[2] for m in back.levels()]
            check("h_strictly_decreasing_backward", _strictly_increasing(hs))
            q0 = back.state(0).heights()
            qm = back.state(back.n_min).heights()
            got = matvec(back.transport(back.n_min, 0), qm)
            check("height_transport_exact", all(certified_sign(a - b) == 0 for a, b in zip(got, q0)))
            try:
                accelerated_times(back, DUAL_COMPLETE)
                check("backward_window_has_complete_block", True)
            except InsufficientTrajectory:
                check("backward_window_has_complete_block", False)
        except HorizontalDegenerate:
            check("backward_run_degenerate_note", True)
    ok = all(c["pass"] for c in checks)
    report = {"command": "verify", "pass": ok, "checks": checks}
    return report, {}


COMMAND_TABLE = {
    "diagram": cmd_diagram,
    "induct": cmd_induct,
    "backward": cmd_backward,
    "roth": cmd_roth,
    "dual-roth": cmd_dual_roth,
    "birkhoff": cmd_birkhoff,
    "dual-birkhoff": cmd_dual_birkhoff,
    "limit-shape": cmd_limit_shape,
    "homology": cmd_homology,
    "verify": cmd_verify,
}
COMMANDS = tuple(COMMAND_TABLE)


# (error classes, exit code, stderr label), the first match wins
EXIT_CODES = (
    ((ConsistencyFailure, NoStandardVertex), 1, "invariant violation"),
    ((InsufficientTrajectory, WindowMissing, DegenerateGap, SplittingUntrusted), 2, "insufficient data"),
    ((PrecisionExhausted,), 3, "precision exhausted"),
    ((ParseError, ValidationError), 4, "input error"),
    ((IoError,), 4, "io error"),
    ((IetkzError,), 5, "library error"),
)


def exit_code(exc: IetkzError) -> int:
    """Prints a library error under its label; returns its documented exit code."""
    for kinds, code, label in EXIT_CODES:
        if isinstance(exc, kinds):
            print(f"{label}: {exc}", file=sys.stderr)
            return code


def execute(sc: Scenario, command: str, out_dir: str) -> int:
    """Runs one command and writes its reports; returns the exit code."""
    if command not in COMMAND_TABLE:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 4
    try:
        report, tables = COMMAND_TABLE[command](sc)
    except (ConnectionHit, HorizontalDegenerate) as exc:
        report = {"command": command, "halt": type(exc).__name__, "detail": str(exc)}
        emit(report, out_dir, command.replace("-", "_"))
        return 0
    except IetkzError as exc:
        return exit_code(exc)
    path = emit(report, out_dir, command.replace("-", "_"), tables)
    print(path)
    if command == "verify" and not report.get("pass", True):
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ietkz", description="Exact Rauzy-Veech induction toolkit")
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--precision-bits", type=int, default=None)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        sc = parse_scenario(args.scenario)
        if args.precision_bits is not None:
            sc.precision_bits = args.precision_bits
        if args.depth is not None:
            sc.depth = args.depth
            sc.backward_depth = args.depth
        if args.seed is not None:
            sc.seed = args.seed
        return execute(sc, args.command, args.out_dir)
    except IetkzError as exc:
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
