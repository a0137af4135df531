"""Per-layer metrics of a traced run.

Most come from the spans the ops record. The rest come from probes that run
after the timed phase on the workload's own inputs: scalar kernels on the
deepest operands the ops reached, Omega elimination and cone rays on the
ops' permutations, and, for cli-reports, replays of each scenario's runs and
window through the public functions that ``ietkz.cli`` calls.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter
from typing import Dict, Iterable, List

from ietkz.cli import COMMANDS
from ietkz.combinatorics import omega_matrix, singular_structure
from ietkz.cones import absolute_cone_rays
from ietkz.errors import IetkzError
from ietkz.homology import boundary_section, kz_diagnostics
from ietkz.induction import Steps, ZorichSteps, run, run_window
from ietkz.limitshape import splitting_estimate
from ietkz.numerics import Ball, Quadratic, certified_sign, exact_rank_nullspace, to_float
from ietkz.scenario import parse_scenario

# (metric, unit, better); the names BENCHMARK.json declares for --trace 1.
PER_LAYER = [
    ("numerics.quadratic_add_ns", "ns", "lower"),
    ("numerics.quadratic_mul_ns", "ns", "lower"),
    ("numerics.quadratic_sign_ns", "ns", "lower"),
    ("numerics.fraction_add_ns", "ns", "lower"),
    ("numerics.fraction_mul_ns", "ns", "lower"),
    ("numerics.ball_add_ns", "ns", "lower"),
    ("numerics.ball_mul_ns", "ns", "lower"),
    ("numerics.ball_bits", "bits", "lower"),
    ("numerics.to_float_ns", "ns", "lower"),
    ("numerics.rank_nullspace_us", "us", "lower"),
    ("induction.run_s", "s", "lower"),
    ("induction.levels", "count", "lower"),
    ("induction.step_us", "us", "lower"),
    ("induction.matrix_calls", "count", "lower"),
    ("induction.matrix_us", "us", "lower"),
    ("induction.log2_norm_max", "bits", "lower"),
    ("induction.halted_share", "share", "lower"),
    ("induction.precision_retries", "count", "lower"),
    ("induction.final_bits", "bits", "lower"),
    ("oracle.visit_counts_s", "s", "lower"),
    ("oracle.orbit_steps", "count", "lower"),
    ("oracle.orbit_step_us", "us", "lower"),
    ("cones.absolute_cone_rays_ms", "ms", "lower"),
    ("diophantine.dual_roth_s", "s", "lower"),
    ("diophantine.gap_levels", "count", "lower"),
    ("diophantine.gap_level_us", "us", "lower"),
    ("diophantine.roth_s", "s", "lower"),
    ("diophantine.length_diagnostics_s", "s", "lower"),
    ("birkhoff.dual_holder_s", "s", "lower"),
    ("birkhoff.word_letters", "count", "lower"),
    ("birkhoff.letter_ns", "ns", "lower"),
    ("limitshape.splitting_s", "s", "lower"),
    ("limitshape.splitting_trusted_share", "share", "higher"),
    ("homology.kz_s", "s", "lower"),
    ("homology.boundary_section_s", "s", "lower"),
]
PER_LAYER += [(f"cli.{c.replace('-', '_')}_s", "s", "lower") for c in COMMANDS]
PER_LAYER += [("scenario.parse_ms", "ms", "lower"), ("trace.overhead_share", "share", "lower")]

KERNEL_REPS = 20
MAX_PAIRS = 64


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timed_ns(fn, args_list: List[tuple]) -> float:
    """Median over operand tuples of the mean time of one call, in ns."""
    samples = []
    for args in args_list[:MAX_PAIRS]:
        t0 = perf_counter()
        for _ in range(KERNEL_REPS):
            fn(*args)
        samples.append((perf_counter() - t0) / KERNEL_REPS * 1e9)
    return statistics.median(samples) if samples else 0.0


def _pairs(groups: Iterable[tuple], kind) -> List[tuple]:
    """Adjacent operand pairs of one type within each deepest-state group."""
    out = []
    for group in groups:
        vals = [x for x in group if isinstance(x, kind)]
        out += list(zip(vals, vals[1:]))
    return out


def kernel_metrics(groups: List[tuple], pis: List) -> Dict[str, float]:
    quad = _pairs(groups, Quadratic)
    frac = _pairs(groups, Fraction)
    ball = _pairs(groups, Ball)
    scalars = [(x,) for g in groups for x in g]
    out = {
        "numerics.quadratic_add_ns": _timed_ns(lambda x, y: x + y, quad),
        "numerics.quadratic_mul_ns": _timed_ns(lambda x, y: x * y, quad),
        "numerics.quadratic_sign_ns": _timed_ns(certified_sign, [(x,) for x, _ in quad]),
        "numerics.fraction_add_ns": _timed_ns(lambda x, y: x + y, frac),
        "numerics.fraction_mul_ns": _timed_ns(lambda x, y: x * y, frac),
        "numerics.ball_add_ns": _timed_ns(lambda x, y: x + y, ball),
        "numerics.ball_mul_ns": _timed_ns(lambda x, y: x * y, ball),
        "numerics.ball_bits": statistics.mean([x.bits for x, _ in ball]) if ball else 0.0,
        "numerics.to_float_ns": _timed_ns(to_float, scalars),
    }
    omegas = [omega_matrix(pi) for pi in pis]
    out["numerics.rank_nullspace_us"] = _timed_ns(exact_rank_nullspace, [(om,) for om in omegas]) / 1e3
    cone_ms = []
    for pi in pis:
        t0 = perf_counter()
        absolute_cone_rays(pi)
        cone_ms.append((perf_counter() - t0) * 1e3)
    out["cones.absolute_cone_rays_ms"] = statistics.median(cone_ms) if cone_ms else 0.0
    return out


def replay_scenarios(paths: Dict[str, str], tr) -> dict:
    """Replays each scenario's runs and window through the public functions.

    The forward run goes through ``run(..., rebuild=...)`` with a counting
    wrapper of ``Scenario.rebuild()`` so precision retries can be counted.
    """
    stats = {"levels": 0, "retries": [], "final_bits": [], "trusted": [], "errors": {}, "operands": [], "pis": []}

    def note(stage: str, exc: Exception) -> None:
        key = f"{stage}:{type(exc).__name__}"
        stats["errors"][key] = stats["errors"].get(key, 0) + 1

    for name, path in paths.items():
        tr.op = f"replay:{name}"
        with tr.span("scenario.parse"):
            sc = parse_scenario(path)
        stats["pis"].append(sc.pi)
        calls: List[int] = []
        rebuild = sc.rebuild()

        def counting(bits: int, rebuild=rebuild, calls=calls):
            calls.append(bits)
            return rebuild(bits)

        stop = ZorichSteps(sc.zorich_depth) if sc.zorich_depth else Steps(sc.depth)
        try:
            with tr.span("induction.run"):
                fwd = run(sc.state(), "forward", stop, rebuild=counting if sc.backend == "ball" else None, max_bits=sc.max_bits)
            stats["levels"] += fwd.n_max
            deep = fwd.state(fwd.n_max)
            stats["operands"].append(deep.lam)
            if sc.backend == "ball":
                stats["retries"].append(len(calls))
                stats["final_bits"].append(deep.lam[0].bits)
        except (IetkzError, ArithmeticError) as exc:
            note("forward", exc)
        try:
            with tr.span("induction.run"):
                back = run(sc.state(), "backward", Steps(sc.backward_depth))
            stats["levels"] += -back.n_min
            deep = back.state(back.n_min)
            stats["operands"] += [deep.tau, deep.heights()]
        except (IetkzError, ArithmeticError) as exc:
            note("backward", exc)
        try:
            window = run_window(sc.state(), sc.backward_depth, sc.depth)
            with tr.span("limitshape.splitting"):
                est = splitting_estimate(window)
            stats["trusted"].append(est.trusted)
            with tr.span("homology.kz"):
                kz_diagnostics(window, est=est)
            s = singular_structure(sc.pi).s
            if s >= 2:
                ups = (Fraction(1), Fraction(-1)) + (Fraction(0),) * (s - 2)
                with tr.span("homology.boundary_section"):
                    boundary_section(window, ups, est=est, allow_untrusted=True)
        except (IetkzError, ArithmeticError, ValueError) as exc:  # LinAlgError is a ValueError
            note("window", exc)
    tr.op = None
    return stats


def replay_paths(cases) -> Dict[str, str]:
    """Scenario name -> path for each scenario the traced ops met."""
    return {case.payload[0]: case.payload[1] for case in cases}


def span_metrics(tr, outcomes: List, replay: dict, overhead: float) -> Dict[str, float]:
    agg = tr.by_name()

    def total(name: str) -> float:
        return agg[name]["self_s"] if name in agg else 0.0

    def per_unit(name: str) -> float:
        """Self seconds per op (or replayed scenario) that calls the span."""
        return _ratio(total(name), len(agg[name]["ops"])) if name in agg else 0.0

    def per_call(name: str) -> float:
        return _ratio(total(name), agg[name]["calls"]) if name in agg else 0.0

    def stat_sum(key: str) -> float:
        return sum(o.stats.get(key, 0) for o in outcomes)

    def stat_mean(key: str) -> float:
        vals = [o.stats[key] for o in outcomes if key in o.stats]
        return statistics.mean(vals) if vals else 0.0

    levels = stat_sum("levels") + replay.get("levels", 0)
    run_calls = agg["induction.run"]["calls"] if "induction.run" in agg else 0
    out = {
        "induction.run_s": per_unit("induction.run"),
        "induction.levels": _ratio(levels, run_calls),
        "induction.step_us": _ratio(total("induction.run"), levels) * 1e6,
        "induction.matrix_calls": stat_mean("matrix_calls"),
        "induction.matrix_us": _ratio(total("induction.matrix"), stat_sum("matrix_calls")) * 1e6,
        "induction.log2_norm_max": max((o.stats.get("log2_norm", 0.0) for o in outcomes), default=0.0),
        "induction.halted_share": _ratio(sum(1 for o in outcomes if o.halt), len(outcomes)),
        "induction.precision_retries": statistics.mean(replay["retries"]) if replay.get("retries") else 0.0,
        "induction.final_bits": statistics.mean(replay["final_bits"]) if replay.get("final_bits") else 0.0,
        "oracle.visit_counts_s": per_unit("oracle.visit_counts"),
        "oracle.orbit_steps": stat_mean("orbit_steps"),
        "oracle.orbit_step_us": _ratio(total("oracle.visit_counts"), stat_sum("orbit_steps")) * 1e6,
        "diophantine.dual_roth_s": per_unit("diophantine.dual_roth"),
        "diophantine.gap_levels": stat_mean("gap_levels"),
        "diophantine.gap_level_us": _ratio(total("diophantine.dual_roth"), stat_sum("gap_levels")) * 1e6,
        "diophantine.roth_s": per_unit("diophantine.roth"),
        "diophantine.length_diagnostics_s": per_unit("diophantine.length_diagnostics"),
        "birkhoff.dual_holder_s": per_unit("birkhoff.dual_holder"),
        "birkhoff.word_letters": stat_mean("word_letters"),
        "birkhoff.letter_ns": _ratio(total("birkhoff.dual_holder"), stat_sum("word_letters")) * 1e9,
        "limitshape.splitting_s": per_call("limitshape.splitting"),
        "limitshape.splitting_trusted_share": _ratio(sum(replay.get("trusted", [])), len(replay.get("trusted", []))),
        "homology.kz_s": per_call("homology.kz"),
        "homology.boundary_section_s": per_call("homology.boundary_section"),
        "scenario.parse_ms": per_call("scenario.parse") * 1e3,
        "trace.overhead_share": overhead,
    }
    for c in COMMANDS:
        out[f"cli.{c.replace('-', '_')}_s"] = per_call(f"cli.{c}")
    return out


def layer_shares(tr, phase_ops: set) -> Dict[str, float]:
    """Self time of each layer (span-name prefix) over the traced ops' time."""
    own = tr.self_times()
    by_layer: Dict[str, float] = {}
    for rec, t in zip(tr.spans, own):
        if rec[4] in phase_ops:
            layer = rec[0].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + t
    total = sum(by_layer.values())
    return {k: round(v / total, 4) for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])} if total else {}
