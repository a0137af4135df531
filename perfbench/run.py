#!/usr/bin/env python3
"""Benchmark of ietkz: one seeded workload, one client, closed loop.

    python3 perfbench/run.py --workload dual-sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout. The next op starts when the previous one
returns. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run. Every run writes a run record (machine, git sha,
seed, op counts, tail percentile, thread settings) to ``perfbench/out/``.
The ops that failed at the seed commit (``reference.json``, ledger in
README.md) are not timed: each runs once after the timed phase and is
reported apart from ``attempted`` and ``failed``. The exit status is 1 when
an output check fails beyond those seed failures.
"""

import os

# One process, one client: BLAS and OpenMP pools get one thread each. This
# must happen before numpy loads; the set-up probes inherit it.
PINNED_THREADS = {
    var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("dual-sweep", "forward-oracle", "cli-reports")
# Fresh interpreters repeat the set-up, half before the ops and half after,
# so the median of the samples is not left to one burst of outside load.
SETUP_PROBES = 6
TAIL_BEYOND = 10  # cases slower than the reported tail
# The calibration loop's time on the reference machine at full speed (Intel
# Xeon, 2 vCPUs, Python 3.11). Op and set-up times are scaled by this over
# the loop's time measured around them, which gives reference-machine seconds.
CALIBRATION_REF_S = 0.003
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def load_reference(workload: str) -> dict:
    """The seed commit's outcome of every case of the workload's pool."""
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {})


def setup(workload: str, seed: int, workdir: str):
    """Imports ietkz and builds the workload's inputs; returns the elapsed time.
    The seed ledger's cases are kept apart in ``wl.ledger``."""
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[workload](workdir)
    ledgered = {key for key, entry in load_reference(workload).items() if "seed_failure" in entry}
    cases = wl.order(seed, ledgered)
    return wl, cases, perf_counter() - t0


def setup_probe(workload: str, seed: int):
    """Set-up time of a fresh interpreter: wall and reference-machine seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    wall, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


def judge(outcome, entry) -> None:
    """A failure is ledgered when the same op failed the same way at the seed
    commit; a digest that differs from the seed commit's is a failure."""
    if outcome.failure:
        outcome.ledgered = entry is not None and entry.get("seed_failure") == outcome.failure
    elif entry is not None and "digest" in entry and outcome.digest != entry["digest"]:
        outcome.failure = "digest mismatch"
        outcome.where = f"expected {entry['digest']}, got {outcome.digest}"


def one_op(wl, case, tr, ref: dict, op_id: str):
    """Runs and checks one op; only the op itself is timed."""
    import workloads

    wl.prepare(case)
    tr.op = op_id
    t0 = perf_counter()
    try:
        with tr.span("op"):
            raw = wl.op(case, tr)
        error = None
    except Exception as exc:  # an op that raises is counted as failed; the run goes on
        error = exc
    dt = perf_counter() - t0
    tr.op = None
    if error is None:
        try:
            outcome = wl.check(case, raw)
        except Exception as exc:  # a check that raises fails the op
            outcome = workloads.failure_from_exception(exc)
            outcome.failure = f"check {outcome.failure}"
    else:
        outcome = workloads.failure_from_exception(error)
    judge(outcome, ref.get(case.key))
    return dt, outcome


def speed(before: float, after: float) -> float:
    """Reference-machine seconds per wall second, from the calibration loop's
    times just before and just after the timed work."""
    return CALIBRATION_REF_S / ((before + after) / 2)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop of integer and Fraction arithmetic."""
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, 7)
    return perf_counter() - t0


def run_ops(wl, cases, seconds: float, ref: dict):
    """Closed loop over ``cases`` until the ops have taken ``seconds`` of wall
    time. Returns each op's wall time and its time in reference-machine
    seconds (see ``speed``)."""
    from tracer import NullTracer

    tr = NullTracer()
    wall, scaled, outcomes, done = [], [], [], []
    busy = 0.0
    for i, case in enumerate(cases):
        if busy >= seconds:
            break
        before = calibrate()
        dt, outcome = one_op(wl, case, tr, ref, str(i))
        outcome.operands = []
        busy += dt
        wall.append(dt)
        scaled.append(dt * speed(before, calibrate()))
        outcomes.append(outcome)
        done.append(case)
    return wall, scaled, outcomes, done


def run_traced(wl, cases, seconds: float, tr, ref: dict):
    """Each op runs traced and untraced back to back, alternating which goes
    first, so both see the same machine load; stops after ``seconds`` of op time.
    Returns the traced outcomes, the ops run, both outcome lists, and the
    traced and untraced op times."""
    from tracer import NullTracer

    plain = NullTracer()
    outcomes, done, every = [], [], []
    traced_s = plain_s = 0.0
    for i, case in enumerate(cases):
        if traced_s + plain_s >= seconds:
            break
        order = (tr, plain) if i % 2 == 0 else (plain, tr)
        for t in order:
            dt, outcome = one_op(wl, case, t, ref, f"{i}:{case.key}")
            every.append(outcome)
            if t is tr:
                traced_s += dt
                outcomes.append(outcome)
            else:
                plain_s += dt
        done.append(case)
    return outcomes, done, every, traced_s, plain_s


def harrell_davis(ranked, p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of the sorted
    ``ranked``: the mean of all order statistics, weighted by the
    Beta(p(n+1), (1-p)(n+1)) distribution's mass on each 1/n of [0, 1].
    Where the cases cluster, a single order statistic jumps between clusters
    with the noise of the one or two cases at its rank. On recorded runs this
    estimate's spread over seeds was a half to two thirds of the plain
    median's, and on cli-reports, whose tail rank sits at the lower edge of
    a cluster, 0.03 to 0.06 against the tail order statistic's 0.08 to 0.15."""
    import numpy as np

    n = len(ranked)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(20000) + 0.5) / 20000
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(20001) / 20000, cdf / cdf[-1]))
    return float(weights @ np.asarray(ranked))


def op_statistics(times, cases, pool_size: int) -> dict:
    """Median, tail and throughput over the pool's cases, each counted once
    with its median time over the run's complete passes (over all ops when no
    pass completed), so every case weighs the same whatever the seed. The
    tail is the order statistic with TAIL_BEYOND cases beyond it (never
    below the median, which only a run of a few ops would reach). Both are
    given as Harrell-Davis estimates of their quantiles; the plain order
    statistics stay in the record."""
    passes = len(times) // pool_size
    n = passes * pool_size or len(times)
    per_case = {}
    for t, case in zip(times[:n], cases[:n]):
        per_case.setdefault(case.key, []).append(t)
    ranked = sorted(statistics.median(v) for v in per_case.values())
    k = max(len(ranked) - TAIL_BEYOND - 1, (len(ranked) - 1) // 2)
    tail_p = (k + 1) / (len(ranked) + 1)  # the expected quantile of rank k + 1
    return {
        "op_p50_s": harrell_davis(ranked, 0.5),
        "op_tail_s": harrell_davis(ranked, tail_p),
        "ops_per_s": len(ranked) / sum(ranked),
        "tail_percentile": 100.0 * tail_p,
        "cases": len(ranked),
        "complete_passes": passes,
        "median_order_statistic_s": statistics.median(ranked),
        "tail_order_statistic_s": ranked[k],
        "case_times_s": {key: statistics.median(v) for key, v in sorted(per_case.items())},
    }


def failure_summary(outcomes, cases) -> list:
    rows = {}
    for o, c in zip(outcomes, cases):
        if o.failure:
            key = (c.family, c.key.split("/")[-1] if "/" in c.key else "", o.failure, o.where, o.ledgered)
            rows[key] = rows.get(key, 0) + 1
    return [
        {"family": f, "command": cmd, "cause": cause, "where": where, "ledgered": led, "ops": n}
        for (f, cmd, cause, where, led), n in sorted(rows.items(), key=lambda kv: -kv[1])
    ]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ietkz")):
        print(f"no ietkz sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    before = calibrate()
    wl, cases, setup_wall = setup(args.workload, args.seed, workdir)
    setup_own = (setup_wall, setup_wall * speed(before, calibrate()))
    try:
        if args.setup_probe:
            print(*map(repr, setup_own))
            return 0
        return measure(args, wl, cases, setup_own)
    finally:
        wl.close()


def measure(args, wl, cases, setup_own: tuple) -> int:
    import layers
    from tracer import NullTracer, Tracer

    ref = load_reference(args.workload)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": machine(),
        "threads": PINNED_THREADS,
        "load": "closed loop, one client, one process",
    }
    if args.trace:
        tr = Tracer()
        outcomes, done, all_outcomes, traced_s, plain_s = run_traced(wl, itertools.cycle(cases), args.seconds, tr, ref)
        overhead = traced_s / plain_s - 1.0
        phase_ops = {f"{i}:{c.key}" for i, c in enumerate(done)}
        replay = {}
        if args.workload == "cli-reports":
            replay = layers.replay_scenarios(layers.replay_paths(done), tr)
            groups, pis = replay["operands"], replay["pis"]
        else:
            groups = [g for o in outcomes for g in o.operands]
            pis = list({c.key: wl.permutation(c) for c in done}.values())
        metrics = layers.span_metrics(tr, outcomes, replay, overhead)
        metrics.update(layers.kernel_metrics(groups, list({pi.key(): pi for pi in pis}.values())))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        record["layer_shares"] = layers.layer_shares(tr, phase_ops)
        record["replay_errors"] = replay.get("errors", {})
        if metrics["numerics.fraction_mul_ns"] and metrics["numerics.quadratic_mul_ns"]:
            record["quadratic_over_fraction_mul"] = metrics["numerics.quadratic_mul_ns"] / metrics["numerics.fraction_mul_ns"]
    else:
        setup_samples = [setup_own] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        wall, scaled, outcomes, done = run_ops(wl, itertools.cycle(cases), args.seconds, ref)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        stats = op_statistics(scaled, done, wl.pool_size)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup_samples),
            "op_p50_s": stats["op_p50_s"],
            "op_tail_s": stats["op_tail_s"],
            "ops_per_s": stats["ops_per_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        record["setup_samples_s"] = [scaled for _, scaled in setup_samples]
        record["setup_wall_samples_s"] = [wall for wall, _ in setup_samples]
        record["statistics"] = stats
        record["wall_clock_statistics"] = op_statistics(wall, done, wl.pool_size)
        record["slowdown_vs_reference"] = statistics.median(w / s for w, s in zip(wall, scaled))
        all_outcomes = outcomes

    # The seed ledger's ops, once each and off the clock: a ledgered op may
    # fail again only with its seed cause, and one that passes now is noted.
    ledger = [one_op(wl, c, NullTracer(), ref, f"ledger:{c.key}")[1] for c in wl.ledger]
    record["seed_ledger"] = {
        "ops": len(ledger),
        "still_failing": sum(1 for o in ledger if o.failure and o.ledgered),
        "passing_now": [c.key for c, o in zip(wl.ledger, ledger) if not o.failure],
        "failures": failure_summary(ledger, wl.ledger),
    }

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failure)
    correct = all(o.ledgered for o in all_outcomes + ledger if o.failure)
    record["ops"] = {
        "attempted": attempted,
        "completed": sum(1 for o in outcomes if not o.failure and not o.halt),
        "halted": sum(1 for o in outcomes if o.halt and not o.failure),
        "failed": failed,
        "failed_share": failed / attempted,
        "ops_by_family": {f: sum(1 for c in done if c.family == f) for f in sorted({c.family for c in done})},
    }
    record["failures"] = failure_summary(all_outcomes, [c for c in done for _ in range(2)] if args.trace else done)
    record["correct"] = correct
    record["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        tr.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"))
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'failed_share':36s} {failed / attempted:14.6g} share ({failed} of {attempted} ops)")
    if ledger:
        led = record["seed_ledger"]
        print(f"seed ledger: {led['ops']} ops that failed at the seed commit, run once off the clock and not "
              f"counted above: {led['still_failing']} fail as then, {len(led['passing_now'])} pass now, "
              f"{led['ops'] - led['still_failing'] - len(led['passing_now'])} fail otherwise")
    if args.trace:
        print("layer self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in record["layer_shares"].items()))
    else:
        wall_stats = record["wall_clock_statistics"]
        print(f"op times are in reference-machine seconds; this run went at {1 / record['slowdown_vs_reference']:.3f} "
              f"of reference speed (wall clock: op_p50_s {wall_stats['op_p50_s']:.6g}, "
              f"op_tail_s {wall_stats['op_tail_s']:.6g}, ops_per_s {wall_stats['ops_per_s']:.6g})")
        print(f"op_tail_s is the {stats['tail_percentile']:.1f}th percentile (Harrell-Davis, {TAIL_BEYOND} cases beyond "
              f"its rank; order statistic {stats['tail_order_statistic_s']:.6g}) of the median times of {stats['cases']} "
              f"cases ({stats['complete_passes']} complete passes of {wl.pool_size}; {attempted} ops run)")
    for row in record["failures"] + record["seed_ledger"]["failures"]:
        if not row["ledgered"]:
            print(f"UNLEDGERED FAILURE {row}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
