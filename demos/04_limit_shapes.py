"""Distributional limit shapes from a genus-one, two-singularity scenario.

A slowly growing sequence of piecewise constants is plotted against the
vertical return structure: the graphs refine each other exactly level by
level, and their pairings against a fixed Hoelder test function settle
down at a measurable rate.  Graph CSVs land next to this script.
"""

import csv
import random
from fractions import Fraction
from pathlib import Path

from ietkz.combinatorics import CombinatorialData
from ietkz.induction import DUAL_COMPLETE, accelerated_times, canonical_tau, make_state, run_window
from ietkz.limitshape import (
    FourierTestFunction,
    central_sequence_from_vector,
    estimated_central_vector,
    omega_graph,
    pair_test,
    refinement_check,
    splitting_estimate,
)
from ietkz.numerics import Quadratic, to_float

rev3 = CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"])
lam = (Fraction(70093, 4), Fraction(87227, 5), Fraction(228335, 22))
tau = tuple(
    Quadratic(b, Fraction(k, 9973), 6)
    for b, k in zip(canonical_tau(rev3), (-183, -245, 72))
)
state = make_state(rev3, lam, tau)
traj = run_window(state, back=60, fwd=20)

est = splitting_estimate(traj)
print(f"splitting: dims={est.dims} trusted={est.trusted} gaps=({est.gap_forward:.1f}, {est.gap_backward:.1f})")
chi0 = estimated_central_vector(traj, est)
print("central direction (snapped to rationals):", [str(x) for x in chi0])

times = accelerated_times(traj, DUAL_COMPLETE)
levels = [t for t in times if t >= traj.n_min and traj.norm(t, 0) <= 20000]
chi = central_sequence_from_vector(traj, chi0, (min(levels), 2))

out = Path(__file__).with_suffix("") .name + "_graphs"
outdir = Path(__file__).parent / out
outdir.mkdir(exist_ok=True)
graphs = [omega_graph(traj, chi, n, "A") for n in levels]
for n, g in zip(levels, graphs):
    path = outdir / f"graph_A_n{abs(n)}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        w.writerows(g.float_points())
    print(f"level {n:4d}: {len(g.breakpoints)-1} segments -> {path.name}")

print("\nrefinement identities are exact between nested levels:")
for n_prime, n in ((levels[2], levels[1]), (levels[3], levels[2])):
    rep = refinement_check(traj, chi, n_prime, n, "A")
    print(f"  ({n_prime}, {n}): offsets exact={rep.constant_offsets_exact} copies exact={rep.copies_exact}")

g0 = graphs[levels.index(0)]
psi = FourierTestFunction.random(float(to_float(g0.total)), 0.5, 4, random.Random(5))
rep = pair_test(traj, graphs, psi)
print("\npairings against one Hoelder test function:")
for n, v in zip(rep.levels, rep.pairings):
    print(f"  level {n:4d}: {v:+.6f}")
print(f"fitted decay slope (log diff vs log norm): {rep.slope:.3f}")
