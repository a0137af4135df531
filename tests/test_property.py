"""Adversarial property tests backed by independent oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import min_sup_norm_solution_reference

from ietkz.combinatorics import BOTTOM, TOP, CombinatorialData, arrow, path_matrix
from ietkz.diophantine import restricted_operator_norm
from ietkz.induction import Steps, make_state, run
from ietkz.numerics import Quadratic, certified_sign, exact_det, exact_inverse, to_float
from ietkz.oracle import IEMap, first_return
from ietkz.simplex import OPTIMAL, min_sup_norm_solution, solve_lp

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
REV3 = CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"])


def test_restricted_norm_dominates_random_hyperplane_directions():
    # the vertex enumeration must upper-bound |Mx|_1 / |x|_1 for every x
    # in the hyperplane; random rational directions probe that claim
    rng = random.Random(41)
    for _ in range(24):
        d = rng.choice([2, 3, 4, 5])
        M = np.array([[rng.randint(0, 6) for _ in range(d)] for _ in range(d)], dtype=object)
        w = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
        bound = restricted_operator_norm(M, w)
        for _ in range(40):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
            # project onto the hyperplane w . x = 0 exactly
            dot = sum(wi * xi for wi, xi in zip(w, x))
            wnorm2 = sum(wi * wi for wi in w)
            x = [xi - dot * wi / wnorm2 for wi, xi in zip(w, x)]
            norm1 = sum(abs(xi) for xi in x)
            if norm1 == 0:
                continue
            img = [sum(M[i, j] * x[j] for j in range(d)) for i in range(d)]
            ratio = sum(abs(v) for v in img) / norm1
            assert ratio <= bound


def test_restricted_norm_attained_at_a_vertex_2x2():
    # for d = 2 the hyperplane is one line and the bound is exact
    M = np.array([[2, 1], [1, 1]], dtype=object)
    w = [Fraction(3), Fraction(5)]
    v = [Fraction(5, 8), Fraction(-3, 8)]  # the unique l1-unit direction
    img = [sum(M[i][j] * v[j] for j in range(2)) for i in range(2)]
    assert restricted_operator_norm(M, w) == sum(abs(x) for x in img)


def test_simplex_agrees_with_scipy_on_random_feasible_lps():
    scipy_lp = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(17)
    compared = 0
    while compared < 25:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, m + 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x_feas = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(A[i][j] * x_feas[j] for j in range(n)) for i in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        status, x, val = solve_lp(A, b, c)
        ref = scipy_lp(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if status != OPTIMAL:
            assert ref.status != 0, "exact simplex missed an optimum scipy found"
            continue
        assert ref.status == 0
        assert float(val) == pytest.approx(ref.fun, abs=1e-8)
        compared += 1


def test_min_sup_norm_solution_is_optimal_and_lexicographic():
    scipy_lp = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(23)
    for _ in range(15):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        x_feas = [rng.randint(-2, 2) for _ in range(n)]
        b = [sum(A[i][j] * x_feas[j] for j in range(n)) for i in range(m)]
        x = min_sup_norm_solution(A, b)
        assert x is not None
        for i in range(m):
            assert sum(Fraction(A[i][j]) * x[j] for j in range(n)) == b[i]
        got = max(abs(v) for v in x) if x else Fraction(0)
        # reference sup-norm optimum via float LP: min t, -t <= x_j <= t
        c = [1.0] + [0.0] * n
        A_eq = [[0.0] + [float(v) for v in row] for row in A]
        A_ub = []
        for j in range(n):
            row = [-1.0] + [0.0] * n
            row[1 + j] = 1.0
            A_ub.append(row)
            row = [-1.0] + [0.0] * n
            row[1 + j] = -1.0
            A_ub.append(row)
        ref = scipy_lp(
            c,
            A_eq=A_eq,
            b_eq=[float(v) for v in b],
            A_ub=A_ub,
            b_ub=[0.0] * (2 * n),
            bounds=[(0, None)] + [(None, None)] * n,
            method="highs",
        )
        assert ref.status == 0
        assert float(got) == pytest.approx(ref.fun, abs=1e-8)
        # the lexicographic tie-break: the exact optimum is one point
        assert x == min_sup_norm_solution_reference(A, b)


def test_unimodular_inverse_round_trip_on_random_paths():
    rng = random.Random(29)
    for seed_pi in (ROT2, REV3):
        cur = seed_pi
        path = []
        for _ in range(14):
            a = arrow(cur, rng.choice([TOP, BOTTOM]))
            path.append(a)
            cur = a.target
        B = path_matrix(path)
        assert exact_det(B) == 1
        Binv = exact_inverse(B)
        d = seed_pi.d
        assert (B @ Binv == np.eye(d, dtype=object)).all()
        assert all(x.denominator == 1 for x in Binv.ravel())


def test_first_return_on_generic_subintervals():
    # the induced map of an arbitrary subinterval is measured against
    # direct orbit iteration of many sample points
    rng = random.Random(37)
    T = IEMap(REV3, (Fraction(104729), Fraction(75541), Fraction(42649)))
    total = T.total
    for _ in range(4):
        a = total * Fraction(rng.randint(0, 3), 17)
        b = a + total * Fraction(rng.randint(2, 5), 19)
        if certified_sign(total - b) <= 0:
            continue
        ind = first_return(T, (a, b))
        assert sum((hi - lo for lo, hi in ind.segments), Fraction(0)) == b - a
        for (lo, hi), r, delta in zip(ind.segments, ind.return_times, ind.translations):
            x = (lo + hi) / 2
            y = x
            for _ in range(r):
                y = T.apply(y)
            assert y == x + delta
            assert a <= y < b


def test_cli_precision_exhausted_exit_three(tmp_path):
    import json

    from ietkz.cli import main

    tiny = Fraction(1, 2**300)
    data = {
        "alphabet": ["A", "B"],
        "top": ["A", "B"],
        "bottom": ["B", "A"],
        "backend": "ball",
        "precision_bits": 32,
        "max_bits": 64,
        "lambda": [f"{(1 + tiny).numerator}/{(1 + tiny).denominator}", "1/1"],
        "depth": 3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["--scenario", str(path), "--command", "induct", "--out-dir", str(tmp_path / "o")]) == 3


def test_match_cycles_stepwise_agrees_with_direct():
    from ietkz.birkhoff import _match_cycles_stepwise, match_cycles

    st = make_state(
        REV3,
        (Fraction(104729), Fraction(75541), Fraction(42649)),
        (Fraction(2) + Fraction(3049, 10007), Fraction(1, 7), Fraction(-2) + Fraction(5, 10007)),
    )
    traj = run(st, "forward", Steps(8))
    for n in (2, 5, 8):
        assert match_cycles(traj, 0, n) == _match_cycles_stepwise(traj, 0, n)


def test_quadratic_interops_with_fractions_everywhere():
    x = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
    assert x + Fraction(1, 2) == Quadratic(1, Fraction(1, 2), 5)
    assert Fraction(3) * x == Quadratic(Fraction(3, 2), Fraction(3, 2), 5)
    assert Fraction(1) / x == x - 1  # golden ratio reciprocal
    assert x > Fraction(8, 5) and x < Fraction(13, 8)
    assert to_float(x) == pytest.approx(1.6180339887)


def test_ball_rounding_is_outward_and_tight():
    from ietkz.numerics import _round_frac_down, _round_frac_up

    rng = random.Random(43)
    for _ in range(200):
        x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        for bits in (16, 53, 128):
            lo = _round_frac_down(x, bits)
            hi = _round_frac_up(x, bits)
            assert lo <= x <= hi
            if x != 0:
                assert hi - lo <= abs(x) * Fraction(4, 1 << bits)


def test_visit_counts_on_windows_away_from_zero():
    rng = random.Random(47)
    st = make_state(REV3, (Fraction(104729), Fraction(75541), Fraction(42649)))
    traj = run(st, "forward", Steps(12))
    from ietkz.induction import visit_words
    from ietkz.oracle import visit_counts

    for n_lo, n_hi in ((3, 9), (5, 12), (7, 7)):
        counts, words = visit_counts(traj, n_lo, n_hi)
        assert (counts == traj.matrix(n_lo, n_hi)).all()
        assert words == visit_words(traj, n_lo, n_hi)
