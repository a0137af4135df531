"""Fast paths against the slow reference implementations they replaced."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    dual_holder_profile_reference,
    dual_words_reference,
    echelon_reference,
    exact_det_reference,
    itinerary_reference,
    min_sup_norm_solution_reference,
    quadratic_ball_reference,
    restricted_operator_norm_reference,
    solve_lp_reference,
    visit_counts_reference,
    visit_words_reference,
    zorich_stop_rescan,
)

from ietkz import homology, numerics
from ietkz.birkhoff import dual_holder_profile
from ietkz.combinatorics import (
    CombinatorialData,
    all_irreducible,
    cocycle_step,
    elementary_matrix,
    omega_matrix,
    path_matrix,
    singular_structure,
)
from ietkz.diophantine import restricted_operator_norm
from ietkz.errors import (
    ConnectionHit,
    HorizontalDegenerate,
    InsufficientTrajectory,
    InvalidLengths,
    NoReturn,
    NotSuspensionVector,
    PrecisionExhausted,
    WindowMissing,
)
from ietkz.induction import (
    DUAL_COMPLETE,
    Steps,
    Trajectory,
    ZorichSteps,
    _stop_reached,
    accelerated_times,
    backward_step,
    canonical_tau,
    forward_step,
    make_state,
    run,
    run_window,
    visit_words,
    word_codes,
)
from ietkz.limitshape import FourierTestFunction
from ietkz.numerics import (
    Ball,
    Quadratic,
    exact_det,
    exact_inverse,
    exact_log,
    exact_rank,
    exact_rank_nullspace,
    exact_solve,
    certified_sign,
    identity_matrix,
    integer_lift,
    mat,
    matvec,
    to_float,
    zsign,
)
from ietkz.oracle import IEMap, visit_counts
from ietkz.scenario import sample_rational_lengths, sample_rational_suspension
from ietkz.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, min_sup_norm_solution, solve_lp

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
ABC = CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"])
REV4 = CombinatorialData.from_rows(list("ABCD"), list("DCBA"))
PHI = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
ONE = Quadratic(1, 0, 5)


def golden_backward(depth=40):
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    return run(st, "backward", Steps(depth))


def abc_backward(depth=110):
    lam = (Fraction(123457, 7), Fraction(654321, 11), Fraction(222222, 13))
    shifts = (Fraction(-150, 9973), Fraction(220, 9973), Fraction(-90, 9973))
    tau = tuple(b + Quadratic(0, c, 5) for b, c in zip(canonical_tau(ABC), shifts))
    return run(make_state(ABC, lam, tau), "backward", Steps(depth))


# ---------------------------------------------------------------------------
# restricted operator norm


def _random_weight(rng, kind, D):
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
    if kind == "fraction":
        return a
    return Quadratic(a, Fraction(rng.randint(-40, 40), rng.randint(1, 30)), D)


@pytest.mark.parametrize("kind", ["fraction", "quadratic", "mixed"])
def test_restricted_norm_kernel_equals_scalar_loop(kind):
    rng = random.Random(f"restricted-{kind}")
    for trial in range(150):
        d = rng.choice([2, 3, 4, 5])
        D = rng.choice([2, 3, 5, 7, 13])
        big = rng.random() < 0.2  # cocycle-sized entries
        M = np.array(
            [[rng.randint(-6, 6) * (rng.randint(1, 10**12) if big else 1) for _ in range(d)] for _ in range(d)],
            dtype=object,
        )
        w = []
        for _ in range(d):
            k = kind if kind != "mixed" else rng.choice(["fraction", "quadratic"])
            x = _random_weight(rng, k, D)
            if rng.random() < 0.2:  # a zero weight, typed like the others
                x = x - x
            w.append(x)
        got = restricted_operator_norm(M, w)
        want = restricted_operator_norm_reference(M, w)
        assert got == want, (M.tolist(), w)
        assert type(got) is type(want), (M.tolist(), w)
        if isinstance(want, Quadratic):
            assert (got.a, got.b, got.D) == (want.a, want.b, want.D)


def test_restricted_norm_int_weights_are_exact():
    # the scalar loop divides ints with "/" into floats (and then fails to
    # compare them); the kernel returns the exact rational value
    M = np.array([[2, 1, 0], [1, 1, 3], [0, 5, 1]], dtype=object)
    w = [3, -5, 2]
    got = restricted_operator_norm(M, w)
    assert type(got) is Fraction
    assert got == restricted_operator_norm_reference(M, [Fraction(x) for x in w])
    w = [0, 4, 1]
    assert restricted_operator_norm(M, w) == restricted_operator_norm_reference(M, [Fraction(x) for x in w])


def test_restricted_norm_on_backward_cocycle_matches_scalar_loop():
    traj = abc_backward()
    q0 = traj.state(0).heights()
    for n in traj.levels():
        B = traj.matrix(n, 0)
        got = restricted_operator_norm(B.T, q0)
        want = restricted_operator_norm_reference(B.T, q0)
        assert got == want and type(got) is type(want)


def test_restricted_norm_overlapping_ball_candidates():
    # two vertices whose image norms are overlapping balls: the scalar loop
    # used to compare None with 0; the result is now their hull
    M = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=object)
    w = [Ball(1, 1, 64), Ball(1, 1, 64), Ball(Fraction(9, 10), Fraction(11, 10), 64)]
    with pytest.raises(TypeError):
        restricted_operator_norm_reference(M, w)
    got = restricted_operator_norm(M, w)
    assert isinstance(got, Ball)
    # every exact weight vector inside the balls has its norm inside the result
    for c in (Fraction(9, 10), Fraction(1), Fraction(21, 20), Fraction(11, 10)):
        exact = restricted_operator_norm_reference(M, [Fraction(1), Fraction(1), c])
        assert got.contains(exact)
    M2 = np.array([[3, 1, 0], [1, 2, 1], [0, 1, 4]], dtype=object)
    got2 = restricted_operator_norm(M2, w)
    for c in (Fraction(9, 10), Fraction(1), Fraction(11, 10)):
        assert got2.contains(restricted_operator_norm_reference(M2, [Fraction(1), Fraction(1), c]))


def test_zsign_is_the_exact_quadratic_sign():
    # Pell solutions for D = 5 make a + b sqrt(5) cancel down to ~2e-10 of |a|
    pairs = [(0, 0), (5, 0), (-5, 0), (0, 3), (0, -3), (9, -4), (-9, 4), (161, -72), (-161, 72),
             (3, 2), (-3, -2), (51841, -23184), (-51841, 23184), (4, -2), (-4, 2), (3, -2)]
    for D in (2, 3, 5, 7, 13):
        for a, b in pairs:
            assert zsign(a, b, D) == Quadratic(a, b, D).sign(), (a, b, D)
    assert zsign(7, 0, 0) == 1 and zsign(-7, 0, 0) == -1 and zsign(0, 0, 0) == 0


def test_integer_lift_over_one_common_denominator():
    values = [Fraction(3, 4), 2, Fraction(-5, 6), 0]
    A, B, D = integer_lift(values)
    assert (A, B, D) == ([9, 24, -10, 0], [0, 0, 0, 0], 0)  # D absent: rational
    values = [Quadratic(Fraction(1, 2), Fraction(-3, 10), 5), Fraction(7, 3), 4, Quadratic(9, -4, 5)]
    A, B, D = integer_lift(values)
    L = 30
    assert D == 5 and all(type(x) is int for x in A + B)
    for x, a, b in zip(values, A, B):
        assert Quadratic(Fraction(a, L), Fraction(b, L), 5) == x
    # order on the lattice is the order of the values, down to 9 - 4 sqrt(5) > 0
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert zsign(A[i] - A[j], B[i] - B[j], D) == certified_sign(x - y)
    assert integer_lift([Quadratic(1, 1, 2), Quadratic(1, 1, 3)]) is None  # two fields
    assert integer_lift([Fraction(1), Ball(1, 2)]) is None
    assert integer_lift([True, 1]) is None


# ---------------------------------------------------------------------------
# integer orbit kernel of the brute-force oracle


def _outcome(fn, *args, **kwargs):
    """The result of fn, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (NoReturn, PrecisionExhausted, ValueError) as exc:
        return type(exc), str(exc)


def _same_visit_counts(traj, n_prime, n, **kwargs):
    got = _outcome(visit_counts, traj, n_prime, n, **kwargs)
    want = _outcome(visit_counts_reference, traj, n_prime, n, **kwargs)
    if isinstance(want[0], type):
        assert got == want, (n_prime, n)
        return
    assert got[0].dtype == object and want[0].dtype == object
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1], (n_prime, n)
    assert all(type(x) is int for x in got[0].ravel())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_visit_counts_kernel_on_rational_forward_windows(d):
    rng = random.Random(f"orbit-kernel-{d}")
    pis = list(all_irreducible(d, top_identity_only=True))
    windows = 0
    while windows < 12:
        pi = rng.choice(pis)
        st = make_state(pi, sample_rational_lengths(pi, rng))
        try:
            traj = run(st, "forward", Steps(14))
        except ConnectionHit:
            continue
        n_prime = rng.randint(1, traj.n_max - 1)
        n = rng.randint(n_prime, traj.n_max)
        while n > n_prime and traj.norm(n_prime, n) > 3000:  # keeps the reference loop affordable
            n -= 1
        _same_visit_counts(traj, n_prime, n)
        windows += 1


@pytest.mark.parametrize("D", [2, 3, 5, 7, 13])
def test_visit_counts_kernel_on_quadratic_windows(D):
    rng = random.Random(f"orbit-kernel-quadratic-{D}")
    for _ in range(3):
        lam = (Quadratic(rng.randint(1, 4), rng.randint(1, 3), D), Quadratic(1, 0, D))
        traj = run(make_state(ROT2, lam), "forward", Steps(12))
        _same_visit_counts(traj, 0, traj.n_max)
        _same_visit_counts(traj, 3, 9)
    lam = tuple(Quadratic(rng.randint(1, 9), Fraction(rng.randint(1, 9), 7), D) for _ in range(3))
    traj = run(make_state(ABC, lam), "forward", Steps(10))
    _same_visit_counts(traj, 0, traj.n_max)
    _same_visit_counts(traj, 2, 8)


def test_visit_counts_kernel_on_mixed_lengths():
    lam = (3, Fraction(22, 7), Quadratic(1, 1, 2), Quadratic(Fraction(1, 3), Fraction(5, 4), 2))
    traj = run(make_state(REV4, lam), "forward", Steps(12))
    _same_visit_counts(traj, 0, traj.n_max)
    _same_visit_counts(traj, 4, 11)
    T = IEMap(REV4, lam)
    for x in (0, Fraction(1, 2), Quadratic(1, 1, 2), T.total - Fraction(1, 10**6)):
        assert T.itinerary(x, 1, 10**4) == itinerary_reference(T, x, 1, 10**4)


def test_itinerary_lands_on_top_bounds_from_the_right():
    # rotation by 1 on [0, 3): the orbit of 1 hits the bound 2 exactly, which
    # belongs to the right-hand interval B, and then 0, which returns
    for scale in (1, Fraction(2, 7), Quadratic(1, 1, 5)):
        T = IEMap(ROT2, (2 * scale, scale))
        x = 1 * scale
        assert T.itinerary(x, x, 10) == ["A", "B"] == itinerary_reference(T, x, x, 10)
        # a point exactly on the bound starts in B
        assert T.itinerary(2 * scale, 2 * scale, 10) == ["B"] == itinerary_reference(T, 2 * scale, 2 * scale, 10)
        # an orbit point equal to stop is not yet a return: [0, stop) is right-open
        zero = scale - scale
        assert T.itinerary(zero, scale, 10) == ["A", "A", "B"] == itinerary_reference(T, zero, scale, 10)
    # a longer orbit through several bound hits: integer lengths, every point rational
    lam = (Fraction(5), Fraction(3), Fraction(2))
    T = IEMap(ABC, lam)
    for x in range(10):
        assert T.itinerary(x, Fraction(1), 100) == itinerary_reference(T, x, Fraction(1), 100)


def test_itinerary_raises_like_the_scalar_loop():
    for lam in ((Fraction(2), Fraction(1)), (PHI, ONE), (Ball.exact(PHI, 64), Ball.exact(ONE, 64))):
        T = IEMap(ROT2, lam)
        zero = lam[0] - lam[0]
        for x in (zero - 1, T.total, T.total + 1):
            got = _outcome(T.itinerary, x, T.total, 10)
            assert got == _outcome(itinerary_reference, T, x, T.total, 10)
            # a ball on the right end cannot be placed: it straddles |I|
            expected = PrecisionExhausted if isinstance(x, Ball) and x is T.total else ValueError
            assert got[0] is expected
        # a bound below every orbit point: NoReturn at the cap
        got = _outcome(T.itinerary, zero + lam[1] / 2, zero, 7)
        assert got == (NoReturn, "no return within 7 iterations")
        assert got == _outcome(itinerary_reference, T, zero + lam[1] / 2, zero, 7)


def test_visit_counts_no_return_under_small_depth_cap():
    st = make_state(REV4, (Fraction(104729), Fraction(75541), Fraction(42649), Fraction(29927)))
    traj = run(st, "forward", Steps(10))
    longest = max(sum(row) for row in traj.matrix(2, 9).tolist())
    for cap in (1, 3, longest - 1):
        _same_visit_counts(traj, 2, 9, depth_cap=cap)
        with pytest.raises(NoReturn):
            visit_counts(traj, 2, 9, depth_cap=cap)
    _same_visit_counts(traj, 2, 9, depth_cap=longest)


def test_visit_counts_on_a_ball_window_equals_the_scalar_loop():
    bits = 128
    traj = run(make_state(ROT2, (Ball.exact(PHI, bits), Ball.exact(ONE, bits))), "forward", Steps(8))
    assert isinstance(traj.state(8).lam[0], Ball)
    _same_visit_counts(traj, 0, 8)
    _same_visit_counts(traj, 2, 7)
    counts, _ = visit_counts(traj, 0, 8)
    assert counts.tolist() == traj.matrix(0, 8).tolist()


# ---------------------------------------------------------------------------
# ball enclosures of quadratic numbers


def test_quadratic_ball_equals_ball_arithmetic():
    rng = random.Random(8)

    def part():
        if rng.random() < 0.1:
            return Fraction(0)
        k = rng.choice([1, 2, 5, 40, 200])
        return Fraction(rng.randint(-(10**k), 10**k), rng.randint(1, 10 ** rng.choice([0, 1, 3, 30])))

    for _ in range(3000):
        x = Quadratic(part(), part(), rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 101]))
        bits = rng.choice([8, 16, 53, 64, 128, 256, 1024])
        got, want = Ball.exact(x, bits), quadratic_ball_reference(x, bits)
        assert (got.lo, got.hi, got.bits) == (want.lo, want.hi, want.bits), (x, bits)


def test_exact_log_of_cancelling_quadratic_unchanged():
    # a + b sqrt(D) with a ~ -b sqrt(D): the enclosure loop has to raise bits
    x = Quadratic(Fraction(228826127), Fraction(-102334155), 5)
    assert x.sign() > 0
    bits = 64
    while True:
        enc = quadratic_ball_reference(x, bits)
        if enc.lo > 0 and enc.hi - enc.lo < enc.lo * Fraction(1, 1 << 20):
            break
        bits *= 2
    mid = enc.mid
    assert bits > 64
    assert exact_log(x) == math.log(mid.numerator) - math.log(mid.denominator)


# ---------------------------------------------------------------------------
# one substitution-word engine against the list loops it replaced


def _engine_trajectories():
    rng = random.Random("word-engine")
    pi = CombinatorialData.from_rows(list("ABCD"), list("DACB"))
    forward = run(make_state(pi, sample_rational_lengths(pi, rng)), "forward", Steps(40))
    st = make_state(REV4, sample_rational_lengths(REV4, rng), sample_rational_suspension(REV4, rng))
    return [forward, abc_backward(40), run_window(st, back=20, fwd=20)]


def _spelled(letters, codes):
    return {a: [letters[i] for i in w] for a, w in zip(letters, codes)}


def test_word_engine_equals_list_words_on_every_window():
    for traj in _engine_trajectories():
        for n in traj.levels():
            for m in range(traj.n_min, n + 1):
                B = traj.matrix(m, n)
                d = B.shape[0]
                letters = traj.state(m).pi.letters
                visit = word_codes(traj, m, n)
                dual = word_codes(traj, m, n, dual=True)
                assert _spelled(letters, visit) == visit_words_reference(traj, m, n), (m, n)
                assert _spelled(letters, dual) == dual_words_reference(traj, m, n), (m, n)
                for i in range(d):
                    assert visit[i].dtype == dual[i].dtype == np.int8
                    assert np.bincount(visit[i], minlength=d).tolist() == B[i, :].tolist(), (m, n, i)
                    assert np.bincount(dual[i], minlength=d).tolist() == B[:, i].tolist(), (m, n, i)
                words = visit_words(traj, m, n)
                assert words == visit_words_reference(traj, m, n)
                assert all(type(b) is str for w in words.values() for b in w)


def test_substitution_words_equal_list_words():
    for traj in _engine_trajectories():
        for n in traj.levels():
            if n <= 0:
                got = homology.substitution_words(traj, n, homology.BACKWARD)
                assert got == visit_words_reference(traj, n, 0), n
            if n >= 0:
                got = homology.substitution_words(traj, n, homology.DUAL_FORWARD)
                assert got == dual_words_reference(traj, 0, n), n
            assert all(type(b) is str for w in got.values() for b in w)


def test_word_windows_raise_as_before():
    fwd, back, window = _engine_trajectories()
    for traj in (fwd, back, window):
        for m, n in ((traj.n_min - 1, 0), (0, traj.n_max + 1), (1, 0), (traj.n_max, traj.n_min)):
            for fn in (word_codes, visit_words, visit_words_reference):
                with pytest.raises(InsufficientTrajectory):
                    fn(traj, m, n)
    with pytest.raises(ValueError):
        homology.substitution_words(back, 1, homology.BACKWARD)
    with pytest.raises(ValueError):
        homology.substitution_words(fwd, -1, homology.DUAL_FORWARD)
    with pytest.raises(ValueError):
        homology.substitution_words(fwd, 0, "Sideways")
    with pytest.raises(WindowMissing):
        homology.substitution_words(back, 1, homology.DUAL_FORWARD)
    with pytest.raises(InsufficientTrajectory):
        homology.substitution_words(fwd, -1, homology.BACKWARD)
    psi = FourierTestFunction.random(1.0, 0.5, 3, random.Random(1))
    for level in (back.n_min - 1, 1):
        with pytest.raises(InsufficientTrajectory):
            dual_holder_profile(back, [level], psi, "A")


# ---------------------------------------------------------------------------
# int-coded dual Hoelder words


def _holder_levels(traj, cap=2 * 10**5):
    times = accelerated_times(traj, DUAL_COMPLETE)
    return [t for t in times[1:] if traj.norm(t, 0) <= cap]


@pytest.mark.parametrize("make", [golden_backward, abc_backward])
def test_dual_holder_profile_equals_list_words(make):
    traj = make()
    st0 = traj.state(0)
    rng = random.Random(5)
    for alpha in st0.pi.letters:
        psi = FourierTestFunction.random(to_float(st0.heights()[st0.pi.index(alpha)]), 0.5, 3, rng)
        levels = _holder_levels(traj)
        levels = levels + [levels[0], max(traj.n_min, -7), 0]  # duplicates and extra levels
        got = dual_holder_profile(traj, levels, psi, alpha, grid=4)
        assert got == dual_holder_profile_reference(traj, levels, psi, alpha, grid=4)
        assert len(got) >= 3


# ---------------------------------------------------------------------------
# per-level cocycle store: B(m, n) and B(m, n)^-1 against path products


def _check_store(traj, m, n):
    """matrix(m, n) is the product of the window's arrows (path_matrix) and
    inverse(m, n) its exact integer inverse (exact_inverse)."""
    d = traj.state(m).d
    B = traj.matrix(m, n)
    assert (B == path_matrix([traj.arrow_at(k) for k in range(m + 1, n + 1)], d)).all(), (m, n)
    Binv = traj.inverse(m, n)
    assert (Binv == exact_inverse(B)).all(), (m, n)
    P = Binv @ B
    assert (P == identity_matrix(d)).all(), (m, n)
    assert all(type(x) is int for x in np.concatenate([Binv.ravel(), P.ravel()])), (m, n)


def test_cocycle_store_equals_path_products_and_exact_inverse():
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    for traj in (abc_backward(), golden_backward(30), run_window(st, back=20, fwd=7)):
        for n in traj.levels():
            for m in range(traj.n_min, n + 1):
                _check_store(traj, m, n)
                # transport: B(m, n) going up, B(m, n)^-1 coming back down
                assert (traj.transport(m, n) == traj.matrix(m, n)).all(), (m, n)
                assert (traj.transport(n, m) == traj.inverse(m, n)).all(), (n, m)


def test_transport_round_trip_keeps_vector_type():
    rng = random.Random(4)
    abc = abc_backward(60)
    window = run_window(make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI)), back=12, fwd=9)
    for traj, vec in (
        (abc, tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))),
        (abc, abc.state(-17).heights()),
        (window, (PHI, ONE - PHI)),
        (window, (Quadratic(Fraction(-3, 7), 2, 5), Quadratic(0, Fraction(1, 4), 5))),
    ):
        kind = type(vec[0])
        for m, n in ((0, traj.n_min), (traj.n_min, 0), (-5, traj.n_max), (traj.n_max, -5), (-3, -3)):
            there = matvec(traj.transport(m, n), vec)
            back = matvec(traj.transport(n, m), there)
            assert back == tuple(vec), (m, n)
            assert all(type(x) is kind for x in there + back), (m, n)


def test_cocycle_store_between_appends_in_both_directions():
    # the store is filled as the trajectory grows, with no cache to clear:
    # read it after every append, alternating forward and backward steps
    lam = (Fraction(123457, 7), Fraction(654321, 11), Fraction(222222, 13))
    tau = tuple(b + Quadratic(0, Fraction(37, 9973), 5) for b in canonical_tau(ABC))
    st = make_state(ABC, lam, tau)
    traj = Trajectory(st)
    fwd = back = st
    for step in range(24):
        if step % 3 == 0:
            fwd, a = forward_step(fwd)
            traj._append_forward(fwd, a)
        else:
            back, a = backward_step(back)
            traj._append_backward(back, a)
        _check_store(traj, traj.n_min, traj.n_max)
        _check_store(traj, traj.n_min, 0)
        _check_store(traj, 0, traj.n_max)
        mid = (traj.n_min + traj.n_max) // 2
        _check_store(traj, mid, traj.n_max)
    assert (traj.n_min, traj.n_max) == (-16, 8)


def test_cocycle_store_results_are_fresh_arrays():
    traj = golden_backward(12)
    want = {(m, n): (traj.matrix(m, n).copy(), traj.inverse(m, n).copy()) for m, n in ((-12, 0), (-5, -5), (-7, -2))}
    for m, n in want:
        for M in (traj.matrix(m, n), traj.inverse(m, n)):
            M[:, :] = 7
    for (m, n), (B, Binv) in want.items():
        assert (traj.matrix(m, n) == B).all() and (traj.inverse(m, n) == Binv).all()
    _check_store(traj, traj.n_min, traj.n_max)


def test_cocycle_inverse_outside_window_raises():
    traj = golden_backward(10)
    for m, n in ((-11, 0), (-3, 1), (0, -1), (-12, -11)):
        with pytest.raises(InsufficientTrajectory):
            traj.inverse(m, n)
        with pytest.raises(InsufficientTrajectory):
            traj.matrix(m, n)
    for m, n in ((-11, 0), (-3, 1), (-12, -11), (2, 2)):
        for a, b in ((m, n), (n, m)):
            with pytest.raises(InsufficientTrajectory):
                traj.transport(a, b)


def test_cocycle_step_on_a_vector_is_the_elementary_product():
    rng = random.Random(9)
    for pi in list(all_irreducible(4))[:6]:
        traj = run(make_state(pi, sample_rational_lengths(pi, rng)), "forward", Steps(12))
        for n in range(1, traj.n_max + 1):
            a = traj.arrow_at(n)
            v = np.array([Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(pi.d)], dtype=object)
            want = elementary_matrix(a) @ v
            cocycle_step(v, a)
            assert (v == want).all()


# ---------------------------------------------------------------------------
# induction: Zorich stop test and cached heights


def _stepped_stop(state, direction, k, limit=400):
    """Steps by hand until the rescanning Zorich test fires."""
    traj = Trajectory(state)
    cur = state
    for _ in range(limit):
        if zorich_stop_rescan(traj, k):
            return traj
        assert not _stop_reached(traj, ZorichSteps(k), 0)
        if direction == "forward":
            cur, a = forward_step(cur)
            traj._append_forward(cur, a)
        else:
            cur, a = backward_step(cur)
            traj._append_backward(cur, a)
    raise AssertionError("no stop within the step limit")


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_zorich_stop_levels_match_rescan(direction):
    rng = random.Random(f"zorich-{direction}")
    checked = 0
    while checked < 12:
        d = rng.choice([2, 3, 4])
        pi = rng.choice(list(all_irreducible(d)))
        try:
            state = make_state(pi, sample_rational_lengths(pi, rng), sample_rational_suspension(pi, rng))
            k = rng.randint(1, 8)
            want = _stepped_stop(state, direction, k)
            got = run(state, direction, ZorichSteps(k))
        except (InvalidLengths, NotSuspensionVector, HorizontalDegenerate):
            continue
        assert (got.n_min, got.n_max) == (want.n_min, want.n_max)
        assert _stop_reached(got, ZorichSteps(k), 0)
        checked += 1


def test_heights_cached_without_changing_equality():
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    twin = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    q = st.heights()
    assert st.heights() is q
    assert st == twin and hash(st) == hash(twin)
    assert twin.heights() == q
    assert [f.name for f in dataclasses.fields(st)] == ["pi", "lam", "tau", "level"]
    with pytest.raises(InvalidLengths):
        make_state(ROT2, (PHI, ONE)).heights()


# ---------------------------------------------------------------------------
# integer lexicographic simplex


def _boundary_systems(monkeypatch, cases):
    """Every (A, b) that boundary_section hands to the simplex on the cases."""
    systems = []

    def record(A, b):
        systems.append((A, b))
        return min_sup_norm_solution(A, b)

    monkeypatch.setattr(homology, "min_sup_norm_solution", record)
    for traj, upsilon, direction in cases:
        homology.boundary_section(traj, upsilon, direction=direction, allow_untrusted=True)
    return systems


def _abc_windows():
    rational_tau = (Fraction(2) + Fraction(3049, 10007), Fraction(1, 11), Fraction(-2) + Fraction(5, 10007))
    rational = make_state(ABC, (Fraction(104729), Fraction(75541), Fraction(42649)), rational_tau)
    shift = Quadratic(0, Fraction(37, 9973), 5)
    lam = (Fraction(123457, 7), Fraction(654321, 11), Fraction(222222, 13))
    quadratic = make_state(ABC, lam, tuple(b + shift for b in canonical_tau(ABC)))
    return [run_window(rational, 22, 22), run_window(quadratic, 300, 30)]


def _rational_d4_windows(count=3):
    rng = random.Random("boundary-d4")
    pis = [pi for pi in all_irreducible(4) if singular_structure(pi).s >= 2]
    windows = []
    for _ in range(count):
        pi = rng.choice(pis)
        state = make_state(pi, sample_rational_lengths(pi, rng), sample_rational_suspension(pi, rng, den=104729))
        windows.append(run_window(state, 40, rng.randint(20, 30)))
    return windows


def test_min_sup_norm_equals_fraction_tableau_on_boundary_systems(monkeypatch):
    cases = []
    for traj in _abc_windows():
        for direction in ("positive", "negative"):
            cases.append((traj, (Fraction(1), Fraction(-1)), direction))
    for traj in _rational_d4_windows():
        cases.append((traj, (Fraction(1), Fraction(-1), Fraction(0)), "positive"))
        cases.append((traj, (Fraction(2, 3), Fraction(1, 5), Fraction(-13, 15)), "negative"))
    systems = _boundary_systems(monkeypatch, cases)
    assert len(systems) > 150
    distinct = {(tuple(map(tuple, A)), tuple(b)) for A, b in systems}
    assert len({len(A) for A, _ in distinct}) == 2  # s = 2 and s = 3
    for A, b in distinct:
        got = min_sup_norm_solution(A, b)
        assert got is not None and got == min_sup_norm_solution_reference(A, b)
        assert all(type(v) is Fraction for v in got)


def _random_rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 5, 7]))


def _random_system(rng):
    """Small rational system, often with dependent, duplicate or zero rows."""
    m = rng.randint(1, 3)
    n = rng.randint(1, 4) if rng.random() < 0.97 else rng.randint(5, 6)
    A = [[_random_rational(rng, -4, 4) if rng.random() < 0.75 else Fraction(0) for _ in range(n)] for _ in range(m)]
    kind = rng.choice(["generic", "dependent", "duplicate", "negated", "zero"])
    if kind == "dependent" and m > 1:  # the last row a combination of the others
        coef = [_random_rational(rng, -2, 2) for _ in range(m - 1)]
        A[-1] = [sum(c * A[i][j] for i, c in enumerate(coef)) for j in range(n)]
    elif kind == "duplicate" and m > 1:
        A[-1] = list(A[0])
    elif kind == "negated" and m > 1:  # rows summing to zero, as boundary rows do
        A[-1] = [-a for a in A[0]]
    elif kind == "zero":
        A[rng.randrange(m)] = [Fraction(0)] * n
    if rng.random() < 0.6:  # consistent right-hand side, negative entries included
        x = [_random_rational(rng, -3, 3) for _ in range(n)]
        b = [sum(a * xj for a, xj in zip(row, x)) for row in A]
    else:  # arbitrary, hence infeasible whenever it breaks a row dependency
        b = [_random_rational(rng, -5, 5) for _ in range(m)]
    return A, b


def test_min_sup_norm_equals_fraction_tableau_on_random_systems():
    rng = random.Random(2027)
    infeasible = 0
    for _ in range(320):
        A, b = _random_system(rng)
        got = min_sup_norm_solution(A, b)
        assert got == min_sup_norm_solution_reference(A, b)
        infeasible += got is None
    assert 20 <= infeasible <= 200


def test_min_sup_norm_degenerate_shapes():
    for A, b in [
        ([[0, 0]], [0]),
        ([[0, 0]], [Fraction(1, 3)]),
        ([[]], [0]),
        ([[]], [1]),
        ([[1, -1], [-1, 1]], [Fraction(5, 2), Fraction(-5, 2)]),
        ([[1, 1, 1]], [0]),
        ([[2, 0, 0], [0, 0, 0], [2, 0, 0]], [-3, 0, -3]),
        ([[-1, 0, 1], [0, -1, 0], [1, 0, -1]], [0, -1, 0]),  # pivots an artificial out on a negative entry
    ]:
        assert min_sup_norm_solution(A, b) == min_sup_norm_solution_reference(A, b)
    assert min_sup_norm_solution([], []) == min_sup_norm_solution_reference([], []) == []


def test_solve_lp_equals_fraction_tableau():
    rng = random.Random(2028)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(240):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.25:
            A[-1] = [-a for a in A[0]]
        if rng.random() < 0.5:  # degenerate: a feasible point with many zero coordinates
            x = [rng.choice([0, 0, 1, 2]) for _ in range(n)]
            b = [sum(a * xj for a, xj in zip(row, x)) for row in A]
        else:
            b = [_random_rational(rng, -4, 4) for _ in range(m)]
        c = [_random_rational(rng, -3, 3) for _ in range(n)]
        got = solve_lp(A, b, c)
        assert got == solve_lp_reference(A, b, c)
        seen[got[0]] += 1
    assert min(seen.values()) >= 30


# ---------------------------------------------------------------------------
# one fraction-free elimination kernel


def _exact_linear_algebra(M, b):
    """Rank, nullspace and column basis of M, one solution of M x = b (or
    None), and for a square M its inverse (or the error it raises)."""
    rank, null, col = exact_rank_nullspace(M)
    x = exact_solve(M, b)
    out = [rank, [list(v) for v in null], [list(v) for v in col], x if x is None else list(x)]
    if M.shape[0] == M.shape[1]:
        try:
            out.append([list(row) for row in exact_inverse(M)])
        except ZeroDivisionError as exc:
            out.append((ZeroDivisionError, str(exc)))
    return out


def _same_as_reference(monkeypatch, M, b):
    """The kernel's results on (M, b) equal the Fraction elimination's."""
    got = _exact_linear_algebra(M, b)
    with monkeypatch.context() as mp:
        mp.setattr(numerics, "_echelon", echelon_reference)
        want = _exact_linear_algebra(M, b)
    assert got == want, M
    R, pivots = numerics._echelon(M)
    R0, pivots0 = echelon_reference(M)
    assert pivots == pivots0 and R.shape == R0.shape and R.tolist() == R0.tolist(), M
    assert exact_rank(M) == len(pivots0)
    assert all(type(v) is Fraction for v in R.ravel())
    if M.shape[0] == M.shape[1]:
        det = exact_det(M)
        assert type(det) is Fraction and det == exact_det_reference(M), M
    return got


def _random_matrix(rng):
    """Small rational matrix with mixed denominators: 1x1, wide, tall or
    square, often rank-deficient, with a duplicate or zero row, or a
    negative first pivot."""
    shape = rng.choice(["1x1", "wide", "tall", "square", "square"])
    if shape == "1x1":
        m = n = 1
    elif shape == "wide":
        m = rng.randint(1, 4)
        n = rng.randint(m + 1, 6)
    elif shape == "tall":
        n = rng.randint(1, 4)
        m = rng.randint(n + 1, 6)
    else:
        m = n = rng.randint(2, 5)
    M = [[_random_rational(rng, -5, 5) if rng.random() < 0.75 else Fraction(0) for _ in range(n)] for _ in range(m)]
    kind = rng.choice(["generic", "dependent", "duplicate", "zero", "negative"])
    if kind == "dependent" and m > 1:  # the last row a combination of the others
        coef = [_random_rational(rng, -2, 2) for _ in range(m - 1)]
        M[-1] = [sum(c * M[i][j] for i, c in enumerate(coef)) for j in range(n)]
    elif kind == "duplicate" and m > 1:
        M[-1] = list(M[rng.randrange(m - 1)])
    elif kind == "zero":
        M[rng.randrange(m)] = [Fraction(0)] * n
    elif kind == "negative":
        M[0][0] = -abs(M[0][0]) or Fraction(-3, 2)
    return mat(M)


def test_elimination_kernel_equals_fraction_elimination_on_random_matrices(monkeypatch):
    rng = random.Random(2029)
    inconsistent = singular = regular = 0
    for _ in range(400):
        M = _random_matrix(rng)
        m, n = M.shape
        if rng.random() < 0.5:  # consistent right-hand side
            x = [_random_rational(rng, -3, 3) for _ in range(n)]
            b = [sum(M[i, j] * x[j] for j in range(n)) for i in range(m)]
        else:
            b = [_random_rational(rng, -4, 4) for _ in range(m)]
        got = _same_as_reference(monkeypatch, M, b)
        inconsistent += got[3] is None
        if m == n:
            singular += isinstance(got[4], tuple)
            regular += not isinstance(got[4], tuple)
    assert min(inconsistent, singular, regular) >= 30


def test_elimination_kernel_equals_fraction_elimination_on_every_omega(monkeypatch):
    """Every labelled pi for d <= 4, and for d = 5 every pi up to relabelling."""
    pis = [pi for d in (2, 3, 4) for pi in all_irreducible(d)] + list(all_irreducible(5, top_identity_only=True))
    assert len(pis) == 2 + 18 + 312 + 71
    for k, pi in enumerate(pis):
        om = omega_matrix(pi)
        if k % 2:  # consistent right-hand side
            b = list(matvec(om, [Fraction(j + 1, 2) for j in range(pi.d)]))
        else:
            b = [int(j == 0) for j in range(pi.d)]
        _same_as_reference(monkeypatch, om, b)
