"""Acceptance suite: one test per criterion, each printing a PASS line.

The pools of sampled scenarios are session-scoped so the dual-Roth-passing
samples are shared between the dual Hoelder bound and the distributional
convergence criteria.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ietkz.birkhoff import (
    HORIZONTAL,
    VERTICAL,
    PiecewiseConstantVector,
    boundary,
    dual_decomposition,
    dual_holder_profile,
    dual_sum,
    match_cycles,
    special_sum,
)
from ietkz.combinatorics import (
    BOTTOM,
    TOP,
    CombinatorialData,
    all_irreducible,
    arrow,
    build_diagram,
    elementary_matrix,
    omega_matrix,
    path_matrix,
    singular_structure,
)
from ietkz.cones import absolute_cone_rays, cone_contraction, standard_witness, subspace_basis
from ietkz.diophantine import dual_roth_profiles, length_diagnostics
from ietkz.errors import (
    ConnectionHit,
    HorizontalDegenerate,
    InsufficientTrajectory,
    InvalidLengths,
    NotSuspensionVector,
    SubspaceMismatch,
)
from ietkz.induction import (
    ABSOLUTE_CONE,
    DUAL_COMPLETE,
    Steps,
    ZorichSteps,
    accelerated_times,
    canonical_tau,
    forward_step,
    h_profile,
    make_state,
    run,
    run_window,
    visit_words,
)
from ietkz.limitshape import (
    FourierTestFunction,
    central_sequence_from_vector,
    correct_characteristic,
    estimated_central_vector,
    fit_slope,
    omega_graph,
    pair_test,
    refinement_check,
    splitting_estimate,
    uncorrected_transport,
)
from ietkz.numerics import Quadratic, certified_sign, exact_log, in_span, to_float
from ietkz.oracle import visit_counts
from ietkz.scenario import sample_rational_lengths, sample_rational_suspension

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
PHI = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
ONE = Quadratic(1, 0, 5)


def report(num: int, name: str, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} PASS {name}" + (f" ({detail})" if detail else ""))


def _random_irreducible(d: int, rng: random.Random) -> CombinatorialData:
    letters = tuple("ABCDEFGH"[:d])
    while True:
        top = list(letters)
        bottom = list(letters)
        rng.shuffle(top)
        rng.shuffle(bottom)
        pi = CombinatorialData(letters, tuple(top), tuple(bottom))
        try:
            from ietkz.combinatorics import validate_pi

            validate_pi(pi)
            return pi
        except Exception:
            continue


def _rational_forward_sample(d: int, rng: random.Random, steps: int):
    while True:
        pi = _random_irreducible(d, rng)
        lam = sample_rational_lengths(pi, rng)
        st = make_state(pi, lam)
        try:
            return pi, run(st, "forward", Steps(steps))
        except ConnectionHit:
            continue


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence


def test_acceptance_01_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(101)
    scenarios = 0
    while scenarios < 50:
        d = rng.choice([2, 3, 4, 5])
        pi, traj = _rational_forward_sample(d, rng, 15)
        pairs = [(0, traj.n_max)]
        a = rng.randint(0, 7)
        b = rng.randint(a, 15)
        pairs.append((a, b))
        for n_lo, n_hi in pairs:
            counts, words = visit_counts(traj, n_lo, n_hi)
            assert (counts == traj.matrix(n_lo, n_hi)).all()
            assert words == visit_words(traj, n_lo, n_hi)
        scenarios += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    report(1, "oracle equivalence", f"50 scenarios in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: symplecticity and boundary invariance


def _all_class_seeds(d: int):
    """Every Rauzy class has a representative with identity top row up to
    alphabet relabeling, under which all checked invariants are equivariant."""
    seen = set()
    for pi in all_irreducible(d, top_identity_only=(d >= 5)):
        if pi.key() in seen:
            continue
        diag = build_diagram(pi)
        seen.update(v.key() for v in diag.vertices)
        yield diag


def test_acceptance_02_symplectic_and_boundary():
    arrows = 0
    for d in (2, 3, 4, 5):
        for diag in _all_class_seeds(d):
            for a in diag.arrows:
                B = elementary_matrix(a)
                assert (B @ omega_matrix(a.source) @ B.T == omega_matrix(a.target)).all()
                arrows += 1
    rng = random.Random(7)
    tested = 0
    while tested < 100:
        d = rng.choice([2, 3, 4])
        pi, traj = _rational_forward_sample(d, rng, 10)
        chi = PiecewiseConstantVector(
            0, HORIZONTAL, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d))
        )
        b0 = boundary(chi, traj.state(0))
        assert sum(b0) == 0
        n = rng.randint(1, 10)
        bn = boundary(special_sum(chi, traj, n), traj.state(n))
        perm = match_cycles(traj, 0, n)
        assert all(certified_sign(bn[perm[i]] - b0[i]) == 0 for i in range(len(b0)))
        tested += 1
    report(2, "symplecticity and boundary invariance", f"{arrows} arrows, 100 transports")


# ---------------------------------------------------------------------------
# criterion 3: structure formulas for d <= 6


def test_acceptance_03_structure_formulas():
    t0 = time.time()
    vertices = 0
    for d in (2, 3, 4, 5, 6):
        for diag in _all_class_seeds(d):
            for pi in diag.vertices:
                st = singular_structure(pi)  # internal rank/cycle cross-check
                assert pi.d == 2 * st.g + st.s - 1
                vertices += 1
    report(3, "structure formulas", f"{vertices} vertices in {time.time()-t0:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: golden-rotation growth rate


def test_acceptance_04_golden_growth_rate():
    t0 = time.time()
    st = make_state(ROT2, (PHI, ONE))
    traj = run(st, "forward", ZorichSteps(40))
    xs, ys = [], []
    for n in traj.levels():
        z = traj.zorich_time(n)
        if z >= 10:
            xs.append(z)
            ys.append(exact_log(traj.norm(0, n)))
    # one point per Zorich time
    seen = {}
    for x, y in zip(xs, ys):
        seen.setdefault(x, y)
    slope = fit_slope(list(seen.keys()), list(seen.values()))
    target = math.log((1 + 5**0.5) / 2)
    assert abs(slope - target) <= 0.01, f"slope {slope:.4f} vs {target:.4f}"
    assert time.time() - t0 < 5.0
    report(4, "golden growth rate", f"slope {slope:.4f} ~ log(phi) {target:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: backward engine


def _broad_suspension(pi, rng, den=104729):
    """tau sampled across the whole suspension cone, not just near the
    canonical vector (near-canonical data has huge backward partial
    quotients, which only obscures the checks here)."""
    while True:
        tau = tuple(Fraction(rng.randint(-3 * den, 3 * den), den) for _ in pi.letters)
        try:
            make_state(pi, tuple(Fraction(1) for _ in pi.letters), tau)
        except (NotSuspensionVector, InvalidLengths):
            continue
        if sum(tau) != 0:
            return tau


def test_acceptance_05_backward_engine():
    rng = random.Random(55)
    done = 0
    extended = 0
    while done < 20:
        d = rng.choice([2, 3, 4])
        pi = _random_irreducible(d, rng)
        lam = sample_rational_lengths(pi, rng)
        tau = _broad_suspension(pi, rng)
        try:
            st = make_state(pi, lam, tau)
            traj = run(st, "backward", Steps(30))
        except (HorizontalDegenerate, NotSuspensionVector, InvalidLengths):
            continue
        hs = [h_profile(traj.state(n))[2] for n in range(traj.n_min, 1)]
        assert all(certified_sign(a - b) < 0 for a, b in zip(hs, hs[1:]))
        try:
            accelerated_times(traj, DUAL_COMPLETE)
        except InsufficientTrajectory:
            # completeness is only eventual; extend this sample's window
            # until its first block closes (the horizon reading of the
            # completeness proposition)
            extended += 1
            deep = None
            for depth in (60, 120, 240, 480):
                try:
                    deep = run(st, "backward", Steps(depth))
                    accelerated_times(deep, DUAL_COMPLETE)
                    break
                except InsufficientTrajectory:
                    deep = None
                except HorizontalDegenerate as exc:
                    deep = exc.trajectory
                    accelerated_times(deep, DUAL_COMPLETE)
                    break
            assert deep is not None, f"no complete block before degeneration for {pi!r}"
        for n in range(traj.n_min, 0):
            redone, a = forward_step(traj.state(n))
            nxt = traj.state(n + 1)
            assert redone.pi == nxt.pi
            assert all(certified_sign(x - y) == 0 for x, y in zip(redone.lam, nxt.lam))
            assert all(certified_sign(x - y) == 0 for x, y in zip(redone.tau, nxt.tau))
        done += 1
    report(5, "backward engine", f"20 samples; {extended} needed windows beyond 30 steps")


# ---------------------------------------------------------------------------
# criterion 6: dual operators


def test_acceptance_06_dual_operators():
    rng = random.Random(66)
    samples = [make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))]
    while len(samples) < 4:
        pi = _random_irreducible(3, rng)
        try:
            st = make_state(
                pi, sample_rational_lengths(pi, rng), sample_rational_suspension(pi, rng, den=104729)
            )
            run(st, "backward", Steps(12))
            samples.append(st)
        except (HorizontalDegenerate, NotSuspensionVector, InvalidLengths):
            continue
    for st in samples:
        traj = run(st, "backward", Steps(12))
        d = st.d
        psi = PiecewiseConstantVector(
            0, VERTICAL, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))
        )
        n_prime = traj.n_min
        out = dual_sum(psi, traj, n_prime)
        B = traj.matrix(n_prime, 0)
        expect = tuple(sum(B[i, j] * psi.values[i] for i in range(d)) for j in range(d))
        assert all(certified_sign(a - b) == 0 for a, b in zip(out.values, expect))
        assert certified_sign(out.integral(traj.state(n_prime)) - psi.integral(traj.state(0))) == 0
        mid = n_prime // 2
        comp = dual_sum(dual_sum(psi, traj, mid), traj, n_prime)
        assert all(certified_sign(a - b) == 0 for a, b in zip(comp.values, out.values))
        qn = traj.state(0).heights()
        for alpha in st.pi.letters:
            dec = dual_decomposition(traj, n_prime, 0, alpha)
            assert certified_sign(dec.total - qn[st.pi.index(alpha)]) == 0
    report(6, "dual operators", f"{len(samples)} scenarios")


# ---------------------------------------------------------------------------
# shared pool of dual-Roth-passing samples (criteria 7 and 9)


@pytest.fixture(scope="module")
def dual_roth_pool():
    pool = []
    # bounded-type rotations over several quadratic fields
    for D in (2, 3, 5, 6, 7, 10, 13):
        lam = (Quadratic(1, 1, D), Quadratic(1, 0, D))
        tau = (Quadratic(1, 0, D), Quadratic(Fraction(-1), Fraction(1, 4), D))
        try:
            st = make_state(ROT2, lam, tau)
            traj = run(st, "backward", Steps(150))
            prof = dual_roth_profiles(traj, tol=0.2)
            times = accelerated_times(traj, DUAL_COMPLETE)
        except (HorizontalDegenerate, NotSuspensionVector, InvalidLengths, InsufficientTrajectory):
            continue
        if prof.passes and len(times) >= 9:
            pool.append({"state": st, "traj": traj, "profile": prof, "times": times, "d": 2})
    # genus-one three-interval samples with quadratic suspension data
    rng = random.Random(99)
    pis = list(all_irreducible(3, top_identity_only=True))
    trials = 0
    while (len(pool) < 10 or sum(1 for s in pool if s["d"] == 3) < 6) and trials < 300:
        trials += 1
        pi = rng.choice(pis)
        D = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        lam = tuple(Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97)) for _ in pi.letters)
        tau = tuple(
            Quadratic(b, Fraction(rng.randint(-400, 400), 9973), D) for b in canonical_tau(pi)
        )
        try:
            st = make_state(pi, lam, tau)
            traj = run(st, "backward", Steps(260))
            prof = dual_roth_profiles(traj, tol=0.2)
            times = accelerated_times(traj, DUAL_COMPLETE)
        except (HorizontalDegenerate, NotSuspensionVector, InvalidLengths, InsufficientTrajectory):
            continue
        if not (prof.passes and len(times) >= 9):
            continue
        if traj.norm(times[8], 0) > 3 * 10**7:
            continue  # keep the eight-block window affordable
        pool.append({"state": st, "traj": traj, "profile": prof, "times": times, "d": 3})
    assert len(pool) >= 10, f"only {len(pool)} dual-Roth-passing samples found"
    return pool


def test_acceptance_07_dual_holder_bound(dual_roth_pool):
    rng = random.Random(77)
    eta = 0.5
    for sample in dual_roth_pool[:10]:
        traj = sample["traj"]
        prof = sample["profile"]
        times = sample["times"]
        theta = prof.theta_estimate
        assert theta is not None and theta > 0
        st0 = traj.state(0)
        alpha_star = st0.pi.letters[0]
        q0 = st0.heights()
        L = float(to_float(q0[st0.pi.index(alpha_star)]))
        psi = FourierTestFunction.random(L, eta, 3, rng)
        levels = times[1:9]
        profile = dual_holder_profile(traj, levels, psi, alpha_star, grid=4)
        exponent = 1 - theta * eta / 20
        ks = list(range(len(profile)))
        ys = [math.log(max(row["sup"], 1e-12)) - exponent * row["log_norm"] for row in profile]
        slope = fit_slope(ks, ys)
        assert slope <= 0.05, f"trend slope {slope:.3f} for {sample['state'].pi!r}"
    report(7, "dual Hoelder bound", f"{len(dual_roth_pool[:10])} samples, 8 blocks each")


# ---------------------------------------------------------------------------
# criterion 8: limit-shape refinement identities


def test_acceptance_08_refinement_identities():
    rng = random.Random(88)
    scenarios = []
    for D in (2, 3, 5, 6, 7):
        lam = (Quadratic(1, 1, D), Quadratic(1, 0, D))
        tau = (Quadratic(1, 0, D), Quadratic(Fraction(-1), Fraction(1, 4), D))
        scenarios.append(make_state(ROT2, lam, tau))
    while len(scenarios) < 10:
        pi = _random_irreducible(rng.choice([3, 4]), rng)
        try:
            st = make_state(
                pi, sample_rational_lengths(pi, rng), sample_rational_suspension(pi, rng, den=104729)
            )
            run(st, "backward", Steps(9))
            scenarios.append(st)
        except (HorizontalDegenerate, NotSuspensionVector, InvalidLengths):
            continue
    checked = 0
    for st in scenarios:
        traj = run_window(st, back=9, fwd=1)
        d = st.d
        chi0 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
        chi = central_sequence_from_vector(traj, chi0, (-9, 1))
        for n_prime, n in ((-4, -2), (-8, -3), (-9, -9)):
            for alpha in st.pi.letters:
                rep = refinement_check(traj, chi, n_prime, n, alpha)
                assert rep.constant_offsets_exact, (st.pi, n_prime, n, alpha, rep.max_offset_dev)
                assert rep.copies_exact, (st.pi, n_prime, n, alpha, rep.max_copy_dev)
                checked += 1
    report(8, "limit-shape refinement identities", f"{checked} exact (n', n, alpha) checks")


# ---------------------------------------------------------------------------
# criterion 9: distributional convergence


def test_acceptance_09_distributional_convergence(dual_roth_pool):
    rng = random.Random(909)
    tested = 0
    for sample in dual_roth_pool:
        if sample["d"] < 3:
            continue  # central directions need more than one singularity
        st = sample["state"]
        t0 = time.time()
        traj = run_window(st, back=80, fwd=24)
        times = accelerated_times(traj, DUAL_COMPLETE)
        levels = [t for t in times if t >= traj.n_min and traj.norm(t, 0) <= 40000]
        if len(levels) < 5:
            continue
        est = splitting_estimate(traj)
        if not est.trusted:
            continue
        chi = central_sequence_from_vector(
            traj, estimated_central_vector(traj, est), (min(levels), 2)
        )
        alpha = st.pi.letters[0]
        graphs = [omega_graph(traj, chi, n, alpha) for n in levels]
        g0 = graphs[levels.index(0)]
        psi = FourierTestFunction.random(float(to_float(g0.total)), 0.5, 4, rng)
        rep = pair_test(traj, graphs, psi)
        assert rep.slope is not None and rep.slope <= -0.05, rep.slope
        assert rep.differences[-1] < rep.differences[0]
        assert time.time() - t0 < 300.0
        tested += 1
    assert tested >= 3, f"only {tested} convergence scenarios"
    report(9, "distributional convergence", f"{tested} scenarios, slope <= -0.05")


# ---------------------------------------------------------------------------
# criterion 10: correction separation


def test_acceptance_10_correction_separation():
    rng = random.Random(1010)
    done = 0
    fields = [2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 21, 23]
    for D in fields:
        if done >= 10:
            break
        lam = (Quadratic(1, 1, D), Quadratic(1, 0, D))
        tau = (Quadratic(1, 0, D), Quadratic(Fraction(-1), Fraction(1, 8 if D > 13 else 4), D))
        try:
            st = make_state(ROT2, lam, tau)
            traj = run_window(st, back=24, fwd=24)
        except (HorizontalDegenerate, NotSuspensionVector, InvalidLengths):
            continue
        est = splitting_estimate(traj)
        if not est.trusted or min(est.gap_forward, est.gap_backward) < 10:
            continue
        xi0 = traj.state(0).total_length() * Fraction(rng.randint(2, 9), 23)
        cc = correct_characteristic(traj, xi0, est=est)
        assert cc.check_transport()
        inner = list(range(4, 19))
        xs = [abs(traj.zorich_time(n)) for n in inner]
        top_slope = fit_slope(xs, [exact_log(traj.norm(0, n)) for n in inner])
        corrected = cc.sup_slope(inner)
        bare = fit_slope(
            xs, [math.log(max(uncorrected_transport(traj, cc.xi, n), 1.0)) for n in inner]
        )
        assert corrected <= 0.1 * top_slope, (D, corrected, top_slope)
        assert bare >= 0.8 * top_slope, (D, bare, top_slope)
        done += 1
    assert done >= 10, f"only {done} well-gapped samples"
    report(10, "correction separation", f"{done} samples, gaps >= 10")


# ---------------------------------------------------------------------------
# criterion 11: cone machinery


def test_acceptance_11_cone_machinery():
    vertices = 0
    for d in (2, 3, 4, 5):
        for diag in _all_class_seeds(d):
            for pi in diag.vertices:
                w = standard_witness(pi)
                assert all(certified_sign(x) > 0 for x in w)
                assert in_span(subspace_basis(pi), w)
                vertices += 1
    # contraction gate versus the brute closed-cone definition
    rng = random.Random(1111)
    diag3 = build_diagram(CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"]))
    checked = 0
    while checked < 100:
        pi = diag3.vertices[rng.randrange(len(diag3.vertices))]
        cur = pi
        path = []
        for _ in range(rng.randint(1, 10)):
            a = arrow(cur, rng.choice([TOP, BOTTOM]))
            path.append(a)
            cur = a.target
        B = path_matrix(path)
        try:
            gate = cone_contraction(B, pi, cur)
        except SubspaceMismatch:
            continue
        rays = absolute_cone_rays(pi).rays
        samples = [np.array(r, dtype=object) for r in rays]
        for _ in range(20):
            coeffs = [Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in rays]
            if all(c == 0 for c in coeffs):
                continue
            v = sum((c * r for c, r in zip(coeffs, samples)), np.zeros(3, dtype=object))
            samples.append(v)
        brute = True
        for v in samples:
            if all(x == 0 for x in v):
                continue
            img = [sum(B[i, j] * v[j] for j in range(3)) for i in range(3)]
            if not all(certified_sign(x) > 0 for x in img):
                brute = False
                break
        assert gate == brute
        checked += 1
    report(11, "cone machinery", f"{vertices} witnesses, 100 contraction gates")


# ---------------------------------------------------------------------------
# criterion 12: series and growth diagnostics


def test_acceptance_12_series_growth():
    samples = []
    for D in (2, 3, 5):
        samples.append(make_state(ROT2, (Quadratic(1, 1, D), Quadratic(1, 0, D))))
    for st in samples:
        traj = run(st, "forward", Steps(34))
        rep = length_diagnostics(traj, tau_tol=0.5)
        assert rep.partition_exact
        tail = rep.series["tail_over_first"]
        usable = tail[: max(1, len(tail) - 3)]
        assert all(row["ratio"] <= 3.0 for row in usable)
        head = rep.series["head_over_last"]
        assert all(row["ratio"] <= 3.0 for row in head)
        assert all(row["exact_first"] for row in rep.series["sandwich"])
    report(12, "series and growth diagnostics", f"{len(samples)} bounded-type samples")
