import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ietkz.combinatorics import CombinatorialData
from ietkz.errors import NotMeanZero, SingularPoint
from ietkz.induction import DUAL_COMPLETE, accelerated_times, make_state, run_window
from ietkz.limitshape import (
    CentralSequence,
    FourierTestFunction,
    central_sequence_from_vector,
    correct_characteristic,
    estimated_central_vector,
    fit_slope,
    omega_graph,
    pair_test,
    pairing,
    perron_heights,
    refinement_check,
    splitting_estimate,
    uncorrected_transport,
)
from ietkz.numerics import Quadratic, certified_sign, exact_log, to_float

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
REV3 = CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"])

PHI = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
ONE = Quadratic(1, 0, 5)


def golden_window(back=16, fwd=16):
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    return run_window(st, back=back, fwd=fwd)


def rev3_window(back=24, fwd=12, num=3049, den=10007):
    tau = (
        Fraction(2) + Fraction(num, den),
        Fraction(1, 11),
        Fraction(-2) + Fraction(5, 10007),
    )
    st = make_state(REV3, (Fraction(104729), Fraction(75541), Fraction(42649)), tau)
    return run_window(st, back=back, fwd=fwd)


def test_splitting_dims_and_gap_growth_golden():
    traj = golden_window()
    est = splitting_estimate(traj)
    assert est.dims == (1, 1, 0)
    est_small = splitting_estimate(traj, window=(-4, 4))
    assert est.gap_forward > est_small.gap_forward  # gap grows with the window
    assert est.trusted


def test_splitting_dims_match_singular_structure_rev3():
    traj = rev3_window(back=24, fwd=28)
    est = splitting_estimate(traj)
    assert est.dims == (1, 1, 1)
    # finite-horizon estimate sits close to the exact ambient subspace
    assert est.subspace_residual < 0.01


def test_stable_vectors_decay_under_forward_cocycle():
    traj = golden_window()
    est = splitting_estimate(traj)
    v = est.stable[:, 0]
    Bf = np.array([[float(x) for x in row] for row in traj.matrix(0, traj.n_max)])
    ratio = np.linalg.norm(Bf @ v) / np.linalg.norm(Bf)
    assert ratio < 1e-4


def test_central_sequence_transport_is_exact():
    traj = golden_window(10, 10)
    chi = central_sequence_from_vector(traj, (Fraction(1), Fraction(-1)), (-8, 8))
    assert chi.check_transport()


def test_corrected_characteristic_consistency_and_separation():
    traj = golden_window(14, 14)
    xi0 = traj.state(0).total_length() / 7
    cc = correct_characteristic(traj, xi0)
    assert cc.check_transport()
    # the corrected sup norms grow much slower than the bare transport
    inner = [n for n in range(2, 11)]
    corrected_slope = cc.sup_slope(inner)
    xs = [abs(traj.zorich_time(n)) for n in inner]
    ys = [math.log(max(uncorrected_transport(traj, cc.xi, n), 1.0)) for n in inner]
    bare_slope = fit_slope(xs, ys)
    top_slope = fit_slope(xs, [exact_log(traj.norm(0, n)) for n in inner])
    assert bare_slope > 0.8 * top_slope > 0
    assert corrected_slope < 0.2 * top_slope


def test_corrected_characteristic_rejects_singular_point():
    traj = golden_window(6, 6)
    st = traj.state(0)
    with pytest.raises(SingularPoint):
        correct_characteristic(traj, st.lam[0])  # u_1^t exactly


def test_perron_heights_example_and_identity():
    # rational suspension data survives exactly one backward step here
    st = make_state(ROT2, (Fraction(5), Fraction(3)), (Fraction(1), Fraction(-1, 2)))
    traj = run_window(st, back=1, fwd=0)
    unit, thetas, q0 = perron_heights(traj)
    assert q0 == (Fraction(1, 2), Fraction(1))
    norm = math.sqrt(1.25)
    assert unit[0] == pytest.approx(0.5 / norm) and unit[1] == pytest.approx(1.0 / norm)
    assert thetas[0] == pytest.approx(1.0)
    assert all(thetas[n] <= 1.0 + 1e-12 for n in thetas)


def test_theta_slope_positive_golden():
    traj = golden_window(20, 2)
    _, thetas, _ = perron_heights(traj)
    xs = [abs(traj.zorich_time(n)) for n in sorted(thetas) if n < 0]
    ys = [math.log(thetas[n]) for n in sorted(thetas) if n < 0]
    slope = -fit_slope(xs, ys)  # backward contraction rate = top exponent
    assert slope > 0.3  # log(golden ratio) is about 0.481


def golden_chi(traj, window):
    return central_sequence_from_vector(traj, (Fraction(1), Fraction(-2)), window)


def test_omega_graph_level_zero_single_segment():
    traj = golden_window(10, 2)
    chi = golden_chi(traj, (-8, 1))
    g = omega_graph(traj, chi, 0, "A")
    assert len(g.breakpoints) == 2
    assert certified_sign(g.integral()) == 0
    # endpoint difference equals the level-0 value
    assert g.values[-1] - g.values[0] == Fraction(1)


def test_omega_graph_breakpoint_count_and_endpoint_identity():
    traj = golden_window(12, 2)
    chi = golden_chi(traj, (-10, 1))
    for n in (-3, -6, -9):
        for alpha in ("A", "B"):
            g = omega_graph(traj, chi, n, alpha)
            B = traj.matrix(n, 0)
            i = ROT2.index(alpha)
            assert len(g.breakpoints) == int(sum(B[i, :])) + 1
            chi0 = chi.vector(0)
            assert g.values[-1] - g.values[0] == chi0[i]
            assert certified_sign(g.integral()) == 0


def test_omega_graph_mean_zero_exact():
    traj = rev3_window(back=16, fwd=2)
    est = splitting_estimate(traj)
    chi = central_sequence_from_vector(traj, estimated_central_vector(traj, est), (-14, 1))
    for n in (-4, -9):
        for alpha in REV3.letters:
            g = omega_graph(traj, chi, n, alpha)
            assert certified_sign(g.integral()) == 0


def test_refinement_trivial_at_equal_levels():
    traj = golden_window(10, 2)
    chi = golden_chi(traj, (-8, 1))
    rep = refinement_check(traj, chi, -4, -4, "A")
    assert rep.constant_offsets_exact and rep.copies_exact


def test_refinement_identities_exact_golden():
    traj = golden_window(12, 2)
    chi = golden_chi(traj, (-10, 1))
    for alpha in ("A", "B"):
        rep = refinement_check(traj, chi, -4, -2, "B")
        assert rep.constant_offsets_exact, rep.max_offset_dev
        assert rep.copies_exact, rep.max_copy_dev
        rep = refinement_check(traj, chi, -8, -3, alpha)
        assert rep.constant_offsets_exact and rep.copies_exact


def test_refinement_vertex_nesting():
    traj = golden_window(12, 2)
    chi = golden_chi(traj, (-10, 1))
    g_coarse = omega_graph(traj, chi, -3, "A")
    g_fine = omega_graph(traj, chi, -7, "A")
    fine_bps = g_fine.breakpoints
    for x in g_coarse.breakpoints:
        assert any(certified_sign(x - y) == 0 for y in fine_bps)


def test_pairing_zero_function_gives_zeros():
    traj = golden_window(10, 2)
    chi = golden_chi(traj, (-8, 1))
    g = omega_graph(traj, chi, -5, "A")
    psi = FourierTestFunction(float(to_float(g.total)), [], 0.5)
    assert pairing(g, psi) == 0.0


def test_pairing_linearity():
    traj = golden_window(10, 2)
    chi1 = golden_chi(traj, (-8, 1))
    chi2 = central_sequence_from_vector(traj, (Fraction(0), Fraction(3)), (-8, 1))
    chi_sum = central_sequence_from_vector(traj, (Fraction(1), Fraction(1)), (-8, 1))
    n, alpha = -5, "A"
    g1 = omega_graph(traj, chi1, n, alpha)
    g2 = omega_graph(traj, chi2, n, alpha)
    gs = omega_graph(traj, chi_sum, n, alpha)
    L = float(to_float(g1.total))
    rng = random.Random(3)
    psi_a = FourierTestFunction.random(L, 0.5, 3, rng)
    psi_b = FourierTestFunction.random(L, 0.5, 3, rng)
    psi_ab = FourierTestFunction(L, psi_a.modes + psi_b.modes, 0.5)
    # additive in psi
    assert pairing(g1, psi_a) + pairing(g1, psi_b) == pytest.approx(pairing(g1, psi_ab))
    # additive in chi
    assert pairing(g1, psi_a) + pairing(g2, psi_a) == pytest.approx(pairing(gs, psi_a), abs=1e-9)


def test_pairing_rejects_wrong_period():
    traj = golden_window(8, 2)
    chi = golden_chi(traj, (-6, 1))
    g = omega_graph(traj, chi, -3, "A")
    with pytest.raises(NotMeanZero):
        pairing(g, FourierTestFunction(1.0 + float(to_float(g.total)), [(1, 1.0, 0.0)], 0.5))


def test_pair_test_decay_on_central_sequence_rev3():
    traj = rev3_window(back=26, fwd=4)
    est = splitting_estimate(traj)
    chi = central_sequence_from_vector(traj, estimated_central_vector(traj, est), (traj.n_min, 2))
    times = accelerated_times(traj, DUAL_COMPLETE)
    levels = [t for t in times if t >= traj.n_min]
    alpha = "A"
    graphs = [omega_graph(traj, chi, n, alpha) for n in levels]
    g0 = graphs[levels.index(0)]
    rng = random.Random(11)
    psi = FourierTestFunction.random(float(to_float(g0.total)), 0.5, 4, rng)
    rep = pair_test(traj, graphs, psi)
    assert rep.slope is not None and rep.slope < -0.05
    # differences trend downward along the backward sequence
    assert rep.differences[-1] < rep.differences[0]
