from fractions import Fraction

import pytest

from ietkz import homology
from ietkz.combinatorics import CombinatorialData
from ietkz.errors import ConsistencyFailure, NotMeanZero, RequiresMultipleSingularities
from ietkz.homology import (
    BACKWARD,
    DUAL_FORWARD,
    BrokenLine,
    broken_line,
    boundary_section,
    kz_diagnostics,
    project_graph,
    relative_class_from_level0,
    substitution_words,
)
from ietkz.induction import make_state, run_window
from ietkz.limitshape import central_sequence_from_vector, omega_graph, splitting_estimate
from ietkz.numerics import Quadratic, certified_sign, to_float
from ietkz.oracle import IEMap

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
REV3 = CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"])

PHI = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
ONE = Quadratic(1, 0, 5)


def golden_window(back=14, fwd=14):
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    return run_window(st, back=back, fwd=fwd)


def rev3_window(back=22, fwd=22):
    tau = (
        Fraction(2) + Fraction(3049, 10007),
        Fraction(1, 11),
        Fraction(-2) + Fraction(5, 10007),
    )
    st = make_state(REV3, (Fraction(104729), Fraction(75541), Fraction(42649)), tau)
    return run_window(st, back=back, fwd=fwd)


def test_words_at_level_zero_are_single_letters():
    traj = golden_window(4, 4)
    for direction in (BACKWARD, DUAL_FORWARD):
        words = substitution_words(traj, 0, direction)
        assert words == {"A": ["A"], "B": ["B"]}


def test_backward_words_are_fibonacci_with_matching_counts():
    traj = golden_window(10, 2)
    for n in (-1, -3, -6):
        words = substitution_words(traj, n, BACKWARD)
        B = traj.matrix(n, 0)
        for alpha in ROT2.letters:
            i = ROT2.index(alpha)
            for beta in ROT2.letters:
                j = ROT2.index(beta)
                assert words[alpha].count(beta) == int(B[i, j])
        total = sum(len(w) for w in words.values())
        assert total == sum(int(x) for x in B.ravel())


def test_dual_forward_word_counts_are_transpose():
    traj = golden_window(2, 10)
    for n in (1, 4, 7):
        words = substitution_words(traj, n, DUAL_FORWARD)
        B = traj.matrix(0, n)
        for alpha in ROT2.letters:
            i = ROT2.index(alpha)
            for beta in ROT2.letters:
                j = ROT2.index(beta)
                # count of beta in the strip word of alpha is B(0,n)[beta, alpha]
                assert words[alpha].count(beta) == int(B[j, i])


def test_dual_forward_words_match_oracle_strip_order():
    # the strips of I_alpha^(0), read left to right, are found by pulling
    # each midpoint back to its first entry into I^(n)
    traj = rev3_window(back=2, fwd=8)
    n = 6
    words = substitution_words(traj, n, DUAL_FORWARD)
    st0 = traj.state(0)
    stn = traj.state(n)
    T0 = IEMap(st0.pi, st0.lam)
    total_n = stn.total_length()
    lam_n = stn.lam
    for alpha in st0.pi.letters:
        # strip widths in order are the lengths of the word letters
        word = words[alpha]
        lo = st0.lam[0] - st0.lam[0]
        for b in st0.pi.top:
            if b == alpha:
                break
            lo = lo + st0.lam[st0.pi.index(b)]
        pos = lo
        for b in word:
            width = lam_n[stn.pi.index(b)]
            mid = pos + width / 2
            x = mid
            for _ in range(10**5):
                if certified_sign(total_n - x) > 0:
                    break
                x = T0.apply_inverse(x)
            # first entry lands in the level-n interval of the word letter
            Tn = IEMap(stn.pi, stn.lam)
            assert Tn.letter_of(x) == b
            pos = pos + width
        assert certified_sign(pos - (lo + st0.lam[st0.pi.index(alpha)])) == 0


def test_broken_line_backward_vertices():
    traj = golden_window(10, 2)
    n = -6
    for alpha in ROT2.letters:
        line = broken_line(traj, n, alpha, BACKWARD)
        B = traj.matrix(n, 0)
        i = ROT2.index(alpha)
        assert line.vertices[0].tolist() == [0, 0]
        assert line.vertices[-1].tolist() == [int(B[i, 0]), int(B[i, 1])]
        assert len(line.vertices) == int(sum(B[i, :])) + 1
        # p_v increments are the level-n heights of the word letters
        steps = line.horizontal_steps(traj)
        q = traj.state(n).heights()
        for b, w in zip(line.letters, steps):
            assert w == q[traj.state(n).pi.index(b)]


def test_broken_line_dual_forward_steps_are_lengths():
    traj = golden_window(2, 8)
    line = broken_line(traj, 5, "A", DUAL_FORWARD)
    lam = traj.state(5).lam
    for b, w in zip(line.letters, line.horizontal_steps(traj)):
        assert w == lam[traj.state(5).pi.index(b)]
    B = traj.matrix(0, 5)
    i = ROT2.index("A")
    assert line.vertices[-1].tolist() == [int(B[j, i]) for j in range(2)]


def test_backward_vertex_nesting():
    traj = golden_window(10, 2)
    fine = broken_line(traj, -7, "A", BACKWARD)
    coarse = broken_line(traj, -4, "A", BACKWARD)
    # coarse vertices, transported to the finer basis, appear among fine ones
    B = traj.matrix(-7, -4)
    fine_set = {tuple(int(x) for x in v) for v in fine.vertices}
    for v in coarse.vertices:
        # basis change theta^(n) = B(m,n) theta^(m) pulls coordinates back
        # through the transpose
        moved = tuple(int(sum(v[i] * B[i, j] for i in range(2))) for j in range(2))
        assert moved in fine_set


def test_project_graph_matches_omega_graph_up_to_constant():
    traj = golden_window(12, 2)
    chi = central_sequence_from_vector(traj, (Fraction(1), Fraction(-2)), (-10, 1))
    n, alpha = -6, "A"
    g_omega = omega_graph(traj, chi, n, alpha)
    line = broken_line(traj, n, alpha, BACKWARD)
    g_proj = project_graph(traj, line, chi.vector(n))
    assert len(g_omega.breakpoints) == len(g_proj.breakpoints)
    diffs = {to_float(a - b) for a, b in zip(g_omega.values, g_proj.values)}
    assert max(diffs) - min(diffs) < 1e-12  # constant vertical shift
    for a, b in zip(g_omega.breakpoints, g_proj.breakpoints):
        assert certified_sign(a - b) == 0


def test_project_graph_flat_for_zero_class():
    traj = golden_window(8, 2)
    line = broken_line(traj, -5, "B", BACKWARD)
    g = project_graph(traj, line, (Fraction(0), Fraction(0)))
    assert all(certified_sign(v) == 0 for v in g.values)


def test_project_graph_span_is_prefix_sum_range():
    traj = golden_window(8, 2)
    line = broken_line(traj, -5, "A", BACKWARD)
    chi_n = (Fraction(3), Fraction(-2))
    g = project_graph(traj, line, chi_n)
    st = traj.state(-5)
    prefix = [Fraction(0)]
    for b in line.letters:
        prefix.append(prefix[-1] + chi_n[st.pi.index(b)])
    assert max(g.values) == max(prefix) and min(g.values) == min(prefix)


def test_boundary_section_zero_upsilon():
    traj = rev3_window()
    rep = boundary_section(traj, (Fraction(0), Fraction(0)), direction="positive")
    assert all(x == 0 for x in rep.chi0)
    assert rep.boundary_exact


def test_boundary_section_exact_boundary_and_moderate_growth():
    traj = rev3_window()
    rep = boundary_section(traj, (Fraction(1), Fraction(-1)), direction="positive")
    assert rep.boundary_exact
    assert rep.slope is not None and rep.slope < 0.5  # far below first-exponent growth
    rep_neg = boundary_section(traj, (Fraction(1), Fraction(-1)), direction="negative")
    assert rep_neg.boundary_exact


def test_boundary_section_linearity_of_boundaries():
    traj = rev3_window()
    u1 = (Fraction(1), Fraction(-1))
    u2 = (Fraction(2), Fraction(-2))
    r1 = boundary_section(traj, u1, direction="positive")
    r2 = boundary_section(traj, u2, direction="positive")
    r12 = boundary_section(traj, tuple(a + b for a, b in zip(u1, u2)), direction="positive")
    combo = tuple(a + b - c for a, b, c in zip(r1.chi0, r2.chi0, r12.chi0))
    cls = relative_class_from_level0(traj, combo)
    assert all(x == 0 for x in cls.boundary(0))


def test_boundary_section_requires_multiple_singularities():
    traj = golden_window()
    with pytest.raises(RequiresMultipleSingularities):
        boundary_section(traj, (Fraction(0),))


def test_boundary_section_rejects_nonzero_sum_target():
    traj = rev3_window(back=4, fwd=4)
    with pytest.raises(NotMeanZero):
        boundary_section(traj, (Fraction(1), Fraction(0)), allow_untrusted=True)


def test_boundary_section_infeasible_system_is_a_consistency_failure(monkeypatch):
    # the boundary maps onto the zero-sum hyperplane, so an infeasible
    # system for a zero-sum target can only come from a bug
    monkeypatch.setattr(homology, "min_sup_norm_solution", lambda A, b: None)
    traj = rev3_window(back=4, fwd=4)
    with pytest.raises(ConsistencyFailure):
        boundary_section(traj, (Fraction(1), Fraction(-1)), allow_untrusted=True)


def test_kz_diagnostics_golden():
    traj = golden_window(16, 16)
    rep = kz_diagnostics(traj)
    assert rep.dims == (1, 1) and rep.genus == 1
    assert rep.trusted
    for key, ratio in rep.tail_ratios.items():
        assert ratio < 1.0, key
    assert rep.direct_sum_condition < 50


def test_graphs_mod_unstable_stay_close():
    # adding an (estimated) unstable vector changes the graphs by a
    # uniformly bounded amount while the graphs themselves grow
    traj = rev3_window()
    est = splitting_estimate(traj)
    u = est.unstable[:, 0]
    u_exact = tuple(Fraction(float(x)).limit_denominator(10**9) for x in u)
    chi0 = (Fraction(1), Fraction(-1), Fraction(1))
    chi0_prime = tuple(a + b for a, b in zip(chi0, u_exact))
    cls = relative_class_from_level0(traj, chi0)
    cls_p = relative_class_from_level0(traj, chi0_prime)
    sup_diff = []
    spans = []
    for n in (-4, -8, -12, -16):
        line = broken_line(traj, n, "A", BACKWARD)
        g = project_graph(traj, line, cls.at(n))
        gp = project_graph(traj, line, cls_p.at(n))
        sup_diff.append(max(abs(to_float(a - b)) for a, b in zip(g.values, gp.values)))
        spans.append(to_float(max(g.values) - min(g.values)))
    assert spans[-1] > 2 * spans[0]
    assert max(sup_diff) < 1.0
