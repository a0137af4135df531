"""Smaller error-contract and cross-module consistency checks."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import ietkz
from ietkz.combinatorics import CombinatorialData, build_diagram
from ietkz.errors import DegenerateGap, DiagramTooLarge, LevelMismatch
from ietkz.induction import (
    ABSOLUTE_CONE,
    COMPLETE_PATHS,
    POSITIVE_MATRIX,
    NormThreshold,
    Steps,
    accelerated_times,
    make_state,
    run,
    run_window,
)
from ietkz.homology import BACKWARD, broken_line, project_graph
from ietkz.limitshape import splitting_estimate
from ietkz.numerics import Ball, Quadratic, certified_sign

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
REV4 = CombinatorialData.from_rows(["A", "B", "C", "D"], ["D", "C", "B", "A"])
PHI = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
ONE = Quadratic(1, 0, 5)


def test_diagram_cap_enforced():
    with pytest.raises(DiagramTooLarge):
        build_diagram(REV4, cap=3)


def test_norm_threshold_stop():
    st = make_state(ROT2, (PHI, ONE))
    traj = run(st, "forward", NormThreshold(500))
    assert traj.norm(0, traj.n_max) >= 500
    assert traj.norm(0, traj.n_max - 1) < 500


def test_cone_times_nest_between_positivity_times():
    # cone-contraction times are at least as frequent as positivity times:
    # between consecutive positivity times at most one extra cone block fits
    st = make_state(
        REV4,
        (Fraction(1299709), Fraction(611953), Fraction(350377), Fraction(104729)),
    )
    traj = run(st, "forward", Steps(60))
    cone_times = accelerated_times(traj, ABSOLUTE_CONE)
    pos_times = accelerated_times(traj, POSITIVE_MATRIX)
    assert cone_times[1] <= pos_times[1]
    for k in range(len(cone_times) - 1):
        n_k = cone_times[k]
        later = [t for t in pos_times if t >= n_k]
        if len(later) < 2:
            break
        # the first positivity block ending after n_k forces a cone block
        assert cone_times[k + 1] <= later[1] if k + 1 < len(cone_times) else True


def test_splitting_require_trusted_raises():
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    traj = run_window(st, back=3, fwd=3)
    with pytest.raises(DegenerateGap):
        splitting_estimate(traj, trust_threshold=1e9, require_trusted=True)
    est = splitting_estimate(traj, trust_threshold=1e9)
    assert not est.trusted  # flagged, not raised, by default


def test_project_graph_dimension_mismatch():
    st = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    traj = run_window(st, back=5, fwd=1)
    line = broken_line(traj, -3, "A", BACKWARD)
    with pytest.raises(LevelMismatch):
        project_graph(traj, line, (Fraction(1), Fraction(0), Fraction(0)))


def test_ball_backend_full_run_and_certification():
    bits = 96
    lam = (Ball.exact(PHI, bits), Ball.exact(Fraction(1), bits))
    tau = (Ball.exact(Fraction(1), bits), Ball.exact(ONE - PHI, bits))
    st = make_state(ROT2, lam, tau)
    traj = run_window(st, back=6, fwd=6)
    for n in traj.levels():
        for x in traj.state(n).lam:
            assert certified_sign(x) == 1
    # ball heights enclose the exact quadratic heights
    exact = make_state(ROT2, (PHI, ONE), (ONE, ONE - PHI))
    exact_traj = run_window(exact, back=6, fwd=6)
    for n in traj.levels():
        for b, q in zip(traj.state(n).heights(), exact_traj.state(n).heights()):
            assert b.contains(q)


def test_precision_doubling_retry_on_uncertain_branch():
    from fractions import Fraction as F

    from ietkz.errors import PrecisionExhausted

    # the two candidate lengths differ by 2^-80: invisible at 48 bits
    lam_exact = (F(1) + F(1, 2**80), F(1))

    def build(bits):
        return make_state(ROT2, (Ball.exact(lam_exact[0], bits), Ball.exact(lam_exact[1], bits)))

    with pytest.raises(PrecisionExhausted):
        run(build(48), "forward", Steps(1))
    # the rebuild callback doubles the precision until the branch certifies
    traj = run(build(48), "forward", Steps(1), rebuild=build, max_bits=4096)
    assert traj.n_max == 1
    assert traj.arrow_at(1).kind == "bottom"  # lam_A > lam_B decided correctly
    # a cap below the needed precision still refuses to guess
    with pytest.raises(PrecisionExhausted):
        run(build(24), "forward", Steps(1), rebuild=build, max_bits=64)


def _unused_imports(source: str):
    """Names a module imports and never uses (``__future__`` excepted)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_library_has_no_unused_imports():
    package = Path(ietkz.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
