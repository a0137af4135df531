import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import brute_force_cone_rays

from ietkz.combinatorics import (
    BOTTOM,
    TOP,
    CombinatorialData,
    all_irreducible,
    arrow,
    build_diagram,
    elementary_matrix,
    path_matrix,
)
from ietkz.cones import (
    absolute_cone_rays,
    cone_contraction,
    standard_witness,
    subspace_basis,
)
from ietkz.errors import SubspaceMismatch
from ietkz.numerics import in_span, sum_norm

ROT2 = CombinatorialData.from_rows(["A", "B"], ["B", "A"])
REV3 = CombinatorialData.from_rows(["A", "B", "C"], ["C", "B", "A"])
REV4 = CombinatorialData.from_rows(["A", "B", "C", "D"], ["D", "C", "B", "A"])


def test_rotation_cone_is_full_orthant():
    cone = absolute_cone_rays(ROT2)
    assert sorted(tuple(int(x) for x in r) for r in cone.rays) == [(0, 1), (1, 0)]


def test_reverse3_cone_rays():
    cone = absolute_cone_rays(REV3)
    got = sorted(tuple(int(x) for x in r) for r in cone.rays)
    assert got == [(0, 1, 1), (1, 1, 0)]
    for r in cone.rays:
        assert in_span(cone.basis, r)
        assert all(x >= 0 for x in r)


def test_double_description_matches_brute_force():
    for pi in list(all_irreducible(3)) + list(all_irreducible(4, top_identity_only=True)):
        dd = absolute_cone_rays(pi).rays
        brute = brute_force_cone_rays(pi)
        assert [tuple(int(x) for x in r) for r in dd] == [
            tuple(int(x) for x in r) for r in brute
        ], f"mismatch at {pi!r}"


def test_standard_witness_examples():
    assert [int(x) for x in standard_witness(ROT2)] == [1, 1]
    assert [int(x) for x in standard_witness(REV4)] == [1, 2, 2, 1]
    w3 = standard_witness(REV3)
    assert all(x > 0 for x in w3)
    assert in_span(subspace_basis(REV3), w3)


def test_standard_witness_everywhere_small_diagrams():
    for seed in (REV3, REV4):
        for pi in build_diagram(seed).vertices:
            w = standard_witness(pi)
            assert all(x > 0 for x in w)
            assert in_span(subspace_basis(pi), w)


def test_witness_is_positive_combination_of_rays():
    # the witness lies in the relative interior: small perturbations along
    # every ray keep it in the cone, checked via exact coordinates
    from ietkz.numerics import exact_solve

    for pi in (ROT2, REV3, REV4):
        cone = absolute_cone_rays(pi)
        w = standard_witness(pi)
        R = np.stack(cone.rays, axis=1)
        coeffs = exact_solve(R, w)
        if coeffs is not None:  # simplicial case: coefficients are unique
            assert all(c > 0 for c in coeffs)


def test_arrows_preserve_subspace_and_cone():
    for seed in (ROT2, REV3, REV4):
        diag = build_diagram(seed)
        for a in diag.arrows:
            B = elementary_matrix(a)
            basis = subspace_basis(a.source)
            basis2 = subspace_basis(a.target)
            d = a.source.d
            for v in basis:
                img = [sum(B[i, j] * v[j] for j in range(d)) for i in range(d)]
                assert in_span(basis2, img)
            for r in absolute_cone_rays(a.source).rays:
                img = [sum(B[i, j] * r[j] for j in range(d)) for i in range(d)]
                assert all(x >= 0 for x in img)


def test_cone_contraction_identity_and_positive():
    from ietkz.numerics import identity_matrix

    # identity: true iff every ray is strictly positive; false for REV3
    assert cone_contraction(identity_matrix(3), REV3, REV3) is False
    # entrywise positive matrices always contract
    cur = REV3
    path = []
    rng = random.Random(2)
    while True:
        a = arrow(cur, rng.choice([TOP, BOTTOM]))
        path.append(a)
        cur = a.target
        B = path_matrix(path)
        if all(x > 0 for x in B.ravel()):
            break
    assert cone_contraction(B, path[0].source, cur) is True


def test_cone_contraction_strictly_weaker_than_positivity():
    # search short products in the d=3 diagram for a matrix with a zero
    # entry whose ray images are nevertheless strictly positive
    found = None
    diag = build_diagram(REV3)
    paths = [[a] for a in diag.arrows]
    for _ in range(6):
        nxt = []
        for p in paths:
            for a in diag.out_arrows(p[-1].target):
                q = p + [a]
                B = path_matrix(q)
                if any(x == 0 for x in B.ravel()):
                    try:
                        if cone_contraction(B, q[0].source, q[-1].target):
                            found = (q, B)
                            break
                    except SubspaceMismatch:
                        pass
                nxt.append(q)
            if found:
                break
        if found:
            break
        paths = nxt
    assert found is not None, "no witness that the cone gate is weaker than positivity"


def test_subspace_mismatch_raises():
    wrong = np.zeros((3, 3), dtype=object)
    with pytest.raises(SubspaceMismatch):
        cone_contraction(wrong, REV3, REV3)


def test_norm_comparability_constant():
    # the norm of B and the norm of its restriction to the subspace are
    # comparable, with a constant controlled by the witness entry spread
    rng = random.Random(9)
    for seed in (REV3, REV4):
        w = standard_witness(seed)
        spread = max(Fraction(x) for x in w) / min(Fraction(x) for x in w)
        cur = seed
        path = []
        for _ in range(12):
            a = arrow(cur, rng.choice([TOP, BOTTOM]))
            path.append(a)
            cur = a.target
        B = path_matrix(path)
        d = seed.d
        img = [sum(B[i, j] * w[j] for j in range(d)) for i in range(d)]
        # max coordinate of B w bounded between norm-scaled multiples of w
        assert max(img) <= sum_norm(B) * max(w)
        assert max(img) >= Fraction(int(sum_norm(B)), d * d) * min(w) / spread


def test_lemma_ray_spread_bound():
    # whenever the contraction gate passes, ray images have bounded spread:
    # max_alpha w_alpha <= C ||B|| min_alpha w_alpha with C from the rays
    diag = build_diagram(REV3)
    rng = random.Random(4)
    for _ in range(20):
        pi = diag.vertices[rng.randrange(len(diag.vertices))]
        cur = pi
        path = []
        for _ in range(rng.randint(4, 10)):
            a = arrow(cur, rng.choice([TOP, BOTTOM]))
            path.append(a)
            cur = a.target
        B = path_matrix(path)
        try:
            ok = cone_contraction(B, pi, cur)
        except SubspaceMismatch:
            continue
        if not ok:
            continue
        C = max(int(sum_norm(r)) for r in absolute_cone_rays(pi).rays)
        for r in absolute_cone_rays(pi).rays:
            w = [sum(B[i, j] * r[j] for j in range(3)) for i in range(3)]
            assert max(w) <= C * int(sum_norm(B)) * min(w)
