import random
from fractions import Fraction

import numpy as np
import pytest

from ietkz.errors import ZeroVector
from ietkz.numerics import (
    Ball,
    Quadratic,
    certified_sign,
    decimal_string,
    exact_det,
    exact_inverse,
    exact_rank,
    exact_rank_nullspace,
    exact_solve,
    in_span,
    mat,
    scalar_from_json,
    scalar_to_json,
    snap_primitive,
    sqrt_enclosure,
    sum_norm,
)


def test_sign_of_rational():
    assert certified_sign(Fraction(-3, 7)) == -1
    assert certified_sign(Fraction(0)) == 0
    assert certified_sign(Fraction(2, 9)) == 1


def test_sign_of_quadratic_by_integer_comparison():
    # 1 - sqrt(2) < 0 because 1^2 < 2
    assert certified_sign(Quadratic(1, -1, 2)) == -1
    assert certified_sign(Quadratic(3, -2, 2)) == 1  # 9 > 8
    assert certified_sign(Quadratic(-3, 2, 2)) == -1
    assert certified_sign(Quadratic(0, 0, 5)) == 0
    assert certified_sign(Quadratic(Fraction(-1, 2), Fraction(1, 3), 5)) == 1  # 5/9 > 1/4


def test_ball_straddling_zero_is_uncertain():
    b = Ball(Fraction(1, 1000) - Fraction(1, 100), Fraction(1, 1000) + Fraction(1, 100))
    assert certified_sign(b) is None
    assert certified_sign(Ball(1, 2)) == 1
    assert certified_sign(Ball(-2, -1)) == -1
    assert certified_sign(Ball(0, 0)) == 0


def test_quadratic_field_axioms_on_random_triples():
    rng = random.Random(7)

    def rand():
        return Quadratic(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            5,
        )

    for _ in range(60):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        if certified_sign(x) != 0:
            assert x * x.inverse() == Quadratic(1, 0, 5)


def test_quadratic_golden_ratio_identity():
    phi = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1
    assert 1 / phi == phi - 1


def test_ball_containment_under_composed_expressions():
    rng = random.Random(11)
    for _ in range(40):
        xs = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(4)]
        balls = [Ball.exact(x, bits=64) for x in xs]
        exact = (xs[0] + xs[1]) * xs[2] - xs[3] * xs[0] + xs[1] * xs[1]
        got = (balls[0] + balls[1]) * balls[2] - balls[3] * balls[0] + balls[1] * balls[1]
        assert got.contains(exact)


def test_ball_sign_agrees_with_enclosed_exact_value():
    rng = random.Random(13)
    for _ in range(60):
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        y = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        expr = x * y - y + x
        ball = Ball.exact(x, 96) * Ball.exact(y, 96) - Ball.exact(y, 96) + Ball.exact(x, 96)
        s = certified_sign(ball)
        if s is not None:
            assert s == certified_sign(expr)


def test_sqrt_enclosure_is_rigorous():
    b = sqrt_enclosure(2, 128)
    assert b.lo * b.lo < 2 < b.hi * b.hi
    assert b.hi - b.lo < Fraction(1, 2**100)


def test_quadratic_ball_conversion():
    phi = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)
    b = Ball.exact(phi, 128)
    assert b.contains(phi)
    assert float(b) == pytest.approx((1 + 5**0.5) / 2)


def test_snap_primitive_examples():
    assert list(snap_primitive([Fraction(2, 3), Fraction(4, 3)])) == [1, 2]
    assert list(snap_primitive([5, 0, -10])) == [1, 0, -2]
    # lcm of denominators is 30, then divide by gcd
    assert list(snap_primitive([Fraction(1, 6), Fraction(1, 10), Fraction(1, 15)])) == [5, 3, 2]
    with pytest.raises(ZeroVector):
        snap_primitive([0, 0])


def test_rank_nullspace_examples():
    rank, null, col = exact_rank_nullspace(mat([[0, 1], [-1, 0]]))
    assert rank == 2 and null == []
    rank, null, col = exact_rank_nullspace(mat([[0, 0, 0]] * 3))
    assert rank == 0 and len(null) == 3
    # d=3, top id, bottom reverse
    om = mat([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    rank, null, col = exact_rank_nullspace(om)
    assert rank == 2 and len(null) == 1 and len(col) == 2
    v = null[0]
    assert all(sum(om[i, j] * v[j] for j in range(3)) == 0 for i in range(3))


def test_rank_nullspace_of_a_matrix_without_rows():
    empty = np.zeros((0, 3), dtype=object)
    assert exact_rank(empty) == 0
    rank, null, col = exact_rank_nullspace(empty)
    assert rank == 0 and col == []
    assert [list(v) for v in null] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_exact_solve_and_inverse():
    A = mat([[2, 1], [1, 1]])
    x = exact_solve(A, [3, 2])
    assert list(x) == [1, 1]
    Ainv = exact_inverse(A)
    assert (A @ Ainv == np.array([[1, 0], [0, 1]], dtype=object)).all()
    assert exact_det(A) == 1
    assert exact_solve(mat([[1, 1], [1, 1]]), [0, 1]) is None


def test_in_span():
    basis = [np.array([Fraction(1), Fraction(0), Fraction(1)], dtype=object)]
    assert in_span(basis, [2, 0, 2])
    assert not in_span(basis, [1, 1, 1])


def test_sum_norm_counts_all_entries():
    assert sum_norm(mat([[1, -2], [3, 4]])) == 10


def test_scalar_serialization_round_trip():
    assert scalar_to_json(Fraction(-3, 7)) == "-3/7"
    assert scalar_from_json("-3/7") == Fraction(-3, 7)
    q = Quadratic(Fraction(1, 2), Fraction(-2, 3), 5)
    assert scalar_from_json(scalar_to_json(q)) == q
    b = Ball.exact(Fraction(1, 3), 64)
    b2 = scalar_from_json(scalar_to_json(b))
    assert b2.contains(Fraction(1, 3))


def test_decimal_string():
    assert decimal_string(Fraction(1, 4)) == "0.25"
    assert decimal_string(Fraction(-5, 2)) == "-2.5"
    assert decimal_string(Fraction(1, 3), digits=5) == "0.33333"
    assert decimal_string(Fraction(7)) == "7"
