"""Exact and certified scalar kernels plus exact linear algebra.

Three interchangeable scalar backends are supported:

* ``fractions.Fraction`` for exact rational data,
* :class:`Quadratic` for numbers ``a + b*sqrt(D)`` with rational ``a, b``
  and a fixed square-free ``D > 1``,
* :class:`Ball` for certified dyadic interval arithmetic at a configurable
  bit precision.

Every branch decision of the induction engine goes through
:func:`certified_sign`, which never guesses: on a ball that straddles zero
it returns ``None`` (uncertain) so the caller can retry at higher precision.

Exact rank, nullspace, solve, inverse and det of rational matrices run on
one fraction-free integer elimination, whose :func:`bareiss_pivot` the
simplex tableau pivots with too; ``Fraction`` values are built at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ZeroVector

NEGATIVE = -1
ZERO = 0
POSITIVE = 1
# certified_sign returns None when a ball straddles zero.
UNCERTAIN = None


# ---------------------------------------------------------------------------
# quadratic numbers a + b*sqrt(D)


@lru_cache(maxsize=64)
def _is_squarefree(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class Quadratic:
    """Element ``a + b*sqrt(D)`` of the real quadratic field Q(sqrt(D))."""

    a: Fraction
    b: Fraction
    D: int

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))
        if not _is_squarefree(self.D):
            raise ValueError(f"D={self.D} must be square-free and > 1")

    # -- ring/field operations ------------------------------------------
    def _coerce(self, other) -> "Quadratic":
        if isinstance(other, Quadratic):
            if other.D != self.D:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return Quadratic(Fraction(other), Fraction(0), self.D)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Quadratic(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Quadratic(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Quadratic(o.a - self.a, o.b - self.b, self.D)

    def __neg__(self):
        return Quadratic(-self.a, -self.b, self.D)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Quadratic(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Quadratic":
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise ZeroDivisionError("inverse of zero quadratic number")
        return Quadratic(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- order ------------------------------------------------------------
    def sign(self) -> int:
        """Exact sign decided by integer arithmetic only."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # a and b have opposite signs: compare a^2 with b^2 D.
        cmp = self.a * self.a - self.b * self.b * self.D
        scmp = (cmp > 0) - (cmp < 0)
        return sa * scmp if scmp != 0 else 0

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Quadratic)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.D}))"


# ---------------------------------------------------------------------------
# certified dyadic interval (ball) arithmetic


def _round_frac_down(x: Fraction, bits: int) -> Fraction:
    if x == 0:
        return x
    e = x.numerator.bit_length() - x.denominator.bit_length()
    shift = bits - e
    scale = Fraction(1 << shift) if shift >= 0 else Fraction(1, 1 << (-shift))
    return Fraction(math.floor(x * scale)) / scale


def _round_frac_up(x: Fraction, bits: int) -> Fraction:
    return -_round_frac_down(-x, bits)


class Ball:
    """Dyadic interval ``[lo, hi]`` rounded outward to ``bits`` precision.

    The enclosure property is unconditional: every arithmetic operation
    returns a ball containing the exact image of the operand intervals.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo, hi, bits: int = 256, _round: bool = True):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        if _round:
            lo = _round_frac_down(lo, bits)
            hi = _round_frac_up(hi, bits)
        self.lo = lo
        self.hi = hi
        self.bits = bits

    # -- constructors -----------------------------------------------------
    @staticmethod
    def exact(x, bits: int = 256) -> "Ball":
        if isinstance(x, Quadratic):
            return _quadratic_ball(x, bits)
        x = Fraction(x)
        return Ball(x, x, bits)

    def with_bits(self, bits: int) -> "Ball":
        return Ball(self.lo, self.hi, bits)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def rad(self) -> Fraction:
        return (self.hi - self.lo) / 2

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other) -> "Ball":
        if isinstance(other, Ball):
            return other
        if isinstance(other, (int, Fraction)):
            return Ball(other, other, self.bits, _round=False)
        if isinstance(other, Quadratic):
            return Ball.exact(other, self.bits)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Ball(self.lo + o.lo, self.hi + o.hi, self.bits)

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.hi, -self.lo, self.bits, _round=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Ball(self.lo - o.hi, self.hi - o.lo, self.bits)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Ball(min(cands), max(cands), self.bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by interval containing zero")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Ball(min(cands), max(cands), self.bits)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Ball(Fraction(0), max(-self.lo, self.hi), self.bits, _round=False)

    # -- queries ------------------------------------------------------------
    def sign(self) -> Optional[int]:
        if self.lo > 0:
            return POSITIVE
        if self.hi < 0:
            return NEGATIVE
        if self.lo == 0 == self.hi:
            return ZERO
        return UNCERTAIN

    def contains(self, x) -> bool:
        if isinstance(x, Quadratic):
            enc = Ball.exact(x, self.bits + 16)
            return self.lo <= enc.lo and enc.hi <= self.hi
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def __float__(self):
        return float(self.mid)

    def __repr__(self):
        return f"Ball(mid~{float(self.mid):.6g}, rad~{float(self.rad):.3g}, bits={self.bits})"


def _quadratic_ball(x: Quadratic, bits: int) -> Ball:
    """The ball [a] + [b] * sqrt_enclosure(D, bits + 8), re-rounded to ``bits``.

    Each step rounds outward exactly as the Ball operations do, but on
    dyadic pairs (n, s) = n / 2**s in integer arithmetic; the one Fraction
    per endpoint is built at the end.
    """
    rb = bits + 8
    m = math.isqrt(x.D << (2 * rb))
    r = (_dyadic_round((m, rb), rb, -1), _dyadic_round((m + 1, rb), rb, 1))
    a = (_fraction_round(x.a, bits, -1), _fraction_round(x.a, bits, 1))
    b = (_fraction_round(x.b, bits, -1), _fraction_round(x.b, bits, 1))
    cands = [(u[0] * v[0], u[1] + v[1]) for u in b for v in r]
    top = max(c[1] for c in cands)
    cands.sort(key=lambda c: c[0] << (top - c[1]))
    p_lo = _dyadic_round(cands[0], bits, -1)
    p_hi = _dyadic_round(cands[-1], bits, 1)
    lo = _dyadic_round(_dyadic_round(_dyadic_add(a[0], p_lo), bits, -1), bits, -1)
    hi = _dyadic_round(_dyadic_round(_dyadic_add(a[1], p_hi), bits, 1), bits, 1)
    return Ball(_dyadic_fraction(lo), _dyadic_fraction(hi), bits, _round=False)


def _fraction_round(x: Fraction, bits: int, direction: int) -> tuple:
    """_round_frac_down (direction -1) or _round_frac_up (+1) as a dyadic pair."""
    p, q = x.numerator, x.denominator
    if p == 0:
        return (0, 0)
    shift = bits - (p.bit_length() - q.bit_length())
    if shift >= 0:
        p <<= shift
    else:
        q <<= -shift
    return (p // q if direction < 0 else -(-p // q), shift)


def _dyadic_round(x: tuple, bits: int, direction: int) -> tuple:
    n, s = x
    if n == 0:
        return (0, 0)
    shift = bits - (n.bit_length() - s - 1)  # the exponent of n / 2**s
    k = shift - s
    if k >= 0:
        return (n << k, shift)
    return (n >> -k if direction < 0 else -(-n >> -k), shift)


def _dyadic_add(x: tuple, y: tuple) -> tuple:
    s = max(x[1], y[1])
    return ((x[0] << (s - x[1])) + (y[0] << (s - y[1])), s)


def _dyadic_fraction(x: tuple) -> Fraction:
    n, s = x
    return Fraction(n, 1 << s) if s >= 0 else Fraction(n << -s)


def sqrt_enclosure(n: int, bits: int) -> Ball:
    """Rigorous dyadic enclosure of sqrt(n) for a positive integer ``n``."""
    if n <= 0:
        raise ValueError("need a positive integer")
    shift = 2 * bits
    m = math.isqrt(n << shift)
    lo = Fraction(m, 1 << bits)
    hi = Fraction(m + 1, 1 << bits)
    return Ball(lo, hi, bits)


# ---------------------------------------------------------------------------
# generic scalar helpers


def certified_sign(x) -> Optional[int]:
    """Sign of a scalar: -1, 0, +1, or ``None`` when a ball is inconclusive.

    Exact backends (int, Fraction, Quadratic) never return ``None``.
    """
    if isinstance(x, Ball):
        return x.sign()
    if isinstance(x, Quadratic):
        return x.sign()
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    raise TypeError(f"unsupported scalar type {type(x)!r}")


def integer_lift(values: Sequence):
    """(A, B, D) with values[k] = (A[k] + B[k] sqrt(D)) / L for one common L > 0.

    A and B are lists of ints and D is 0 when no value is a Quadratic.
    Returns None unless every value is int, Fraction or Quadratic over a
    single field, so that order and sums can be decided on the integer
    lattice: one value exceeds another exactly when ``zsign`` of the
    difference of their (A, B) pairs is positive.
    """
    D = 0
    ab = []
    for x in values:
        if isinstance(x, Quadratic):
            if D and x.D != D:
                return None
            D = x.D
            ab.append((x.a, x.b))
        elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            ab.append((Fraction(x), Fraction(0)))
        else:
            return None
    L = math.lcm(*(y.denominator for pair in ab for y in pair))
    return (
        [a.numerator * (L // a.denominator) for a, _ in ab],
        [b.numerator * (L // b.denominator) for _, b in ab],
        D,
    )


def zsign(a: int, b: int, D: int) -> int:
    """Sign of a + b sqrt(D) for integers a, b and square-free D > 1 (any D when b = 0)."""
    sa = (a > 0) - (a < 0)
    if b == 0:
        return sa
    sb = 1 if b > 0 else -1
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > b * b * D else sb


def scalar_abs(x):
    s = certified_sign(x)
    if s is None:
        return abs(x)  # Ball.__abs__ is rigorous even when the sign is not
    return -x if s < 0 else x


def to_float(x) -> float:
    if isinstance(x, Ball):
        return float(x.mid)
    return float(x)


def exact_log(x) -> float:
    """Natural log of a positive scalar, safe for huge rationals and for
    quadratic numbers with catastrophic cancellation."""
    if isinstance(x, Ball):
        x = x.mid
    if isinstance(x, int):
        return math.log(x)
    if isinstance(x, Fraction):
        return _log_fraction(x)
    if isinstance(x, Quadratic):
        if x.b == 0:
            return _log_fraction(x.a)
        if x.sign() <= 0:
            raise ValueError("log of non-positive value")
        bits = 64
        while bits <= 1 << 20:
            enc = Ball.exact(x, bits)
            if enc.lo > 0 and enc.hi - enc.lo < enc.lo * Fraction(1, 1 << 20):
                return _log_fraction(enc.mid)
            bits *= 2
        raise ValueError("cannot enclose the quadratic value tightly enough")
    return math.log(float(x))


def _log_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("log of non-positive value")
    return math.log(x.numerator) - math.log(x.denominator)


# ---------------------------------------------------------------------------
# serialization (rationals "p/q"; quadratics {"a","b","D"}; balls mid/rad)


def scalar_to_json(x):
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Quadratic):
        return {"a": scalar_to_json(x.a), "b": scalar_to_json(x.b), "D": x.D}
    if isinstance(x, Ball):
        return {
            "mid": decimal_string(x.mid),
            "rad": decimal_string(x.rad),
            "bits": x.bits,
        }
    raise TypeError(f"unsupported scalar {x!r}")


def scalar_from_json(obj, bits: int = 256):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict):
        if "D" in obj:
            return Quadratic(Fraction(obj["a"]), Fraction(obj["b"]), int(obj["D"]))
        if "mid" in obj:
            mid = Fraction(obj["mid"])
            rad = Fraction(obj["rad"])
            return Ball(mid - rad, mid + rad, int(obj.get("bits", bits)))
    raise TypeError(f"cannot parse scalar from {obj!r}")


def decimal_string(x, digits: int = 30) -> str:
    """Decimal expansion of a rational, exact if terminating else rounded."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    ipart = x.numerator // x.denominator
    rem = x.numerator - ipart * x.denominator
    if rem == 0:
        return f"{sign}{ipart}"
    out = []
    for _ in range(digits):
        rem *= 10
        out.append(str(rem // x.denominator))
        rem %= x.denominator
        if rem == 0:
            break
    return f"{sign}{ipart}." + "".join(out)


# ---------------------------------------------------------------------------
# exact linear algebra on one fraction-free integer kernel (numpy object arrays)


def mat(rows) -> np.ndarray:
    return np.array(rows, dtype=object)


def identity_matrix(d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=object)
    for i in range(d):
        m[i, i] = 1
    return m


def bareiss_pivot(rows: List[List[int]], r: int, c: int, D: int) -> Tuple[List[List[int]], int]:
    """One fraction-free pivot on rows[r][c] (Edmonds; Bareiss 1968).

    The integer rows are D > 0 times a rational tableau.  Every other row
    becomes (p*row - row[c]*prow) // D, an exact division, and the pivot row
    is negated on a negative pivot so that the new D = |p| stays positive.
    Returns the new rows (unchanged rows are shared) and D.
    """
    prow = rows[r] if rows[r][c] > 0 else [-a for a in rows[r]]
    p = prow[c]
    out = []
    for i, row in enumerate(rows):
        f = row[c]
        out.append(prow if i == r else row if f == 0 and p == D else [(p * a - f * b) // D for a, b in zip(row, prow)])
    return out, p


def _eliminate(M: np.ndarray):
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Each row is scaled to integers once; columns go left to right, each
    pivoting on the first row not pivoted yet with a nonzero entry.  Returns
    (rows, pivots, D, den): the integer rows are D times the reduced row
    echelon form, row i pivoting on column pivots[i], and D / den is the
    determinant when pivots are 0, 1, ..., len(M) - 1.
    """
    M = np.asarray(M, dtype=object)
    rows, den = [], 1
    for row in M:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        den *= scale
    pivots, D = [], 1
    for c in range(M.shape[1]):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if (pr != r) != (rows[r][c] < 0):  # a row swap or a negated pivot flips the sign
            den = -den
        rows, D = bareiss_pivot(rows, r, c, D)
        pivots.append(c)
    return rows, pivots, D, den


def _echelon(M: np.ndarray):
    """Reduced row echelon form over Fraction; returns (R, pivots)."""
    rows, pivots, D, _ = _eliminate(M)
    R = np.array([[Fraction(a, D) for a in row] for row in rows], dtype=object)
    return R.reshape(len(rows), np.shape(M)[1]), pivots


def exact_rank(M: np.ndarray) -> int:
    return len(_eliminate(M)[1])


def exact_rank_nullspace(M: np.ndarray):
    """Rank, nullspace basis and column-space basis, all exact.

    Returns ``(rank, null_basis, col_basis)`` where the bases are lists of
    Fraction vectors (possibly empty).
    """
    M = np.array(M, dtype=object)
    rows, cols = M.shape
    R, pivots = _echelon(M)
    rank = len(pivots)
    free = [c for c in range(cols) if c not in pivots]
    null_basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r, f]
        null_basis.append(np.array(v, dtype=object))
    col_basis = [np.array([Fraction(M[i, c]) for i in range(rows)], dtype=object) for c in pivots]
    return rank, null_basis, col_basis


def exact_solve(A: np.ndarray, b: Sequence) -> Optional[np.ndarray]:
    """One exact solution of ``A x = b`` or ``None`` when inconsistent."""
    A = np.array(A, dtype=object)
    rows, cols = A.shape
    aug = np.empty((rows, cols + 1), dtype=object)
    aug[:, :cols] = A
    for i in range(rows):
        aug[i, cols] = b[i]
    R, pivots = _echelon(aug)
    if cols in pivots:
        return None
    x = np.array([Fraction(0)] * cols, dtype=object)
    for r, c in enumerate(pivots):
        x[c] = R[r, cols]
    return x


def exact_inverse(M: np.ndarray) -> np.ndarray:
    M = np.array(M, dtype=object)
    d = M.shape[0]
    aug = np.empty((d, 2 * d), dtype=object)
    aug[:, :d] = M
    aug[:, d:] = identity_matrix(d)
    R, pivots = _echelon(aug)
    if pivots[:d] != list(range(d)):
        raise ZeroDivisionError("singular matrix")
    return R[:, d:]


def exact_det(M: np.ndarray) -> Fraction:
    _, pivots, D, den = _eliminate(M)
    return Fraction(D, den) if pivots == list(range(len(M))) else Fraction(0)


def in_span(basis, v) -> bool:
    """Exact membership of ``v`` in the rational span of ``basis``."""
    if not basis:
        return all(Fraction(x) == 0 for x in v)
    A = np.stack(basis, axis=1)
    return exact_solve(A, v) is not None


def snap_primitive(v: Sequence) -> np.ndarray:
    """Unique primitive integer vector positively proportional to ``v``."""
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        raise ZeroVector("zero vector has no primitive representative")
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return np.array([x // g for x in ints], dtype=object)


def matvec(M: np.ndarray, v: Sequence) -> tuple:
    """M v for an integer matrix M and a vector of scalars.

    Zero entries are skipped and unit entries add v[j] itself, so the
    result keeps the scalar type of ``v``; an all-zero row gives 0 * v[0].
    """
    rows, cols = M.shape
    out = []
    for i in range(rows):
        acc = None
        for j in range(cols):
            c = M[i, j]
            if c == 0:
                continue
            term = v[j] if c == 1 else c * v[j]
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else 0 * v[0])
    return tuple(out)


def sum_norm(M: np.ndarray):
    """Matrix norm used throughout: the sum of absolute entry values."""
    total = 0
    for x in np.ravel(np.array(M, dtype=object)):
        total += abs(x)
    return total


def matrix_to_json(M: np.ndarray):
    return [[str(int(x)) for x in row] for row in np.array(M, dtype=object)]
