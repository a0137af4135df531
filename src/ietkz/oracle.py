"""Brute-force orbit simulations: the ground truth everything is checked against.

All computations here iterate actual points of the interval; nothing is
derived from cocycle matrices, so agreement with the matrix machinery is a
genuine cross-validation.

Orbits of exact data (int, Fraction, or Quadratic over one field) run on an
integer lattice: the interval bounds, the translations, the point and the
return bound are written over one common denominator L, as integers for
rational data and as pairs (A, B) standing for (A + B sqrt(D)) / L for
quadratic data.  Each step is then an exact integer lookup and an integer
add, and a point on a bound belongs to the interval on its right, as under
the scalar arithmetic.  The lift only rescales the map's own lengths, so the
orbit is still that of the actual points.  Ball data keep the scalar loop.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .combinatorics import CombinatorialData
from .errors import NoReturn, PrecisionExhausted, SingularOrbit
from .induction import Trajectory
from .numerics import certified_sign, integer_lift, zsign


class IEMap:
    """Point evaluator for the interval exchange with data (pi, lambda).

    The interval is [0, |I|) with the map extended by right-continuity, so
    every point including singularities has a well-defined image.
    """

    def __init__(self, pi: CombinatorialData, lam: Sequence):
        self.pi = pi
        self.lam = tuple(lam)
        d = pi.d
        zero = lam[0] - lam[0]
        tops = [zero]
        for a in pi.top:
            tops.append(tops[-1] + lam[pi.index(a)])
        bots = [zero]
        for a in pi.bottom:
            bots.append(bots[-1] + lam[pi.index(a)])
        self._top_bounds = tops  # cumulative, length d+1
        self._bottom_bounds = bots
        self.delta = {}
        for a in pi.letters:
            tpos = pi.top_pos(a)
            bpos = pi.bottom_pos(a)
            self.delta[a] = bots[bpos - 1] - tops[tpos - 1]
        self._shifts = [self.delta[a] for a in pi.top]  # by top position

    @property
    def total(self):
        return self._top_bounds[-1]

    def top_singularities(self) -> List:
        """u_i^t for i = 1..d-1."""
        return self._top_bounds[1:-1]

    def bottom_singularities(self) -> List:
        return self._bottom_bounds[1:-1]

    def letter_of(self, x) -> str:
        """Letter of the right-open top interval containing x."""
        return self.pi.top[self._top_position(x)]

    def _top_position(self, x) -> int:
        """0-based top position of the right-open interval containing x."""
        for i in range(self.pi.d):
            s = certified_sign(self._top_bounds[i + 1] - x)
            if s is None:
                raise PrecisionExhausted("cannot certify interval membership")
            if s > 0:
                lo = certified_sign(x - self._top_bounds[i])
                if lo is None:
                    raise PrecisionExhausted("cannot certify interval membership")
                if lo < 0:
                    raise ValueError("point left of the interval")
                return i
        raise ValueError("point right of the interval")

    def bottom_letter_of(self, y) -> str:
        for i in range(self.pi.d):
            s = certified_sign(self._bottom_bounds[i + 1] - y)
            if s is None:
                raise PrecisionExhausted("cannot certify interval membership")
            if s > 0:
                return self.pi.bottom[i]
        raise ValueError("point right of the interval")

    def apply(self, x):
        return x + self.delta[self.letter_of(x)]

    def itinerary(self, x, stop, depth_cap: int) -> List[str]:
        """Top letters visited by the orbit of x until it first lands in [0, stop).

        x itself is always visited, so a point already in [0, stop) has a
        word of at least one letter.  Raises NoReturn after ``depth_cap``
        steps, ValueError for a point outside [0, |I|), and, for Ball data
        only, PrecisionExhausted when a lookup or return test is undecided.
        """
        lift = integer_lift([*self._top_bounds, *self._shifts, x, stop])
        if lift is None:
            return self._scalar_itinerary(x, stop, depth_cap)
        A, B, D = lift
        d = self.pi.d
        top = self.pi.top
        rational = not any(B)
        points = A if rational else list(zip(A, B))
        bounds, shifts, (X, S) = points[: d + 1], points[d + 1 : 2 * d + 1], points[2 * d + 1 :]
        word = []
        if rational:
            for _ in range(depth_cap):
                i = bisect_right(bounds, X) - 1
                if not 0 <= i < d:
                    raise _outside(i)
                word.append(top[i])
                X += shifts[i]
                if X < S:
                    return word
            raise NoReturn(f"no return within {depth_cap} iterations")
        for _ in range(depth_cap):
            lo, hi = 0, d + 1  # bisect_right over the bounds by exact sign
            while lo < hi:
                mid = (lo + hi) // 2
                if zsign(X[0] - bounds[mid][0], X[1] - bounds[mid][1], D) < 0:
                    hi = mid
                else:
                    lo = mid + 1
            i = lo - 1
            if not 0 <= i < d:
                raise _outside(i)
            word.append(top[i])
            X = (X[0] + shifts[i][0], X[1] + shifts[i][1])
            if zsign(S[0] - X[0], S[1] - X[1], D) > 0:
                return word
        raise NoReturn(f"no return within {depth_cap} iterations")

    def _scalar_itinerary(self, x, stop, depth_cap: int) -> List[str]:
        word = []
        for _ in range(depth_cap):
            i = self._top_position(x)
            word.append(self.pi.top[i])
            x = x + self._shifts[i]
            s = certified_sign(stop - x)
            if s is None:
                raise PrecisionExhausted("cannot certify a return test")
            if s > 0:
                return word
        raise NoReturn(f"no return within {depth_cap} iterations")

    def apply_inverse(self, y):
        return y - self.delta[self.bottom_letter_of(y)]

    def top_interval(self, letter: str) -> Tuple:
        p = self.pi.top_pos(letter)
        return self._top_bounds[p - 1], self._top_bounds[p]

    def midpoint(self, letter: str):
        lo, hi = self.top_interval(letter)
        return (lo + hi) / 2

    def hits_singularity(self, x) -> bool:
        for u in self.top_singularities():
            s = certified_sign(x - u)
            if s == 0:
                return True
        return False


def _outside(position: int) -> ValueError:
    return ValueError("point left of the interval" if position < 0 else "point right of the interval")


def _maps_for(traj: Trajectory, n: int) -> IEMap:
    st = traj.state(n)
    return IEMap(st.pi, st.lam)


def visit_counts(traj: Trajectory, n_prime: int, n: int, depth_cap: int = 10**6):
    """Count matrix of first-return orbits, with the visit words.

    For the midpoint of each I_alpha^(n), iterates T^(n') until the first
    return to I^(n) and counts visits to each I_beta^(n').  Returns the
    matrix (rows = alpha, columns = beta) and the per-letter visit words.
    """
    if n_prime > n:
        raise ValueError("need n_prime <= n")
    inner = _maps_for(traj, n)
    outer = _maps_for(traj, n_prime)
    d = inner.pi.d
    counts = np.zeros((d, d), dtype=object)
    words: Dict[str, List[str]] = {}
    for alpha in inner.pi.letters:
        word = outer.itinerary(inner.midpoint(alpha), inner.total, depth_cap)
        ai = inner.pi.index(alpha)
        for beta, c in Counter(word).items():
            counts[ai, outer.pi.index(beta)] = c
        words[alpha] = word
    return counts, words


def brute_birkhoff(T: IEMap, phi, x, N: int):
    """Plain Birkhoff sum over N iterates; phi maps a letter to a scalar
    or is a callable on points.  Raises SingularOrbit on an exact hit."""
    total = None
    for k in range(N):
        if T.hits_singularity(x):
            raise SingularOrbit(k)
        val = phi(x) if callable(phi) else phi[T.pi.index(T.letter_of(x))]
        total = val if total is None else total + val
        x = T.apply(x)
    if total is None:
        zero = T.lam[0] - T.lam[0]
        return zero
    return total


@dataclass
class InducedMap:
    """First-return map of T on a subinterval J, described segment-wise."""

    J: Tuple
    segments: List[Tuple]  # (left, right) pieces of J, in order
    return_times: List[int]
    translations: List  # image offset minus source offset
    itineraries: List[List[str]]
    pi: Optional[CombinatorialData]
    lam: Optional[tuple]


def first_return(T: IEMap, J: Tuple, depth_cap: int = 10**6) -> InducedMap:
    """Induced map on J = (a, b) by exact pursuit of subsegments.

    Segments of J are split whenever their forward image straddles a
    singularity of T or the boundary of J; a segment is finished once its
    image lands back inside J.
    """
    a, b = J
    done: List[Tuple] = []
    # pending entries: (src_lo, src_hi, img_lo, img_hi, word)
    pending = [(a, b, a, b, [])]
    guard = 0
    while pending:
        guard += 1
        if guard > depth_cap:
            raise NoReturn(f"pursuit exceeded {depth_cap} splits")
        src_lo, src_hi, img_lo, img_hi, word = pending.pop()
        if word:
            # back inside J?
            inside_lo = certified_sign(img_lo - a) >= 0
            inside_hi = certified_sign(b - img_hi) >= 0
            if inside_lo and inside_hi:
                done.append((src_lo, src_hi, img_lo, img_hi, word))
                continue
        # split at interior singularities of T and at the J boundary,
        # pushing pieces back unapplied so each is re-checked on pop
        breaks = []
        for u in T.top_singularities() + [a, b]:
            if certified_sign(u - img_lo) > 0 and certified_sign(img_hi - u) > 0:
                breaks.append(u)
        if breaks:
            breaks = _exact_sorted([img_lo] + breaks + [img_hi])
            for lo, hi in zip(breaks[:-1], breaks[1:]):
                off_lo = src_lo + (lo - img_lo)
                off_hi = off_lo + (hi - lo)
                pending.append((off_lo, off_hi, lo, hi, word))
            continue
        # a single continuity piece not yet returned: apply the map once
        letter = T.letter_of(img_lo)
        dlt = T.delta[letter]
        pending.append((src_lo, src_hi, img_lo + dlt, img_hi + dlt, word + [letter]))
    done.sort(key=lambda seg: float(seg[0]))
    done = _exact_sorted_segments(done)
    segments = [(s[0], s[1]) for s in done]
    return_times = [len(s[4]) for s in done]
    translations = [s[2] - s[0] for s in done]
    itineraries = [s[4] for s in done]
    pi, lam = _induced_combinatorics(done, a, b)
    return InducedMap((a, b), segments, return_times, translations, itineraries, pi, lam)


def _exact_sorted(vals: List) -> List:
    out = list(vals)
    n = len(out)
    for i in range(n):
        for j in range(n - 1 - i):
            if certified_sign(out[j] - out[j + 1]) > 0:
                out[j], out[j + 1] = out[j + 1], out[j]
    dedup = [out[0]]
    for v in out[1:]:
        if certified_sign(v - dedup[-1]) != 0:
            dedup.append(v)
    return dedup


def _exact_sorted_segments(done: List[Tuple]) -> List[Tuple]:
    out = list(done)
    n = len(out)
    for i in range(n):
        for j in range(n - 1 - i):
            if certified_sign(out[j][0] - out[j + 1][0]) > 0:
                out[j], out[j + 1] = out[j + 1], out[j]
    return out


def _induced_combinatorics(done: List[Tuple], a, b):
    """Labeled (pi, lambda) of the induced map when segment images tile J."""
    if not done:
        return None, None
    letters = tuple(f"S{i}" for i in range(len(done)))
    order_by_image = sorted(range(len(done)), key=lambda i: float(done[i][2]))
    # verify exactly that images tile J in that order
    prev = a
    for i in order_by_image:
        if certified_sign(done[i][2] - prev) != 0:
            return None, None
        prev = done[i][3]
    if certified_sign(prev - b) != 0:
        return None, None
    top = letters
    bottom = tuple(letters[i] for i in order_by_image)
    pi = CombinatorialData(letters, top, bottom)
    lam = tuple(done[i][1] - done[i][0] for i in range(len(done)))
    return pi, lam
