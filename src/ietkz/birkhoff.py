"""Special Birkhoff sums, the boundary operator, and their dual versions.

Piecewise-constant functions over the exchanged intervals transform under
the renormalization by the integer cocycle matrices; their duals, living
on the vertical return-time intervals, transform by the transposes.  The
sampled-function variants evaluate true orbit sums at exact points so they
can be checked against the matrix action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .combinatorics import CombinatorialData, singular_structure
from .errors import WindowMissing
from .induction import InductionState, Trajectory, visit_words, word_codes
from .numerics import certified_sign, matvec, to_float
from .oracle import IEMap

HORIZONTAL = "horizontal"  # one value per exchanged interval
VERTICAL = "vertical"  # one value per return-time interval


@dataclass(frozen=True)
class PiecewiseConstantVector:
    level: int
    side: str
    values: tuple

    @property
    def d(self) -> int:
        return len(self.values)

    def mean_weights(self, state: InductionState) -> tuple:
        return state.lam if self.side == HORIZONTAL else state.heights()

    def integral(self, state: InductionState):
        w = self.mean_weights(state)
        acc = w[0] * self.values[0]
        for wi, vi in zip(w[1:], self.values[1:]):
            acc = acc + wi * vi
        return acc


@dataclass
class SampledPiecewiseFunction:
    """Per-letter samples (offset, value) with piecewise-affine evaluation."""

    level: int
    side: str
    samples: Dict[str, List[Tuple]]

    def evaluate(self, letter: str, t):
        pts = self.samples[letter]
        if not pts:
            raise ValueError(f"no samples for letter {letter}")
        if len(pts) == 1:
            return pts[0][1]
        tf = float(t)
        xs = [float(x) for x, _ in pts]
        if tf <= xs[0]:
            return pts[0][1]
        for (x0, y0), (x1, y1), f0, f1 in zip(pts, pts[1:], xs, xs[1:]):
            if tf <= f1:
                if f1 == f0:
                    return y1
                w = (tf - f0) / (f1 - f0)
                return y0 + w * (y1 - y0)
        return pts[-1][1]

    def endpoint_values(self, letter: str, length) -> Tuple:
        """(value at offset 0+, value at length-0) for boundary jumps."""
        return self.evaluate(letter, 0), self.evaluate(letter, length)


# ---------------------------------------------------------------------------
# direct special Birkhoff sums


def special_sum(phi: PiecewiseConstantVector, traj: Trajectory, n: int) -> PiecewiseConstantVector:
    """The matrix action of the renormalization on piecewise constants."""
    m = phi.level
    if phi.side != HORIZONTAL:
        raise ValueError("special sums act on the horizontal side")
    if not (traj.n_min <= m <= n <= traj.n_max):
        raise WindowMissing(f"window misses [{m},{n}]")
    B = traj.matrix(m, n)
    return PiecewiseConstantVector(n, HORIZONTAL, matvec(B, phi.values))


def special_sum_sampled(
    phi: SampledPiecewiseFunction,
    traj: Trajectory,
    n: int,
    sample_offsets: Dict[str, List],
) -> SampledPiecewiseFunction:
    """Orbit-sum evaluation of S(m, n) phi at prescribed exact offsets.

    For x in I_alpha^(n) at offset t, sums phi over the visit orbit of x
    under T^(m); tile start positions come from the exact orbit of the left
    endpoint, so the only approximation is phi's own sampling.
    """
    m = phi.level
    if not (traj.n_min <= m <= n <= traj.n_max):
        raise WindowMissing(f"window misses [{m},{n}]")
    st_m = traj.state(m)
    st_n = traj.state(n)
    outer = IEMap(st_m.pi, st_m.lam)
    words = visit_words(traj, m, n)
    out: Dict[str, List[Tuple]] = {}
    for alpha in st_n.pi.letters:
        # left endpoint of I_alpha^(n) in the common coordinate system
        pos = st_n.lam[0] - st_n.lam[0]
        for b in st_n.pi.top:
            if b == alpha:
                break
            pos = pos + st_n.lam[st_n.pi.index(b)]
        # orbit of the left endpoint gives each tile's start position
        tile_starts = []
        tile_letters = words[alpha]
        x = pos
        for _ in tile_letters:
            tile_starts.append(x)
            x = outer.apply(x)
        pts = []
        for t in sample_offsets[alpha]:
            acc = 0.0
            for beta, start in zip(tile_letters, tile_starts):
                lo, _ = outer.top_interval(beta)
                acc = acc + phi.evaluate(beta, (start - lo) + t)
            pts.append((t, acc))
        out[alpha] = pts
    return SampledPiecewiseFunction(n, HORIZONTAL, out)


# ---------------------------------------------------------------------------
# boundary operator


def boundary_matrix(pi: CombinatorialData) -> np.ndarray:
    """Integer matrix of the boundary operator on piecewise constants.

    Row per cycle of the vertex permutation, column per letter: the jump
    sum over the top singularities grouped into that cycle, with zero
    boundary values at both ends of the interval.
    """
    st = singular_structure(pi)
    d = pi.d
    D = np.zeros((st.s, d), dtype=object)
    for ci, idxs in enumerate(st.u_indices):
        for i in idxs:
            if i >= 1:
                D[ci, pi.index(pi.top[i - 1])] += 1
            if i <= d - 1:
                D[ci, pi.index(pi.top[i])] -= 1
    return D


def boundary(phi, state: InductionState):
    """Boundary vector over the singularity cycles.

    Accepts a piecewise-constant vector or a sampled function; jumps are
    taken at the top singularities with the zero-endpoint convention.
    """
    pi = state.pi
    st = singular_structure(pi)
    d = pi.d
    if isinstance(phi, PiecewiseConstantVector):
        D = boundary_matrix(pi)
        return matvec(D, phi.values)
    values_left = {}
    values_right = {}
    for a in pi.letters:
        lo, hi = IEMap(pi, state.lam).top_interval(a)
        v0, v1 = phi.endpoint_values(a, hi - lo)
        values_right[a] = v0  # value at u_i^t + 0 for the left edge
        values_left[a] = v1  # value at u_{i+1}^t - 0 for the right edge
    out = []
    for idxs in st.u_indices:
        acc = 0.0
        for i in idxs:
            minus = values_left[pi.top[i - 1]] if i >= 1 else 0.0
            plus = values_right[pi.top[i]] if i <= d - 1 else 0.0
            acc = acc + (minus - plus)
        out.append(acc)
    return tuple(out)


def match_cycles(traj: Trajectory, m: int, n: int) -> List[int]:
    """Bijection from level-m cycles to level-n cycles.

    Uses boundary invariance: the boundary of a transported piecewise
    constant is the permuted boundary, so matching the rows of D_n B(m, n)
    with the rows of D_m identifies the marked points across levels.
    Returns ``perm`` with cycle i at level m corresponding to perm[i] at n.
    """
    Dm = boundary_matrix(traj.state(m).pi)
    Dn = boundary_matrix(traj.state(n).pi)
    B = traj.matrix(m, n)
    prod = Dn @ B
    s = Dm.shape[0]
    perm: List[int] = []
    used = set()
    for i in range(s):
        row = list(Dm[i, :])
        cand = [j for j in range(s) if j not in used and list(prod[j, :]) == row]
        if len(cand) != 1:
            # fall back to stepwise matching through the window
            return _match_cycles_stepwise(traj, m, n)
        perm.append(cand[0])
        used.add(cand[0])
    return perm


def _match_cycles_stepwise(traj: Trajectory, m: int, n: int) -> List[int]:
    perm = list(range(boundary_matrix(traj.state(m).pi).shape[0]))
    for k in range(m, n):
        Dk = boundary_matrix(traj.state(k).pi)
        Dk1 = boundary_matrix(traj.state(k + 1).pi)
        B = traj.matrix(k, k + 1)
        prod = Dk1 @ B
        s = Dk.shape[0]
        step: List[int] = []
        used = set()
        for i in range(s):
            row = list(Dk[i, :])
            cand = [j for j in range(s) if j not in used and list(prod[j, :]) == row]
            if not cand:
                raise ValueError("cycle matching failed (bug trap)")
            step.append(cand[0])
            used.add(cand[0])
        perm = [step[p] for p in perm]
    return perm


# ---------------------------------------------------------------------------
# dual families and dual special Birkhoff sums


def dual_family(state: InductionState) -> List[Tuple[str, object]]:
    """(letter, height) pairs describing the vertical interval family."""
    q = state.heights()
    out = []
    for a in state.pi.letters:
        h = q[state.pi.index(a)]
        assert certified_sign(h) == 1
        out.append((a, h))
    return out


@dataclass
class DualDecomposition:
    alpha: str
    level: int
    source_level: int
    letters: List[str]  # beta(alpha, j) in orbit order
    offsets: List  # Sq(j) prefix sums of source heights
    total: object  # q_alpha at the target level


def dual_decomposition(traj: Trajectory, n_prime: int, n: int, alpha: str) -> DualDecomposition:
    """Tiling of the vertical interval at level n by level-n' copies."""
    if not (traj.n_min <= n_prime <= n <= traj.n_max):
        raise WindowMissing(f"window misses [{n_prime},{n}]")
    word = visit_words(traj, n_prime, n)[alpha]
    st = traj.state(n_prime)
    q = st.heights()
    offsets = []
    acc = q[0] - q[0]
    for b in word:
        offsets.append(acc)
        acc = acc + q[st.pi.index(b)]
    qn = traj.state(n).heights()
    total = qn[traj.state(n).pi.index(alpha)]
    assert certified_sign(acc - total) == 0
    return DualDecomposition(alpha, n, n_prime, word, offsets, total)


def dual_sum(psi, traj: Trajectory, n_prime: int) -> object:
    """Dual special Birkhoff sum, sending level-n data to level n' <= n.

    On vertical piecewise constants this is exactly the transpose cocycle
    matrix; on sampled functions it evaluates the input at every shifted
    copy of the target interval, with no re-interpolation inside the sum.
    """
    n = psi.level
    if not (traj.n_min <= n_prime <= n <= traj.n_max):
        raise WindowMissing(f"window misses [{n_prime},{n}]")
    if isinstance(psi, PiecewiseConstantVector):
        if psi.side != VERTICAL:
            raise ValueError("dual sums act on the vertical side")
        B = traj.matrix(n_prime, n)
        return PiecewiseConstantVector(n_prime, VERTICAL, matvec(B.T, psi.values))
    st_n = traj.state(n)
    decomps = {a: dual_decomposition(traj, n_prime, n, a) for a in st_n.pi.letters}
    st_p = traj.state(n_prime)
    qp = st_p.heights()
    out: Dict[str, List[Tuple]] = {}
    for beta in st_p.pi.letters:
        height = qp[st_p.pi.index(beta)]
        offsets = _default_offsets(height, psi_density(psi))
        pts = []
        for t in offsets:
            acc = 0.0
            for alpha, dec in decomps.items():
                for b, off in zip(dec.letters, dec.offsets):
                    if b == beta:
                        acc = acc + psi.evaluate(alpha, off + t)
            pts.append((t, acc))
        out[beta] = pts
    return SampledPiecewiseFunction(n_prime, VERTICAL, out)


def psi_density(psi: SampledPiecewiseFunction) -> int:
    return max(len(v) for v in psi.samples.values())


def _default_offsets(length, count: int) -> List:
    from fractions import Fraction

    count = max(count, 2)
    return [length * Fraction(k, count - 1) for k in range(count)]


def dual_holder_profile(
    traj: Trajectory,
    levels: Sequence[int],
    psi,
    alpha_star: str,
    grid: int = 6,
) -> List[dict]:
    """Sup of the dual sums of a test function down the backward levels.

    psi is evaluated on the vertical interval of ``alpha_star`` at level 0
    and extended by zero to the other letters; at each requested level the
    dual sum is evaluated on a uniform grid with the copy offsets handled
    as vectorized float arrays (the count grows like the window norm, so
    exact arithmetic would be pointless here and floats are honest).

    The word of ``alpha_star`` at each level is its visit word from
    ``word_codes``, an array of letter codes (the canonical letter index,
    the same at every level).
    """
    st0 = traj.state(0)
    d = st0.d
    a_idx = st0.pi.index(alpha_star)
    out = []
    for n in sorted(set(int(n) for n in levels), reverse=True):
        word = word_codes(traj, n, 0)[a_idx]
        st_n = traj.state(n)
        qf = np.array([to_float(x) for x in st_n.heights()], dtype=float)
        steps = qf[word]
        starts = np.concatenate([[0.0], np.cumsum(steps)[:-1]])
        sup = 0.0
        for b_idx in range(d):
            sel = starts[word == b_idx]
            if sel.size == 0:
                continue
            xs = np.linspace(0.0, qf[b_idx], grid, endpoint=False) + qf[b_idx] / (2 * grid)
            for x in xs:
                pts = sel + x
                val = 0.0
                for m, c, p in psi.modes:
                    w = 2 * math.pi * m / psi.length
                    val += c * float(np.sum(np.cos(w * pts + p)))
                sup = max(sup, abs(val))
        norm = traj.norm(n, 0)
        out.append({"n": n, "sup": sup, "log_norm": math.log(norm)})
    return out


def sample_gamma_vector(vec: PiecewiseConstantVector, state: InductionState, count: int = 2) -> SampledPiecewiseFunction:
    lengths = vec.mean_weights(state)
    samples = {}
    for a in state.pi.letters:
        length = lengths[state.pi.index(a)]
        samples[a] = [(t, vec.values[state.pi.index(a)]) for t in _default_offsets(length, count)]
    return SampledPiecewiseFunction(vec.level, vec.side, samples)


def integral_sampled(psi: SampledPiecewiseFunction, state: InductionState) -> float:
    """Trapezoid integral of the piecewise-affine interpolant."""
    weights = state.lam if psi.side == HORIZONTAL else state.heights()
    total = 0.0
    for a in state.pi.letters:
        length = float(weights[state.pi.index(a)])
        pts = [(float(x), float(y)) for x, y in psi.samples[a]]
        if len(pts) == 1:
            total += pts[0][1] * length
            continue
        if pts[0][0] > 0:
            total += pts[0][1] * pts[0][0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            total += 0.5 * (y0 + y1) * (x1 - x0)
        if pts[-1][0] < length:
            total += pts[-1][1] * (length - pts[-1][0])
    return total
