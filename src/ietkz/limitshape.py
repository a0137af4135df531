"""Finite-horizon Oseledets surrogates and distributional limit shapes.

The stable/unstable splitting is estimated by singular value decomposition
of the window's cocycle products; its quality is measured by the singular
value ratio at the cut and untrusted splittings poison verdicts rather
than computations.  Graphs are built in raw height coordinates with exact
scalars so the refinement identities can be checked exactly; the unit
normalization only enters exported coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .combinatorics import singular_structure
from .cones import subspace_basis
from .errors import (
    DegenerateGap,
    InsufficientTrajectory,
    NotMeanZero,
    SingularPoint,
    SplittingUntrusted,
    WindowMissing,
)
from .induction import InductionState, Trajectory, visit_words
from .numerics import certified_sign, exact_log, matvec, to_float
from .oracle import IEMap

SNAP_DENOMINATOR = 10**12


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        raise ValueError("degenerate abscissae")
    return num / den


def _float_matrix(M: np.ndarray) -> np.ndarray:
    """Float copy, rescaled by a power of two when entries would overflow.

    Every consumer (SVD directions, gap ratios, projections) is invariant
    under a global positive rescaling, so the shift is unobservable."""
    entries = [x for row in M for x in row]
    bits = max(int(x).bit_length() if isinstance(x, int) else 0 for x in entries)
    shift = max(0, bits - 900)
    if shift == 0:
        return np.array([[to_float(x) for x in row] for row in M], dtype=float)
    return np.array(
        [[to_float(Fraction(int(x), 1 << shift)) for x in row] for row in M], dtype=float
    )


def _orth_columns(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q[:, : cols.shape[1]]


@dataclass
class SplittingEstimate:
    window: Tuple[int, int]
    g: int
    s: int
    stable: np.ndarray  # d x g float basis at level 0
    unstable: np.ndarray  # d x g
    central: np.ndarray  # d x (s-1)
    gap_forward: float
    gap_backward: float
    trusted: bool
    subspace_residual: float  # distance of stable/unstable to the exact subspace

    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.stable.shape[1], self.unstable.shape[1], self.central.shape[1])

    def full_basis(self) -> np.ndarray:
        return np.concatenate([self.stable, self.unstable, self.central], axis=1)

    def project(self, v: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of v split into (stable, unstable, central) components."""
        A = self.full_basis()
        coef, *_ = np.linalg.lstsq(A, np.array([float(x) for x in v]), rcond=None)
        g = self.stable.shape[1]
        gu = self.unstable.shape[1]
        vs = self.stable @ coef[:g]
        vu = self.unstable @ coef[g : g + gu]
        vc = self.central @ coef[g + gu :] if self.central.shape[1] else np.zeros(len(v))
        return vs, vu, vc


def splitting_estimate(
    traj: Trajectory,
    window: Optional[Tuple[int, int]] = None,
    trust_threshold: float = 10.0,
    require_trusted: bool = False,
) -> SplittingEstimate:
    """SVD-based estimate of the stable/unstable/central splitting at level 0.

    The unstable space is spanned by the top left singular directions of
    the backward product, the stable space by the smallest right singular
    directions of the forward product (projected into the exact subspace),
    and the central complement minimizes two-sided growth.
    """
    if window is None:
        window = (traj.n_min, traj.n_max)
    n_lo, n_hi = window
    if n_lo > -1 or n_hi < 1:
        raise InsufficientTrajectory("need a two-sided window around level 0")
    st = singular_structure(traj.state(0).pi)
    g, s = st.g, st.s
    d = traj.state(0).d
    Bf = _float_matrix(traj.matrix(0, n_hi))
    Bf /= np.linalg.norm(Bf)
    Bb = _float_matrix(traj.matrix(n_lo, 0))
    Bb /= np.linalg.norm(Bb)
    Uf, Sf, Vtf = np.linalg.svd(Bf)
    Ub, Sb, Vtb = np.linalg.svd(Bb)
    stable = Vtf.T[:, d - g :]
    unstable = Ub[:, :g]
    # exact ambient subspace, as a float projector
    basis = subspace_basis(traj.state(0).pi)
    H = _orth_columns(np.array([[to_float(x) for x in b] for b in basis]).T)
    proj = H @ H.T
    resid = max(
        float(np.linalg.norm(stable - proj @ stable)),
        float(np.linalg.norm(unstable - proj @ unstable)),
    )
    stable = _orth_columns(proj @ stable)
    unstable = _orth_columns(proj @ unstable)
    if s > 1:
        inv_b = _float_matrix(traj.transport(0, n_lo))
        stack = np.concatenate([Bf / np.linalg.norm(Bf), inv_b / np.linalg.norm(inv_b)], axis=0)
        _, _, Vc = np.linalg.svd(stack)
        central = Vc.T[:, d - (s - 1) :]
    else:
        central = np.zeros((d, 0))
    gap_f = float(Sf[d - g - 1] / Sf[d - g]) if d - g - 1 >= 0 and Sf[d - g] > 0 else float("inf")
    gap_b = float(Sb[g - 1] / Sb[g]) if g < d and Sb[g] > 0 else float("inf")
    trusted = gap_f >= trust_threshold and gap_b >= trust_threshold
    est = SplittingEstimate(window, g, s, stable, unstable, central, gap_f, gap_b, trusted, resid)
    if require_trusted and not trusted:
        raise DegenerateGap(f"singular value gaps ({gap_f:.2f}, {gap_b:.2f}) below {trust_threshold}")
    return est


# ---------------------------------------------------------------------------
# central sequences


@dataclass
class CentralSequence:
    """Cocycle-compatible per-level vectors with a growth certificate."""

    vectors: Dict[int, tuple]  # level -> exact per-letter values
    provenance: str  # "central" or "corrected-characteristic"
    traj: Trajectory = field(repr=False)

    def vector(self, n: int) -> tuple:
        return self.vectors[n]

    def sup_slope(self) -> float:
        """Slope of log sup-norm against Zorich time over the window."""
        xs, ys = [], []
        for n, v in sorted(self.vectors.items()):
            sup = max(abs(to_float(x)) for x in v)
            if sup > 0:
                xs.append(abs(self.traj.zorich_time(n)))
                ys.append(math.log(sup))
        return fit_slope(xs, ys)

    def check_transport(self) -> bool:
        levels = sorted(self.vectors)
        # forward products only: the levels below 0 were built with inverses,
        # so this checks them independently of how they were built
        for m, n in zip(levels, levels[1:]):
            got = matvec(self.traj.matrix(m, n), self.vectors[m])
            if any(certified_sign(a - b) != 0 for a, b in zip(got, self.vectors[n])):
                return False
        return True


def central_sequence_from_vector(traj: Trajectory, chi0: Sequence, window: Tuple[int, int]) -> CentralSequence:
    """Transport an exact level-0 vector through the window by the cocycle."""
    n_lo, n_hi = window
    vectors: Dict[int, tuple] = {0: tuple(chi0)}
    for n in range(1, n_hi + 1):
        vectors[n] = matvec(traj.transport(n - 1, n), vectors[n - 1])
    for n in range(-1, n_lo - 1, -1):
        vectors[n] = matvec(traj.transport(n + 1, n), vectors[n + 1])
    return CentralSequence(vectors, "central", traj)


def estimated_central_vector(traj: Trajectory, est: SplittingEstimate) -> tuple:
    """A rational vector close to the estimated central line (s = 2 only)."""
    if est.central.shape[1] != 1:
        raise ValueError("central direction extraction needs s = 2")
    v = est.central[:, 0]
    scale = max(abs(x) for x in v)
    return tuple(Fraction(float(x / scale)).limit_denominator(SNAP_DENOMINATOR) for x in v)


# ---------------------------------------------------------------------------
# corrected characteristic functions


@dataclass
class CorrectedCharacteristic:
    """Indicator of (0, xi) corrected into a slowly growing sequence.

    The function at level n is the indicator of (0, xi_n) plus the exact
    piecewise-constant correction; corrections transport exactly by
    construction, so consistency is an algebraic identity.
    """

    traj: Trajectory = field(repr=False)
    xi: Dict[int, object]
    corrections: Dict[int, tuple]
    raw_jumps: Dict[int, tuple]  # Delta-chi-tilde per level (exact)

    def sup_norm(self, n: int) -> float:
        st = self.traj.state(n)
        v = self.corrections[n]
        xi = self.xi[n]
        best = 0.0
        pos = st.lam[0] - st.lam[0]
        for a in st.pi.top:
            i = st.pi.index(a)
            lo, hi = pos, pos + st.lam[i]
            pos = hi
            s_lo = certified_sign(xi - lo)
            s_hi = certified_sign(xi - hi)
            vals = []
            if s_lo > 0:  # part of the interval lies left of xi
                vals.append(v[i] + 1)
            if s_hi < 0 or s_hi == 0:  # part lies right of xi (or touches)
                vals.append(v[i])
            if s_lo <= 0:
                vals = [v[i]]
            for val in vals:
                best = max(best, abs(to_float(val)))
        return best

    def sup_slope(self, levels: Optional[Sequence[int]] = None) -> float:
        if levels is None:
            levels = sorted(self.corrections)
        xs, ys = [], []
        for n in levels:
            sup = self.sup_norm(n)
            if sup > 0:
                xs.append(abs(self.traj.zorich_time(n)))
                ys.append(math.log(sup))
        return fit_slope(xs, ys)

    def check_transport(self) -> bool:
        """v^(n) = B(n-1,n) v^(n-1) + raw_jumps^(n), exactly, everywhere."""
        levels = sorted(self.corrections)
        for m, n in zip(levels, levels[1:]):
            moved = matvec(self.traj.matrix(m, n), self.corrections[m])
            got = tuple(x + j for x, j in zip(moved, self.raw_jumps[n]))
            if any(certified_sign(a - b) != 0 for a, b in zip(got, self.corrections[n])):
                return False
        return True


def _compatible_points(traj: Trajectory, xi0) -> Dict[int, object]:
    """xi_n: first entry to I^(n) under the inverse map going forward, the
    constant choice going backward."""
    xi = {0: xi0}
    for n in range(1, traj.n_max + 1):
        st_prev = traj.state(n - 1)
        T = IEMap(st_prev.pi, st_prev.lam)
        x = xi[n - 1]
        total_n = traj.state(n).total_length()
        for _ in range(10**6):
            if certified_sign(total_n - x) > 0:
                break
            x = T.apply_inverse(x)
        else:
            raise WindowMissing("no entry into the inducing interval")
        xi[n] = x
    for n in range(-1, traj.n_min - 1, -1):
        xi[n] = xi0
    return xi


def _indicator_value(st: InductionState, xi, letter_index: int, point) -> int:
    s = certified_sign(xi - point)
    if s == 0:
        raise SingularPoint("sample point hits the indicator jump")
    return 1 if s > 0 else 0


def _interval_bounds(st: InductionState, letter: str):
    pos = st.lam[0] - st.lam[0]
    for a in st.pi.top:
        width = st.lam[st.pi.index(a)]
        if a == letter:
            return pos, pos + width
        pos = pos + width
    raise KeyError(letter)


def _delta_jump(traj: Trajectory, n: int, xi: Dict[int, object]) -> tuple:
    """Exact Gamma-vector S(n-1,n) chi~^(n-1) - chi~^(n) at level n.

    Evaluated at two interior points of each exchanged interval chosen
    away from the indicator jump; agreement of the two evaluations is a
    built-in consistency trap.
    """
    st = traj.state(n)
    st_prev = traj.state(n - 1)
    T = IEMap(st_prev.pi, st_prev.lam)
    B = traj.matrix(n - 1, n)
    d = st.d
    out = []
    for a in st.pi.top:
        i = st.pi.index(a)
        lo, hi = _interval_bounds(st, a)
        width = hi - lo
        candidates = [lo + width * Fraction(p, q) for p, q in ((1, 3), (1, 2), (2, 3), (1, 5), (4, 5))]
        vals = []
        for x in candidates:
            if certified_sign(xi[n] - x) == 0:
                continue
            r = int(sum(B[i, :]))
            total = 0
            y = x
            ok = True
            for _ in range(r):
                s = certified_sign(xi[n - 1] - y)
                if s == 0:
                    ok = False
                    break
                total += 1 if s > 0 else 0
                y = T.apply(y)
            if not ok:
                continue
            vals.append(total - _indicator_value(st, xi[n], i, x))
            if len(vals) == 2:
                break
        if len(vals) < 2 or vals[0] != vals[1]:
            raise SingularPoint(f"cannot evaluate the jump vector at level {n}")
        out.append(Fraction(vals[0]))
    # reorder from top order to canonical order
    by_letter = {a: v for a, v in zip(st.pi.top, out)}
    return tuple(by_letter[a] for a in st.pi.letters)


def _snap_component(vec: np.ndarray) -> tuple:
    return tuple(Fraction(float(x)).limit_denominator(SNAP_DENOMINATOR) for x in vec)


def correct_characteristic(
    traj: Trajectory,
    xi0,
    window: Optional[Tuple[int, int]] = None,
    est: Optional[SplittingEstimate] = None,
    allow_untrusted: bool = False,
) -> CorrectedCharacteristic:
    """Builds the corrected indicator sequence over the window.

    The per-level jump vectors are split along the estimated splitting;
    the stable (and central) parts accumulate forward, the unstable parts
    backward, so the corrected function transports exactly and its
    sup-norm growth is subexponential when the splitting is honest.
    """
    if window is None:
        window = (traj.n_min, traj.n_max)
    n_lo, n_hi = window
    st0 = traj.state(0)
    total0 = st0.total_length()
    if certified_sign(xi0) <= 0 or certified_sign(total0 - xi0) <= 0:
        raise SingularPoint("point must lie in the open interval")
    T0 = IEMap(st0.pi, st0.lam)
    if T0.hits_singularity(xi0):
        raise SingularPoint("point coincides with a singularity")
    if est is None:
        est = splitting_estimate(traj, window)
    if not est.trusted and not allow_untrusted:
        raise SplittingUntrusted(
            f"splitting gaps ({est.gap_forward:.2f}, {est.gap_backward:.2f}) too small"
        )
    xi = _compatible_points(traj, xi0)
    d = st0.d
    jumps: Dict[int, tuple] = {}
    jump_stable: Dict[int, tuple] = {}
    jump_unstable: Dict[int, tuple] = {}
    for n in range(n_lo + 1, n_hi + 1):
        jump = _delta_jump(traj, n, xi)
        jumps[n] = jump
        # split along the splitting transported to level n
        vs, vu, vc = _transported_split(traj, est, n, jump)
        u_exact = _snap_component(vu)
        s_exact = tuple(a - b for a, b in zip(jump, u_exact))  # stable + central
        jump_stable[n] = s_exact
        jump_unstable[n] = u_exact
    corrections: Dict[int, tuple] = {}
    zero = tuple(Fraction(0) for _ in range(d))
    # forward accumulation of stable-side parts
    acc: Dict[int, tuple] = {n_lo: zero}
    for n in range(n_lo + 1, n_hi + 1):
        moved = matvec(traj.transport(n - 1, n), acc[n - 1])
        acc[n] = tuple(m + s for m, s in zip(moved, jump_stable[n]))
    # backward accumulation of unstable parts
    uacc: Dict[int, tuple] = {n_hi: zero}
    for n in range(n_hi - 1, n_lo - 1, -1):
        nxt = tuple(a + u for a, u in zip(uacc[n + 1], jump_unstable[n + 1]))
        uacc[n] = matvec(traj.transport(n + 1, n), nxt)
    for n in range(n_lo, n_hi + 1):
        corrections[n] = tuple(a - u for a, u in zip(acc[n], uacc[n]))
    return CorrectedCharacteristic(traj, xi, corrections, jumps)


def _transported_split(traj: Trajectory, est: SplittingEstimate, n: int, vec: Sequence):
    d = len(vec)
    M = _float_matrix(traj.transport(0, n))
    stable = _orth_columns(M @ est.stable)
    unstable = _orth_columns(M @ est.unstable)
    central = _orth_columns(M @ est.central) if est.central.shape[1] else np.zeros((d, 0))
    A = np.concatenate([stable, unstable, central], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array([to_float(x) for x in vec]), rcond=None)
    g = stable.shape[1]
    gu = unstable.shape[1]
    vs = stable @ coef[:g]
    vu = unstable @ coef[g : g + gu]
    vc = central @ coef[g + gu :] if central.shape[1] else np.zeros(d)
    return vs, vu, vc


def uncorrected_transport(traj: Trajectory, xi: Dict[int, object], n: int) -> float:
    """Sup-norm of S(0, n) of the bare indicator, for growth comparison."""
    st0 = traj.state(0)
    stn = traj.state(n)
    T0 = IEMap(st0.pi, st0.lam)
    B = traj.matrix(0, n)
    best = 0.0
    for a in stn.pi.top:
        i = stn.pi.index(a)
        lo, hi = _interval_bounds(stn, a)
        x = lo + (hi - lo) / 2
        r = int(sum(B[i, :]))
        total = 0
        y = x
        for _ in range(r):
            s = certified_sign(xi[0] - y)
            if s > 0:
                total += 1
            y = T0.apply(y)
        best = max(best, float(total))
    return best


# ---------------------------------------------------------------------------
# heights and limit-shape graphs


def perron_heights(traj: Trajectory):
    """Unit height direction, with per-level norms along the backward window.

    Returns (q_unit floats, {n: Theta}, exact raw q at level 0); the raw
    transport identity B(n,0) q^(n) = q^(0) holds exactly and is asserted.
    """
    st0 = traj.state(0)
    q0 = st0.heights()
    norm0 = math.sqrt(sum(to_float(x) ** 2 for x in q0))
    thetas: Dict[int, float] = {}
    for n in range(0, traj.n_min - 1, -1):
        qn = traj.state(n).heights()
        back = matvec(traj.transport(n, 0), qn)
        assert all(certified_sign(a - b) == 0 for a, b in zip(back, q0))
        thetas[n] = math.sqrt(sum(to_float(x) ** 2 for x in qn)) / norm0
    unit = [to_float(x) / norm0 for x in q0]
    return unit, thetas, q0


@dataclass
class LimitShapeGraph:
    """Mean-zero piecewise-affine graph in raw height coordinates."""

    alpha: str
    level: int
    breakpoints: list  # exact scalars, increasing, breakpoints[0] = 0
    values: list  # exact scalars at the breakpoints, mean zero
    letters: List[str]  # the level-n letter of each segment
    scale: float  # l2 norm of the level-0 raw heights, for unit display

    @property
    def total(self):
        return self.breakpoints[-1]

    def value_at(self, x):
        """Exact piecewise-affine evaluation at an exact abscissa."""
        bp = self.breakpoints
        for j in range(len(bp) - 1):
            inside = certified_sign(x - bp[j]) >= 0 and certified_sign(bp[j + 1] - x) >= 0
            if inside:
                width = bp[j + 1] - bp[j]
                t = x - bp[j]
                return self.values[j] + (self.values[j + 1] - self.values[j]) * t / width
        raise ValueError("abscissa outside the domain")

    def float_points(self) -> List[Tuple[float, float]]:
        return [(to_float(x) / self.scale, to_float(y)) for x, y in zip(self.breakpoints, self.values)]

    def integral(self):
        acc = None
        for j in range(len(self.breakpoints) - 1):
            w = self.breakpoints[j + 1] - self.breakpoints[j]
            term = w * (self.values[j] + self.values[j + 1])
            acc = term if acc is None else acc + term
        return acc / 2  # trapezoid rule, halved once


def omega_graph(traj: Trajectory, chi: CentralSequence, n: int, alpha: str) -> LimitShapeGraph:
    """Plots partial transported sums over the vertical return structure.

    Breakpoints are prefix sums of the level-n heights along the visit
    word of alpha; increments are the level-n values of the sequence; the
    additive constant is fixed by exact mean zero over the domain.
    """
    if n > 0 or n < traj.n_min or 0 > traj.n_max:
        raise WindowMissing(f"window misses [{n},0]")
    st_n = traj.state(n)
    word = visit_words(traj, n, 0)[alpha]
    q = st_n.heights()
    chi_n = chi.vector(n)
    zero = q[0] - q[0]
    bps = [zero]
    vals = [zero]
    for b in word:
        i = st_n.pi.index(b)
        bps.append(bps[-1] + q[i])
        vals.append(vals[-1] + chi_n[i])
    q0 = traj.state(0).heights()
    scale = math.sqrt(sum(to_float(x) ** 2 for x in q0))
    graph = LimitShapeGraph(alpha, n, bps, vals, list(word), scale)
    # subtract the exact mean
    mean = graph.integral() / graph.total
    graph.values = [v - mean for v in vals]
    return graph


@dataclass
class RefinementReport:
    constant_offsets_exact: bool
    copies_exact: bool
    max_offset_dev: float
    max_copy_dev: float


def refinement_check(traj: Trajectory, chi: CentralSequence, n_prime: int, n: int, alpha: str) -> RefinementReport:
    """Verifies the two comparison identities between nested graphs.

    (i) at the coarse breakpoints the two graphs differ by one constant;
    (ii) each coarse segment of the fine graph is the mean-shifted graph of
    the corresponding letter over the inner window.  Exact scalars make
    both checks exact; deviations are reported as floats.
    """
    if not (traj.n_min <= n_prime <= n <= 0 <= traj.n_max):
        raise WindowMissing("refinement window not covered")
    coarse = omega_graph(traj, chi, n, alpha)
    fine = omega_graph(traj, chi, n_prime, alpha)
    # (i) constant vertical offset at the coarse vertices
    offsets = []
    for x, y in zip(coarse.breakpoints, coarse.values):
        offsets.append(fine.value_at(x) - y)
    base = offsets[0]
    dev0 = max((abs(to_float(o - base)) for o in offsets[1:]), default=0.0)
    # (ii) rescaled copies over each coarse segment
    inner_words = visit_words(traj, n_prime, n)
    st_p = traj.state(n_prime)
    qp = st_p.heights()
    chi_p = chi.vector(n_prime)
    dev1 = 0.0
    for seg, beta in enumerate(coarse.letters):
        x0 = coarse.breakpoints[seg]
        x1 = coarse.breakpoints[seg + 1]
        word = inner_words[beta]
        # expected inner profile: prefix sums of chi^(n') along the block
        zero = qp[0] - qp[0]
        xs = [zero]
        ys = [zero]
        for b in word:
            i = st_p.pi.index(b)
            xs.append(xs[-1] + qp[i])
            ys.append(ys[-1] + chi_p[i])
        mean = LimitShapeGraph(beta, n_prime, xs, ys, list(word), 1.0).integral() / xs[-1]
        # compare against the fine graph restricted to [x0, x1]
        assert certified_sign((x1 - x0) - xs[-1]) == 0
        # segment mean of the fine graph
        got = [fine.value_at(x0 + xx) for xx in xs]
        c_seg = LimitShapeGraph(beta, n_prime, xs, got, list(word), 1.0).integral() / xs[-1]
        for g, yy in zip(got, ys):
            dev1 = max(dev1, abs(to_float((g - c_seg) - (yy - mean))))
    return RefinementReport(dev0 == 0.0, dev1 == 0.0, dev0, dev1)


# ---------------------------------------------------------------------------
# Hoelder test functions and distributional pairings


@dataclass
class FourierTestFunction:
    """Mean-zero finite Fourier sum of Hoelder exponent eta."""

    length: float
    modes: List[Tuple[int, float, float]]  # (m, amplitude, phase)
    eta: float

    def __call__(self, x: float) -> float:
        return sum(c * math.cos(2 * math.pi * m * x / self.length + p) for m, c, p in self.modes)

    @staticmethod
    def random(length: float, eta: float, n_modes: int, rng) -> "FourierTestFunction":
        modes = []
        for m in range(1, n_modes + 1):
            amp = rng.choice([-1.0, 1.0]) * m ** (-eta - 0.5)
            phase = rng.uniform(0, 2 * math.pi)
            modes.append((m, amp, phase))
        return FourierTestFunction(length, modes, eta)


def pairing(graph: LimitShapeGraph, psi: FourierTestFunction) -> float:
    """Integral of psi against the graph: closed form on every segment."""
    xs = np.array([to_float(x) for x in graph.breakpoints], dtype=float)
    ys = np.array([to_float(y) for y in graph.values], dtype=float)
    # whole Fourier modes are mean-zero exactly when the domain matches the period
    if abs(xs[-1] - psi.length) > 1e-9 * max(1.0, psi.length):
        raise NotMeanZero("test function period does not match the graph domain")
    x0, x1 = xs[:-1], xs[1:]
    y0, y1 = ys[:-1], ys[1:]
    width = x1 - x0
    slope = np.where(width > 0, (y1 - y0) / np.where(width > 0, width, 1.0), 0.0)
    total = 0.0
    for m, c, p in psi.modes:
        w = 2 * math.pi * m / psi.length
        # antiderivative of (y0 + slope (x - x0)) cos(w x + p)
        upper = (y0 + slope * width) * np.sin(w * x1 + p) / w + slope * np.cos(w * x1 + p) / w**2
        lower = y0 * np.sin(w * x0 + p) / w + slope * np.cos(w * x0 + p) / w**2
        total += c * float(np.sum(upper - lower))
    return total


@dataclass
class PairingReport:
    levels: List[int]
    pairings: List[float]
    differences: List[float]
    log_norms: List[float]
    slope: Optional[float]
    expected_slope: Optional[float] = None  # -delta/4 from an estimated theta


def pair_test(
    traj: Trajectory,
    graphs: Sequence[LimitShapeGraph],
    psi: FourierTestFunction,
    theta: Optional[float] = None,
) -> PairingReport:
    """Pairings of one letter's graphs against a fixed test function down the window.

    ``graphs`` are omega graphs of traj at several levels.  Reports
    successive differences and the fitted slope of log |difference| against
    log ||B(n, 0)||; distributional convergence shows as a negative slope.
    """
    graphs = sorted(graphs, key=lambda g: g.level, reverse=True)  # towards -infinity
    levels = [g.level for g in graphs]
    vals = [pairing(g, psi) for g in graphs]
    norms = [float(exact_log(traj.norm(n, 0))) for n in levels]
    # difference between levels (n, n') is controlled by the norm at n,
    # the level closer to zero
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    xs, ys = [], []
    for d, ln in zip(diffs, norms[:-1]):
        if d > 0 and ln > 0:
            xs.append(ln)
            ys.append(math.log(d))
    slope = fit_slope(xs, ys) if len(xs) >= 2 else None
    expected = -(theta * psi.eta / 5) / 4 if theta is not None else None
    return PairingReport(list(levels), vals, diffs, norms, slope, expected)
