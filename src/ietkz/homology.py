"""Homology-basis calculus: words, broken lines, projections, sections.

Everything is coordinate-level: classes are coefficient vectors in the
per-level bases, moved between levels m and n by the exact integer matrix
``Trajectory.transport(m, n)`` (B(m, n), or B(n, m)^-1 going down); no
simplicial topology is computed.  The broken lines replay the limit-shape
construction inside the punctured-surface and relative homology lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .birkhoff import boundary_matrix, match_cycles
from .combinatorics import singular_structure
from .errors import (
    ConsistencyFailure,
    InsufficientTrajectory,
    LevelMismatch,
    NotMeanZero,
    RequiresMultipleSingularities,
    SplittingUntrusted,
    WindowMissing,
)
from .induction import Trajectory, spell, visit_words, word_codes
from .limitshape import (
    SNAP_DENOMINATOR,
    LimitShapeGraph,
    SplittingEstimate,
    fit_slope,
    splitting_estimate,
)
from .numerics import certified_sign, exact_log, matvec, to_float
from .simplex import min_sup_norm_solution

BACKWARD = "Backward"
DUAL_FORWARD = "DualForward"


def substitution_words(traj: Trajectory, n: int, direction: str) -> Dict[str, List[str]]:
    """Words spelling the level-n decompositions of the level-0 objects.

    Backward (n <= 0): the visit itinerary of the orbit of I_alpha^(0)
    under T^(n); the count of beta equals B(n,0)[alpha, beta].

    DualForward (n >= 0): the left-to-right strip decomposition of
    I_alpha^(0) into translates of the I_beta^(n); one step expands the
    winner into (winner, loser) for both arrow types (the dual rule of
    ``word_codes``), and the count of beta equals B(0,n)[beta, alpha] (the
    transpose convention is forced by the basis transport and verified
    against the oracle).
    """
    if direction == BACKWARD:
        if n > 0:
            raise ValueError("backward words need n <= 0")
        return visit_words(traj, n, 0)
    if direction != DUAL_FORWARD:
        raise ValueError(f"unknown direction {direction!r}")
    if n < 0:
        raise ValueError("dual forward words need n >= 0")
    if n > traj.n_max:
        raise WindowMissing(f"window misses [0,{n}]")
    return spell(traj.state(0).pi.letters, word_codes(traj, 0, n, dual=True))


@dataclass
class BrokenLine:
    kind: str
    alpha: str
    level: int
    letters: List[str]
    vertices: List[np.ndarray]  # integer coordinate vectors in the level basis

    def horizontal_steps(self, traj: Trajectory) -> List:
        """p-projection increments: heights (Backward) or lengths (DualForward)."""
        st = traj.state(self.level)
        if self.kind == BACKWARD:
            q = st.heights()
            return [q[st.pi.index(b)] for b in self.letters]
        return [st.lam[st.pi.index(b)] for b in self.letters]


def broken_line(traj: Trajectory, n: int, alpha: str, kind: str) -> BrokenLine:
    words = substitution_words(traj, n, kind)
    word = words[alpha]
    st = traj.state(n)
    d = st.d
    vertices = [np.zeros(d, dtype=object)]
    for b in word:
        v = vertices[-1].copy()
        v[st.pi.index(b)] += 1
        vertices.append(v)
    return BrokenLine(kind, alpha, n, word, vertices)


@dataclass
class RelativeClass:
    """Coefficients of a relative class in the per-level bases."""

    coefficients: Dict[int, tuple]
    traj: Trajectory = field(repr=False)

    def at(self, n: int) -> tuple:
        if n in self.coefficients:
            return self.coefficients[n]
        base = min(self.coefficients)
        out = matvec(self.traj.transport(base, n), self.coefficients[base])
        self.coefficients[n] = out
        return out

    def boundary(self, n: int = 0) -> tuple:
        return matvec(boundary_matrix(self.traj.state(n).pi), self.at(n))


def relative_class_from_level0(traj: Trajectory, chi0: Sequence) -> RelativeClass:
    return RelativeClass({0: tuple(chi0)}, traj)


def project_graph(traj: Trajectory, line: BrokenLine, cls, scale: Optional[float] = None) -> LimitShapeGraph:
    """Graph of the pairing along a broken line.

    The abscissa accumulates the height (or length) increments, the
    ordinate pairs the class against the running vertex; for a class given
    in the line's level basis the pairing contracts coordinates directly.
    """
    if isinstance(cls, RelativeClass):
        chi = cls.at(line.level)
    else:
        chi = tuple(cls)
    if len(chi) != traj.state(line.level).d:
        raise LevelMismatch("class coefficients have the wrong dimension")
    st = traj.state(line.level)
    steps = line.horizontal_steps(traj)
    zero = steps[0] - steps[0]
    xs = [zero]
    ys = [zero]
    for b, w in zip(line.letters, steps):
        xs.append(xs[-1] + w)
        ys.append(ys[-1] + chi[st.pi.index(b)])
    if scale is None:
        scale = 1.0
    return LimitShapeGraph(line.alpha, line.level, xs, ys, list(line.letters), scale)


# ---------------------------------------------------------------------------
# boundary sections


@dataclass
class SectionReport:
    upsilon: tuple
    chi0: tuple
    growth_profile: List[dict]
    slope: Optional[float]
    boundary_exact: bool


def _least_norm_boundary_solution(traj: Trajectory, n: int, upsilon0: Sequence) -> tuple:
    """Exact lexicographic least-sup-norm solution of the boundary system
    at level n, with the target vector permuted by the cycle matching."""
    D = boundary_matrix(traj.state(n).pi)
    if n == 0:
        target = list(upsilon0)
    else:
        m, nn = (n, 0) if n < 0 else (0, n)
        perm = match_cycles(traj, m, nn)
        s = len(upsilon0)
        if n > 0:
            target = [None] * s
            for i in range(s):
                target[perm[i]] = upsilon0[i]
        else:
            target = [upsilon0[perm[i]] for i in range(s)]
    x = min_sup_norm_solution([list(row) for row in D], list(target))
    if x is None:  # the boundary maps onto the zero-sum hyperplane
        raise ConsistencyFailure(f"boundary system infeasible at level {n} for a zero-sum target")
    return tuple(x)


def _snap_to_subspace(basis_exact: List[np.ndarray], vec_float: np.ndarray) -> tuple:
    from fractions import Fraction

    A = np.array([[to_float(x) for x in b] for b in basis_exact]).T
    coef, *_ = np.linalg.lstsq(A, vec_float, rcond=None)
    d = len(vec_float)
    out = [Fraction(0)] * d
    for c, b in zip(coef, basis_exact):
        cf = Fraction(float(c)).limit_denominator(SNAP_DENOMINATOR)
        for i in range(d):
            out[i] += cf * Fraction(b[i])
    return tuple(out)


def boundary_section(
    traj: Trajectory,
    upsilon: Sequence,
    window: Optional[Tuple[int, int]] = None,
    direction: str = "positive",
    est: Optional[SplittingEstimate] = None,
    allow_untrusted: bool = False,
) -> SectionReport:
    """Constructive finite-horizon section of the boundary operator.

    Picks the canonical bounded solution at every level, accumulates the
    level-to-level differences reduced modulo the estimated stable (or
    unstable) space, and reports the growth profile of the resulting class.
    The boundary identity is exact: corrections live in the exact kernel.
    """
    from .cones import subspace_basis

    s = singular_structure(traj.state(0).pi).s
    if s < 2:
        raise RequiresMultipleSingularities("the boundary section is trivial for s = 1")
    if certified_sign(sum(upsilon[1:], upsilon[0])) != 0:
        raise NotMeanZero("upsilon must have zero coordinate sum")
    if window is None:
        window = (traj.n_min, traj.n_max)
    if est is None:
        est = splitting_estimate(traj, window)
    if not est.trusted and not allow_untrusted:
        raise SplittingUntrusted("splitting too degenerate for a trustworthy section")
    kernel_basis = subspace_basis(traj.state(0).pi)
    d = traj.state(0).d
    levels = range(1, window[1] + 1) if direction == "positive" else range(-1, window[0] - 1, -1)
    prev = _least_norm_boundary_solution(traj, 0, upsilon)  # already at level 0
    total = list(prev)
    reduce_basis = est.stable if direction == "positive" else est.unstable
    for n in levels:
        cur = matvec(traj.transport(n, 0), _least_norm_boundary_solution(traj, n, upsilon))
        # the level-to-level difference has zero boundary exactly; keep only
        # its part transverse to the estimated contracting space
        diff_exact = tuple(a - b for a, b in zip(cur, prev))
        diff = np.array([to_float(x) for x in diff_exact], dtype=float)
        transverse = diff - reduce_basis @ (reduce_basis.T @ diff)
        snapped = _snap_to_subspace(kernel_basis, transverse)
        total = [t + sdv for t, sdv in zip(total, snapped)]
        prev = cur
    chi0 = tuple(total)
    cls = relative_class_from_level0(traj, chi0)
    got = cls.boundary(0)
    boundary_exact = all(certified_sign(a - b) == 0 for a, b in zip(got, upsilon))
    profile = []
    xs, ys = [], []
    for n in range(0, window[1] + 1) if direction == "positive" else range(window[0], 1):
        chi_n = matvec(traj.transport(0, n), chi0)
        sup = max(abs(to_float(x)) for x in chi_n)
        norm = traj.norm(0, n) if n >= 0 else traj.norm(n, 0)
        entry = {"n": n, "sup": sup, "log_norm": exact_log(norm)}
        profile.append(entry)
        if sup > 0 and entry["log_norm"] > 0:
            xs.append(entry["log_norm"])
            ys.append(math.log(sup))
    slope = fit_slope(xs, ys) if len(xs) >= 2 else None
    return SectionReport(tuple(upsilon), chi0, profile, slope, boundary_exact)


# ---------------------------------------------------------------------------
# KZ-hyperbolicity diagnostics


@dataclass
class KZReport:
    partial_sums: Dict[str, List[dict]]
    dims: Tuple[int, int]
    genus: int
    trusted: bool
    direct_sum_condition: float
    tail_ratios: Dict[str, float]


def kz_diagnostics(traj: Trajectory, window: Optional[Tuple[int, int]] = None, est: Optional[SplittingEstimate] = None) -> KZReport:
    """Finite-horizon versions of the KZ-hyperbolicity conditions.

    Reports the partial sums of the norm powers in both time directions
    (with last-term ratios as a convergence proxy), the estimated stable
    and unstable dimensions against the genus, and the conditioning of the
    estimated direct sum inside the exact ambient subspace.
    """
    if window is None:
        window = (traj.n_min, traj.n_max)
    if window[0] > -1 or window[1] < 1:
        raise InsufficientTrajectory("need a two-sided window")
    if est is None:
        est = splitting_estimate(traj, window)
    st = singular_structure(traj.state(0).pi)
    sums: Dict[str, List[dict]] = {}
    ratios: Dict[str, float] = {}
    for tau in (0.25, 0.5):
        for side, levels in (
            ("forward", range(1, window[1] + 1)),
            ("backward", range(-1, window[0] - 1, -1)),
        ):
            key = f"{side}_tau_{tau}"
            terms = []
            for n in levels:
                norm = traj.norm(0, n) if n > 0 else traj.norm(n, 0)
                terms.append(math.exp(-tau * exact_log(norm)))
            partial = []
            acc = 0.0
            for k, t in enumerate(terms):
                acc += t
                partial.append({"n": k + 1, "partial_sum": acc, "term": t})
            sums[key] = partial
            ratios[key] = terms[-1] / terms[-2] if len(terms) >= 2 else float("nan")
    stacked = np.concatenate([est.stable, est.unstable], axis=1)
    svals = np.linalg.svd(stacked, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    return KZReport(
        partial_sums=sums,
        dims=(est.dims[0], est.dims[1]),
        genus=st.g,
        trusted=est.trusted,
        direct_sum_condition=cond,
        tail_ratios=ratios,
    )
