"""Finite-horizon profilers for the Roth-type growth conditions.

The conditions themselves are asymptotic; everything here reports the
finite-horizon profile (block norms, spectral gaps, implied constants)
together with a pass/fail verdict at a user tolerance, never a claim
about the true limit.  The matrix norm is the sum of all entries in
absolute value throughout, so transposition preserves it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .combinatorics import singular_structure
from .errors import InsufficientTrajectory
from .induction import (
    ABSOLUTE_CONE,
    COMPLETE_PATHS,
    DUAL_COMPLETE,
    Trajectory,
    accelerated_times,
)
from .limitshape import SplittingEstimate, _float_matrix, _orth_columns, splitting_estimate
from .numerics import (
    Ball,
    Quadratic,
    certified_sign,
    exact_log,
    integer_lift,
    matvec,
    scalar_abs,
    sum_norm,
    to_float,
    zsign,
)

KIND_A = "A"
KIND_A_PRIME = "APrime"
KIND_B = "B"
KIND_C = "C"
KIND_D = "D"


def restricted_operator_norm(M: np.ndarray, w: Sequence):
    """Exact l1 operator norm of M restricted to {x : w . x = 0}.

    The unit l1 ball meets the hyperplane in a polytope whose vertices sit
    on the cross-polytope edges: one exact vertex per coordinate pair (and
    per zero-weight axis), so the supremum of |M x|_1 is a finite exact
    maximum.  The image norm is the ambient norm, no dual basis enters.

    For an integer matrix and exact weights (int, Fraction, Quadratic over
    one field) the maximum is found in integer arithmetic: the weights are
    written w_k = (A_k + B_k sqrt(D)) / L over one common denominator, the
    image of the (i, j) vertex is (w_j M[:, i] - w_i M[:, j]) / (|w_i| + |w_j|),
    a two-column combination with O(d) integer operations, and candidates
    are compared by the sign of a cross product in Z[sqrt(D)].  Only the
    winner becomes a scalar, of the type the vertex arithmetic yields:
    Quadratic when a Quadratic weight enters it, else Fraction (int for a
    zero-weight axis of int weights).  Ball weights take the scalar loop;
    where two ball candidates overlap, the hull [max lo, max hi] encloses
    their maximum.
    """
    cols = np.asarray(M).T.tolist()
    parts = integer_lift(w)
    if parts is None or not all(type(x) is int for col in cols for x in col):
        return _restricted_norm_scalar(M, w)
    A, B, D = parts
    d = len(w)
    signs = [zsign(a, b, D) for a, b in zip(A, B)]
    best = None  # (Na, Nb, Sa, Sb, vertex): the norm is (Na + Nb sqrt D) / (Sa + Sb sqrt D)
    for i in range(d):
        if signs[i] == 0:
            cand = (sum(abs(x) for x in cols[i]), 0, 1, 0, (i,))
            if best is None or _zcross_sign(cand, best, D) > 0:
                best = cand
    for i in range(d):
        for j in range(i + 1, d):
            if signs[i] == 0 or signs[j] == 0:
                continue
            Ai, Bi, Aj, Bj = A[i], B[i], A[j], B[j]
            Na = Nb = 0
            for x, y in zip(cols[i], cols[j]):
                a = Aj * x - Ai * y
                b = Bj * x - Bi * y
                s = zsign(a, b, D)
                if s > 0:
                    Na += a
                    Nb += b
                elif s < 0:
                    Na -= a
                    Nb -= b
            si, sj = signs[i], signs[j]
            cand = (Na, Nb, si * Ai + sj * Aj, si * Bi + sj * Bj, (i, j))
            if best is None or _zcross_sign(cand, best, D) > 0:
                best = cand
    if best is None:  # d = 1: the hyperplane is {0}
        return None
    Na, Nb, Sa, Sb, vertex = best
    # the typed zero w[0] - w[0] fills every vertex; a pair adds w[i], w[j]
    involved = [w[0]] + ([w[k] for k in vertex] if len(vertex) == 2 else [])
    if any(isinstance(x, Quadratic) for x in involved):
        den = Sa * Sa - Sb * Sb * D
        return Quadratic(Fraction(Na * Sa - Nb * Sb * D, den), Fraction(Nb * Sa - Na * Sb, den), D)
    if len(vertex) == 1 and type(w[0]) is int:
        return Na
    return Fraction(Na, Sa)


def _zcross_sign(p: tuple, q: tuple, D: int) -> int:
    """Sign of Np/Sp - Nq/Sq for positive denominators: that of Np Sq - Nq Sp."""
    pa, pb, psa, psb = p[:4]
    qa, qb, qsa, qsb = q[:4]
    a = pa * qsa + pb * qsb * D - qa * psa - qb * psb * D
    b = pa * qsb + pb * qsa - qa * psb - qb * psa
    return zsign(a, b, D)


def _restricted_norm_scalar(M: np.ndarray, w: Sequence):
    """The vertex enumeration in the weights' own scalar arithmetic."""
    d = len(w)
    best = None
    vertices = []
    for i in range(d):
        if certified_sign(w[i]) == 0:
            v = [w[0] - w[0]] * d  # typed zero
            v[i] = v[i] + 1
            vertices.append(v)
    for i in range(d):
        for j in range(i + 1, d):
            if certified_sign(w[i]) == 0 or certified_sign(w[j]) == 0:
                continue
            scale = scalar_abs(w[i]) + scalar_abs(w[j])
            v = [w[0] - w[0]] * d
            v[i] = w[j] / scale
            v[j] = -w[i] / scale
            vertices.append(v)
    for v in vertices:
        norm = None
        for x in matvec(M, v):
            a = scalar_abs(x)
            norm = a if norm is None else norm + a
        if best is None:
            best = norm
            continue
        s = certified_sign(norm - best)
        if s is None:  # overlapping balls: the hull encloses the maximum
            best = Ball(max(best.lo, norm.lo), max(best.hi, norm.hi), best.bits)
        elif s > 0:
            best = norm
    return best


@dataclass
class BlockRecord:
    k: int
    n_lo: int
    n_hi: int
    block_norm: int
    base_norm: int
    ratio: float  # log block / log base


@dataclass
class GapRecord:
    n: int
    norm: int
    restricted_norm: float
    gap: float  # 1 - log restricted / log norm


@dataclass
class RothProfile:
    kind: str
    blocks: List[BlockRecord] = field(default_factory=list)
    gaps: List[GapRecord] = field(default_factory=list)
    coherence: List[dict] = field(default_factory=list)
    stable_dim: Optional[int] = None
    genus: Optional[int] = None
    theta_estimate: Optional[float] = None
    tail_ratio: Optional[float] = None
    passes: Optional[bool] = None
    trusted: Optional[bool] = None

    def rows(self) -> List[dict]:
        """CSV-friendly rows (k_or_n, lhs, rhs, ratio)."""
        out = []
        for b in self.blocks:
            out.append(
                {"k_or_n": b.k, "lhs": b.block_norm, "rhs": b.base_norm, "ratio": b.ratio}
            )
        for g in self.gaps:
            out.append(
                {"k_or_n": g.n, "lhs": g.restricted_norm, "rhs": g.norm, "ratio": g.gap}
            )
        return out


def _block_profile(traj: Trajectory, times: List[int], dual: bool) -> List[BlockRecord]:
    blocks = []
    for k in range(1, len(times)):
        if not dual:
            lo, hi = times[k - 1], times[k]
            block = traj.norm(lo, hi)
            base = traj.norm(times[0], times[k - 1])
        else:
            hi, lo = times[k - 1], times[k]  # times decrease
            block = traj.norm(lo, hi)
            base = traj.norm(times[k - 1], 0)
        ratio = exact_log(block) / exact_log(base) if base > 1 else float("inf")
        blocks.append(BlockRecord(k, lo, hi, block, base, ratio))
    return blocks


def _tail_max(ratios: List[float]) -> Optional[float]:
    if not ratios:
        return None
    tail = ratios[len(ratios) // 2 :]
    return max(tail)


def roth_profiles(
    traj: Trajectory,
    kind: str,
    tol: float = 0.2,
    est: Optional[SplittingEstimate] = None,
) -> RothProfile:
    """Forward Roth-type profile of the requested kind.

    A / APrime: block-growth ratios along complete-path or cone-contraction
    times.  B: spectral gap against the zero-integral hyperplane.  C / D:
    coherence ratios and stable dimension against the splitting estimate.
    """
    prof = RothProfile(kind=kind)
    if kind in (KIND_A, KIND_A_PRIME):
        acc = COMPLETE_PATHS if kind == KIND_A else ABSOLUTE_CONE
        times = accelerated_times(traj, acc)
        prof.blocks = _block_profile(traj, times, dual=False)
        ratios = [b.ratio for b in prof.blocks[1:]]  # k = 1 has trivial base
        prof.tail_ratio = _tail_max(ratios)
        prof.passes = prof.tail_ratio is not None and prof.tail_ratio <= tol
        return prof
    if kind == KIND_B:
        lam0 = traj.state(0).lam
        for n in range(1, traj.n_max + 1):
            B = traj.matrix(0, n)
            norm = int(sum_norm(B))
            restr = restricted_operator_norm(B, lam0)
            restr_f = to_float(restr)
            gap = 1.0 - exact_log(restr) / exact_log(norm) if norm > 1 else float("nan")
            prof.gaps.append(GapRecord(n, norm, restr_f, gap))
        tail = prof.gaps[len(prof.gaps) // 2 :]
        prof.theta_estimate = min(g.gap for g in tail)
        prof.passes = prof.theta_estimate > tol
        return prof
    if kind in (KIND_C, KIND_D):
        if est is None:
            est = splitting_estimate(traj)
        st = singular_structure(traj.state(0).pi)
        prof.genus = st.g
        prof.stable_dim = est.dims[0]
        prof.trusted = est.trusted
        if kind == KIND_D:
            prof.passes = est.trusted and prof.stable_dim == st.g
            return prof
        # coherence: growth of the restriction to the stable estimate and of
        # the inverse on the quotient, against the full norm
        levels = [n for n in range(0, traj.n_max + 1, max(1, traj.n_max // 6))]
        for m in levels:
            for n in levels:
                if m >= n:
                    continue
                Bf = _float_matrix(traj.matrix(m, n))
                Sm = _transport_basis(traj, est.stable, m)
                Sn = _transport_basis(traj, est.stable, n)
                bs = np.linalg.norm(Sn.T @ Bf @ Sm, 2)
                Qm = _orth_complement(Sm)
                Qn = _orth_complement(Sn)
                quot = Qn.T @ Bf @ Qm
                smin = min(np.linalg.svd(quot, compute_uv=False))
                denom = exact_log(traj.norm(0, n))
                prof.coherence.append(
                    {
                        "m": m,
                        "n": n,
                        "stable_ratio": math.log(max(bs, 1.0)) / denom if denom > 0 else 0.0,
                        "quotient_inverse_ratio": math.log(max(1.0 / max(smin, 1e-300), 1.0)) / denom
                        if denom > 0
                        else 0.0,
                    }
                )
        worst = max(
            (max(c["stable_ratio"], c["quotient_inverse_ratio"]) for c in prof.coherence),
            default=None,
        )
        prof.tail_ratio = worst
        prof.passes = est.trusted and worst is not None and worst <= tol
        return prof
    raise ValueError(f"unknown profile kind {kind!r}")


def _transport_basis(traj: Trajectory, basis: np.ndarray, n: int) -> np.ndarray:
    if n == 0:
        return basis
    return _orth_columns(_float_matrix(traj.transport(0, n)) @ basis)


def _orth_complement(cols: np.ndarray) -> np.ndarray:
    d = cols.shape[0]
    full, _ = np.linalg.qr(np.concatenate([cols, np.eye(d)], axis=1))
    return full[:, cols.shape[1] : d]


def dual_roth_profiles(backtraj: Trajectory, tol: float = 0.2) -> RothProfile:
    """Backward profile: dual block growth plus the dual spectral gap.

    The gap restricts the transpose cocycle to the hyperplane of zero
    height-weighted mean; the reported theta estimate is the largest
    exponent consistent with every computed gap.
    """
    times = accelerated_times(backtraj, DUAL_COMPLETE)
    if len(times) < 3:
        raise InsufficientTrajectory("need at least two backward complete blocks")
    prof = RothProfile(kind="dual")
    prof.blocks = _block_profile(backtraj, times, dual=True)
    ratios = [b.ratio for b in prof.blocks if b.n_hi < 0]
    prof.tail_ratio = _tail_max(ratios)
    q0 = backtraj.state(0).heights()
    first_block = times[1]
    for n in range(0, backtraj.n_min - 1, -1):
        B = backtraj.matrix(n, 0)
        norm = int(sum_norm(B))
        if norm <= len(q0):
            continue
        restr = restricted_operator_norm(B.T, q0)
        gap = 1.0 - exact_log(restr) / exact_log(norm)
        prof.gaps.append(GapRecord(n, norm, to_float(restr), gap))
    usable = [g.gap for g in prof.gaps if g.n <= first_block]
    prof.theta_estimate = min(usable) if usable else None
    prof.passes = (
        prof.tail_ratio is not None
        and prof.tail_ratio <= tol
        and prof.theta_estimate is not None
        and prof.theta_estimate > 0
    )
    return prof


# ---------------------------------------------------------------------------
# length and series diagnostics


@dataclass
class LengthReport:
    direction: str
    rows: List[dict]
    partition_exact: bool
    series: Dict[str, List[dict]] = field(default_factory=dict)
    p6_rows: List[dict] = field(default_factory=list)
    violations: List[dict] = field(default_factory=list)


def length_diagnostics(
    traj: Trajectory,
    tau_tol: float = 0.5,
    direction: str = "forward",
    times: Optional[List[int]] = None,
) -> LengthReport:
    """Two-sided implied constants for the length-control inequalities.

    Forward: the per-level interval bounds and row-sum bound with their
    implied constants, the partial-sum series ratios, and the exact
    submultiplicative sandwich.  Backward: the height (dual length) window
    against the window norm.
    """
    rows: List[dict] = []
    violations: List[dict] = []
    if direction == "forward":
        total0 = traj.state(0).total_length()
        partition_ok = True
        for n in range(0, traj.n_max + 1):
            B = traj.matrix(0, n)
            lam = traj.state(n).lam
            d = len(lam)
            row_sums = [int(sum(B[i, :])) for i in range(d)]
            acc = sum(r * x for r, x in zip(row_sums, lam))
            if certified_sign(acc - total0) != 0:
                partition_ok = False
            norm = int(sum_norm(B))
            lens = [to_float(x) for x in lam]
            logn = exact_log(norm)
            # implied constants of the two-sided length bound and row-sum bound
            c_upper = max(lens) / to_float(total0) * math.exp((1 - tau_tol) * logn)
            c_p3 = math.exp((1 - tau_tol) * logn) / min(row_sums)
            rows.append(
                {
                    "n": n,
                    "norm": norm,
                    "min_len": min(lens),
                    "max_len": max(lens),
                    "c_upper": c_upper,
                    "c_rowsum": c_p3,
                }
            )
        if times is None:
            try:
                times = accelerated_times(traj, ABSOLUTE_CONE)
            except InsufficientTrajectory:
                times = None
        series: Dict[str, List[dict]] = {}
        if times is not None and len(times) >= 2:
            norms = [traj.norm(0, t) if t > 0 else len(traj.state(0).lam) for t in times]
            delta = 0.5
            terms = [math.exp(-delta * exact_log(x)) for x in norms]
            series["tail_over_first"] = [
                {
                    "k": k,
                    "ratio": sum(terms[k:]) / terms[k],
                }
                for k in range(len(terms))
            ]
            terms_pos = [math.exp(delta * exact_log(x)) for x in norms]
            series["head_over_last"] = [
                {"k": k, "ratio": sum(terms_pos[: k + 1]) / terms_pos[k]}
                for k in range(len(terms_pos))
            ]
            sandwich = []
            for li in range(len(times)):
                for ki in range(li, len(times)):
                    full = traj.norm(times[0], times[ki])
                    left = traj.norm(times[0], times[li])
                    right = traj.norm(times[li], times[ki])
                    exact_first = full <= left * right
                    sandwich.append(
                        {
                            "l": li,
                            "k": ki,
                            "exact_first": exact_first,
                            "reverse_ratio": (math.log(left) + math.log(right)) / math.log(full)
                            if full > 1
                            else 1.0,
                        }
                    )
                    if not exact_first:
                        violations.append({"where": "p5", "l": li, "k": ki})
            series["sandwich"] = sandwich
            # lower length bound at the cone times, with its censoring index
            s_count = singular_structure(traj.state(0).pi).s
            p6_rows = _p6_rows(traj, times, s_count, tau_tol, total0)
        else:
            p6_rows = []
        rep = LengthReport("forward", rows, partition_ok, series, p6_rows, violations)
        return rep
    if direction == "backward":
        aux = []
        for m in range(0, traj.n_min - 1, -1):
            B = traj.matrix(m, 0)
            q = traj.state(m).heights()
            norm = int(sum_norm(B))
            logn = exact_log(norm)
            lens = [to_float(x) for x in q]
            rows.append(
                {
                    "n": m,
                    "norm": norm,
                    "min_len": min(lens),
                    "max_len": max(lens),
                    "c_lower": min(lens) * math.exp((1 + tau_tol) * logn),
                    "c_upper": max(lens) * math.exp((1 - tau_tol) * logn),
                }
            )
            if norm <= B.shape[0] * B.shape[0]:
                continue
            worst = min(
                math.log(max(1, int(B[i, j]))) / ((1 - tau_tol) * exact_log(norm))
                for i in range(B.shape[0])
                for j in range(B.shape[1])
            )
            aux.append({"n": m, "min_entry_ratio": worst})
        return LengthReport("backward", rows, True, {"aux_entry_bound": aux})
    raise ValueError(f"unknown direction {direction!r}")


def _p6_rows(traj, times, s_count, tau_tol, total0) -> List[dict]:
    out = []
    d = traj.state(0).d
    letters = traj.state(0).pi.letters
    for li in range(len(times)):
        for ai, alpha in enumerate(letters):
            k_idx = None
            for ki in range(li, len(times)):
                B = traj.matrix(times[li], times[ki])
                col = sum(int(B[b, ai]) for b in range(d))
                if col < s_count:
                    k_idx = ki
                else:
                    break
            if k_idx is None:
                continue
            censored = k_idx == len(times) - 1
            lam = traj.state(times[li]).lam
            norm_k = traj.norm(0, times[k_idx]) if times[k_idx] > 0 else d
            implied = to_float(total0) * math.exp(-(1 + tau_tol) * exact_log(norm_k)) / to_float(
                lam[ai]
            )
            out.append(
                {
                    "l": li,
                    "alpha": alpha,
                    "k": k_idx,
                    "censored": censored,
                    "implied_constant": implied,
                }
            )
    return out
