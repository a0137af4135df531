"""Slow reference implementations kept as oracles for the library's fast paths.

Each function is the straightforward version that a fast path replaced; the
tests require the fast path to return exactly what the reference returns.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ietkz.combinatorics import TOP, CombinatorialData
from ietkz.cones import _is_extremal, subspace_basis
from ietkz.errors import InsufficientTrajectory, NoReturn, PrecisionExhausted
from ietkz.numerics import (
    Ball,
    certified_sign,
    exact_rank_nullspace,
    scalar_abs,
    snap_primitive,
    sqrt_enclosure,
    to_float,
)
from ietkz.oracle import IEMap
from ietkz.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED


def restricted_operator_norm_reference(M: np.ndarray, w: Sequence):
    """Vertex enumeration with one scalar operation per matrix entry."""
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
        img = [sum(M[i, j] * v[j] for j in range(d)) for i in range(d)]
        norm = None
        for x in img:
            a = scalar_abs(x)
            norm = a if norm is None else norm + a
        if best is None or certified_sign(norm - best) > 0:
            best = norm
    return best


def visit_words_reference(traj, n_prime: int, n: int) -> Dict[str, List[str]]:
    """Visit words grown by substituting every letter of every word, one
    arrow at a time from level n down to n' + 1 (loser -> loser winner for
    a top arrow, loser -> winner loser for a bottom arrow)."""
    if not (traj.n_min <= n_prime <= n <= traj.n_max):
        raise InsufficientTrajectory(f"window misses [{n_prime},{n}]")
    letters = traj.state(n).pi.letters
    words = {a: [a] for a in letters}
    for k in range(n, n_prime, -1):
        a = traj.arrow_at(k)
        repl = [a.loser, a.winner] if a.kind == TOP else [a.winner, a.loser]
        for alpha in letters:
            out: List[str] = []
            for b in words[alpha]:
                out.extend(repl if b == a.loser else [b])
            words[alpha] = out
    return words


def dual_words_reference(traj, m: int, n: int) -> Dict[str, List[str]]:
    """Dual-forward words of the window [m, n] grown by substituting every
    letter of every word, one arrow at a time from level m + 1 up to n
    (winner -> winner loser for both arrow types)."""
    letters = traj.state(m).pi.letters
    words = {a: [a] for a in letters}
    for k in range(m + 1, n + 1):
        a = traj.arrow_at(k)
        repl = [a.winner, a.loser]
        for alpha in letters:
            out: List[str] = []
            for b in words[alpha]:
                out.extend(repl if b == a.winner else [b])
            words[alpha] = out
    return words


def dual_holder_profile_reference(traj, levels, psi, alpha_star: str, grid: int = 6) -> List[dict]:
    """Grows the words of every letter as lists of letter names."""
    st0 = traj.state(0)
    letters = st0.pi.letters
    out = []
    words = {a: [a] for a in letters}
    level_set = sorted(set(int(n) for n in levels), reverse=True)
    k = 0
    for n in level_set:
        while k > n:
            a = traj.arrow_at(k)
            repl = [a.loser, a.winner] if a.kind == TOP else [a.winner, a.loser]
            for alpha in letters:
                grown: List[str] = []
                for b in words[alpha]:
                    grown.extend(repl if b == a.loser else [b])
                words[alpha] = grown
            k -= 1
        st_n = traj.state(n)
        qf = np.array([to_float(x) for x in st_n.heights()], dtype=float)
        word = words[alpha_star]
        idx = np.array([st_n.pi.index(b) for b in word], dtype=int)
        steps = qf[idx]
        starts = np.concatenate([[0.0], np.cumsum(steps)[:-1]])
        sup = 0.0
        for beta in letters:
            b_idx = st_n.pi.index(beta)
            sel = starts[idx == b_idx]
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


def zorich_stop_rescan(traj, k: int) -> bool:
    """The Zorich stop test that rescans every level of the window."""
    zs = [traj.zorich[n] for n in traj.levels()]
    return max(zs) - min(zs) >= k


def quadratic_ball_reference(x, bits: int):
    """Ball.exact of a Quadratic through Ball arithmetic on Fractions."""
    r = sqrt_enclosure(x.D, bits + 8)
    return (Ball.exact(x.a, bits) + Ball.exact(x.b, bits) * r).with_bits(bits)


def itinerary_reference(T: IEMap, x, stop, depth_cap: int) -> List[str]:
    """The orbit in the data's own scalar arithmetic: each step looks the
    letter up with letter_of and moves the point with apply."""
    word = []
    for _ in range(depth_cap):
        word.append(T.letter_of(x))
        x = T.apply(x)
        s = certified_sign(stop - x)
        if s is None:
            raise PrecisionExhausted("cannot certify a return test")
        if s > 0:
            return word
    raise NoReturn(f"no return within {depth_cap} iterations")


def visit_counts_reference(traj, n_prime: int, n: int, depth_cap: int = 10**6):
    """visit_counts with the scalar orbit loop and one count update per visit."""
    if n_prime > n:
        raise ValueError("need n_prime <= n")
    st_in, st_out = traj.state(n), traj.state(n_prime)
    inner = IEMap(st_in.pi, st_in.lam)
    outer = IEMap(st_out.pi, st_out.lam)
    d = inner.pi.d
    counts = np.zeros((d, d), dtype=object)
    words = {}
    for alpha in inner.pi.letters:
        word = itinerary_reference(outer, inner.midpoint(alpha), inner.total, depth_cap)
        ai = inner.pi.index(alpha)
        for beta in word:
            counts[ai, outer.pi.index(beta)] += 1
        words[alpha] = word
    return counts, words


def echelon_reference(M: np.ndarray):
    """Row echelon form over Fraction; returns (R, pivots)."""
    R = np.array([[Fraction(x) for x in row] for row in M], dtype=object)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if R[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = R[r, c]
        R[r, :] = [x / piv for x in R[r, :]]
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i, :] = [a - R[i, c] * b for a, b in zip(R[i, :], R[r, :])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def exact_det_reference(M: np.ndarray) -> Fraction:
    R = np.array([[Fraction(x) for x in row] for row in M], dtype=object)
    d = R.shape[0]
    det = Fraction(1)
    for c in range(d):
        pr = None
        for i in range(c, d):
            if R[i, c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            R[[c, pr]] = R[[pr, c]]
            det = -det
        det *= R[c, c]
        inv = 1 / R[c, c]
        for i in range(c + 1, d):
            if R[i, c] != 0:
                factor = R[i, c] * inv
                R[i, :] = [a - factor * b for a, b in zip(R[i, :], R[c, :])]
    return det


def _pivot_reference(T: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col] != 0:
            factor = T[r][col]
            T[r] = [a - factor * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def _simplex_core_reference(T: List[List[Fraction]], basis: List[int], ncols: int) -> str:
    # objective row is T[-1]; Bland's rule on reduced costs
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row = None
        best_ratio: Optional[Fraction] = None
        for r in range(len(T) - 1):
            if T[r][col] > 0:
                ratio = T[r][-1] / T[r][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] > basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = r
        if best_row is None:
            return UNBOUNDED
        _pivot_reference(T, basis, best_row, col)


def solve_lp_reference(A: Sequence[Sequence], b: Sequence, c: Sequence) -> Tuple[str, Optional[List[Fraction]], Optional[Fraction]]:
    """Returns (status, x, value) for min c.x, A x = b, x >= 0: the two-phase
    Fraction tableau, with every LP solved from scratch."""
    m = len(A)
    n = len(c)
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    # phase 1 tableau: columns = original vars + artificials + rhs
    T = []
    for i in range(m):
        T.append(A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]])
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        obj = [o - a for o, a in zip(obj, T[i])]
    for j in range(n, n + m):
        obj[j] = Fraction(0)
    T.append(obj)
    basis = [n + i for i in range(m)]
    status = _simplex_core_reference(T, basis, n + m)
    if status != OPTIMAL or -T[-1][-1] != 0:
        return INFEASIBLE, None, None
    # drive any artificial variables out of the basis
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                _pivot_reference(T, basis, r, col)
    # rebuild objective for phase 2 over the original variables
    rows = [row[:n] + [row[-1]] for row in T[:-1]]
    keep = [r for r in range(m) if basis[r] < n or any(rows[r][j] != 0 for j in range(n))]
    rows = [rows[r] for r in keep]
    basis = [basis[r] for r in keep]
    obj = c + [Fraction(0)]
    for r, bi in enumerate(basis):
        if bi < n and obj[bi] != 0:
            factor = obj[bi]
            obj = [a - factor * bb for a, bb in zip(obj, rows[r])]
    T2 = rows + [obj]
    status = _simplex_core_reference(T2, basis, n)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for r, bi in enumerate(basis):
        if bi < n:
            x[bi] = T2[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, value


def min_sup_norm_solution_reference(A: Sequence[Sequence], b: Sequence) -> Optional[List[Fraction]]:
    """Lexicographically smallest sup-norm minimizer of A x = b (x free).

    Solves min t with -t <= x_i <= t via the exact simplex, then fixes t
    and minimizes the coordinates one at a time for determinism.
    """
    m = len(A)
    if m == 0:
        return []
    n = len(A[0])

    def build(rows_extra: List[Tuple[List[Fraction], Fraction]], cost: List[Fraction]):
        # variables: t, xp (n), xm (n), s (n), s2 (n)
        nv = 1 + 4 * n
        bigA: List[List[Fraction]] = []
        bigb: List[Fraction] = []
        for i in range(m):
            row = [Fraction(0)] * nv
            for j in range(n):
                row[1 + j] = Fraction(A[i][j])
                row[1 + n + j] = -Fraction(A[i][j])
            bigA.append(row)
            bigb.append(Fraction(b[i]))
        for j in range(n):
            row = [Fraction(0)] * nv
            row[0] = Fraction(-1)
            row[1 + j] = Fraction(1)
            row[1 + n + j] = Fraction(-1)
            row[1 + 2 * n + j] = Fraction(1)
            bigA.append(row)
            bigb.append(Fraction(0))
            row = [Fraction(0)] * nv
            row[0] = Fraction(-1)
            row[1 + j] = Fraction(-1)
            row[1 + n + j] = Fraction(1)
            row[1 + 3 * n + j] = Fraction(1)
            bigA.append(row)
            bigb.append(Fraction(0))
        for extra, rhs in rows_extra:
            bigA.append(list(extra))
            bigb.append(rhs)
        return bigA, bigb, cost

    nv = 1 + 4 * n
    cost_t = [Fraction(0)] * nv
    cost_t[0] = Fraction(1)
    bigA, bigb, cost = build([], cost_t)
    status, x, t_star = solve_lp_reference(bigA, bigb, cost)
    if status != OPTIMAL:
        return None
    fixed: List[Tuple[List[Fraction], Fraction]] = []
    row_t = [Fraction(0)] * nv
    row_t[0] = Fraction(1)
    fixed.append((row_t, t_star))
    values: List[Fraction] = []
    for j in range(n):
        cost_j = [Fraction(0)] * nv
        cost_j[1 + j] = Fraction(1)
        cost_j[1 + n + j] = Fraction(-1)
        bigA, bigb, cost = build(fixed, cost_j)
        status, x, vj = solve_lp_reference(bigA, bigb, cost)
        if status != OPTIMAL:
            return None
        values.append(vj)
        row_j = [Fraction(0)] * nv
        row_j[1 + j] = Fraction(1)
        row_j[1 + n + j] = Fraction(-1)
        fixed.append((row_j, vj))
    return values


def brute_force_cone_rays(pi: CombinatorialData) -> List[np.ndarray]:
    """Independent cross-check: enumerate orthant-face intersections with
    the subspace and keep the one-dimensional nonnegative ones."""
    basis = subspace_basis(pi)
    V = np.stack(basis, axis=1)
    d, m = V.shape
    found = {}
    for r in range(d + 1):
        for zeros in combinations(range(d), r):
            rank, null, _ = exact_rank_nullspace(V[list(zeros), :])
            if m - rank != 1:
                continue
            y = null[0]
            x = np.array([sum(V[i, k] * y[k] for k in range(m)) for i in range(d)], dtype=object)
            if all(v >= 0 for v in x) or all(v <= 0 for v in x):
                if all(v == 0 for v in x):
                    continue
                if all(v <= 0 for v in x):
                    x = np.array([-v for v in x], dtype=object)
                prim = snap_primitive(x)
                if _is_extremal(pi, basis, prim):
                    found[tuple(int(v) for v in prim)] = prim
    return sorted(found.values(), key=lambda rr: tuple(int(x) for x in rr))
