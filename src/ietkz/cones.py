"""Rational polyhedral cone machinery for the absolute-homology cone.

The cone of interest is the intersection of the column space of the
antisymmetric matrix with the nonnegative orthant.  Extremal rays are
computed by exact double description inside the subspace; everything here
is small (dimension at most 2g, at most d halfspaces), so no pivoting
heuristics are needed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .combinatorics import BOTTOM, TOP, CombinatorialData, arrow, cocycle_step, omega_matrix, rauzy_move
from .errors import NoStandardVertex, SubspaceMismatch
from .numerics import exact_inverse, exact_rank, exact_rank_nullspace, in_span, matvec, snap_primitive


def subspace_basis(pi: CombinatorialData) -> List[np.ndarray]:
    """Exact rational basis of the column space of the antisymmetric matrix."""
    _, _, cols = exact_rank_nullspace(omega_matrix(pi))
    return cols


@dataclass
class AbsoluteCone:
    pi: CombinatorialData
    basis: List[np.ndarray]  # basis of the ambient subspace
    rays: List[np.ndarray]  # primitive integer extremal rays, all entries >= 0


def _double_description(A: np.ndarray) -> List[np.ndarray]:
    """Extremal rays of {y : A y >= 0} for A of full column rank m.

    Starts from an invertible m x m row subsystem (a simplicial cone) and
    inserts the remaining halfspaces one at a time, combining adjacent
    positive/negative rays.  Adjacency is the standard rank test.
    """
    A = np.array(A, dtype=object)
    nrows, m = A.shape
    base: Optional[List[int]] = None
    for rows in _independent_row_subsets(A, m):
        base = rows
        break
    if base is None:
        raise ValueError("constraint matrix does not have full column rank")
    sub = A[base, :]
    rays = [np.array(col, dtype=object) for col in exact_inverse(sub).T]
    processed = list(base)
    for i in range(nrows):
        if i in base:
            continue
        a = A[i, :]
        vals = [sum(a[k] * r[k] for k in range(m)) for r in rays]
        plus = [r for r, v in zip(rays, vals) if v > 0]
        zero = [r for r, v in zip(rays, vals) if v == 0]
        minus = [(r, v) for r, v in zip(rays, vals) if v < 0]
        if not minus:
            processed.append(i)
            continue
        new_rays = []
        for rp, vp in [(r, v) for r, v in zip(rays, vals) if v > 0]:
            for rm, vm in minus:
                if _adjacent(A, processed, rp, rm, m):
                    combo = np.array([vp * rm[k] - vm * rp[k] for k in range(m)], dtype=object)
                    new_rays.append(snap_primitive(combo))
        processed.append(i)
        rays = plus + zero + new_rays
        rays = _dedupe(rays)
    return rays


def _independent_row_subsets(A: np.ndarray, m: int):
    from itertools import combinations

    for rows in combinations(range(A.shape[0]), m):
        if exact_rank(A[list(rows), :]) == m:
            yield list(rows)


def _adjacent(A: np.ndarray, processed: List[int], r1, r2, m: int) -> bool:
    tight = [
        i
        for i in processed
        if sum(A[i, k] * r1[k] for k in range(m)) == 0
        and sum(A[i, k] * r2[k] for k in range(m)) == 0
    ]
    return exact_rank(A[tight, :]) >= m - 2


def _dedupe(rays: List[np.ndarray]) -> List[np.ndarray]:
    seen = {}
    for r in rays:
        key = tuple(int(x) for x in snap_primitive(r))
        seen.setdefault(key, np.array([int(x) for x in snap_primitive(r)], dtype=object))
    return list(seen.values())


def absolute_cone_rays(pi: CombinatorialData) -> AbsoluteCone:
    """Primitive extremal rays of (column space) intersect (orthant)."""
    basis = subspace_basis(pi)
    m = len(basis)
    V = np.stack(basis, axis=1)  # d x m; constraints are the rows
    rays_y = _double_description(V)
    rays = []
    for ry in rays_y:
        x = np.array([sum(V[i, k] * ry[k] for k in range(m)) for i in range(V.shape[0])], dtype=object)
        rays.append(snap_primitive(x))
    rays = _dedupe(rays)
    rays = [r for r in rays if _is_extremal(pi, basis, r)]
    rays.sort(key=lambda r: tuple(int(x) for x in r))
    for r in rays:
        assert all(x >= 0 for x in r)
        assert in_span(basis, r)
    return AbsoluteCone(pi, basis, rays)


def _is_extremal(pi: CombinatorialData, basis: List[np.ndarray], ray: np.ndarray) -> bool:
    """An extremal ray spans the kernel of {x in H : x_zero-set = 0}."""
    d = pi.d
    zeros = [i for i in range(d) if ray[i] == 0]
    V = np.stack(basis, axis=1)
    return V.shape[1] - exact_rank(V[zeros, :]) == 1


def cone_contraction(B: np.ndarray, pi: CombinatorialData, pi2: CombinatorialData) -> bool:
    """True iff B maps the closed absolute cone of pi strictly inside the
    positive orthant (except the origin): every extremal ray image positive.

    Raises SubspaceMismatch when B fails to map the subspace onto the target
    subspace, which would make the containment question ill-posed.
    """
    basis = subspace_basis(pi)
    basis2 = subspace_basis(pi2)
    imgs = [matvec(B, v) for v in basis]
    for img in imgs:
        if not in_span(basis2, img):
            raise SubspaceMismatch("B does not map the subspace into the target subspace")
    if exact_rank(np.array(imgs, dtype=object).T) != len(basis2):
        raise SubspaceMismatch("B does not map the subspace onto the target subspace")
    cone = absolute_cone_rays(pi)
    for r in cone.rays:
        if not all(x > 0 for x in matvec(B, r)):
            return False
    return True


def standard_witness(pi: CombinatorialData) -> np.ndarray:
    """A strictly positive rational vector in the open absolute cone.

    Found by walking backwards (inverse moves) to a standard vertex, where
    the loop doubling every side except the two end letters gives the
    witness 2 - [alpha = top-last] - [alpha = bottom-last], then pushing it
    forward along the discovered arrow path, which preserves the cone.
    """
    from fractions import Fraction

    # BFS over inverse moves; parent pointers give a forward path std -> pi.
    start = pi
    parent: dict = {start.key(): None}
    queue = deque([start])
    std = None
    if start.is_standard():
        std = start
    while queue and std is None:
        cur = queue.popleft()
        for kind in (TOP, BOTTOM):
            prev = rauzy_move(cur, kind, inverse=True)
            if prev.key() in parent:
                continue
            parent[prev.key()] = (cur, kind, prev)
            if prev.is_standard():
                std = prev
                break
            queue.append(prev)
    if std is None:
        raise NoStandardVertex("no standard vertex reachable (bug trap)")
    x = np.array(
        [Fraction(2 - (a == std.alpha_t) - (a == std.alpha_b)) for a in std.letters],
        dtype=object,
    )
    # forward transport along the chain std -> ... -> pi
    cur = std
    while cur.key() != pi.key():
        nxt, kind, _ = parent[cur.key()]
        cocycle_step(x, arrow(cur, kind))
        cur = nxt
    assert all(v > 0 for v in x)
    assert in_span(subspace_basis(pi), x)
    return x
