"""Exact lexicographic simplex on an integer-preserving tableau.

``solve_lp`` solves min c.x subject to A x = b, x >= 0, and
``min_sup_norm_solution`` finds the lexicographically smallest sup-norm
minimiser of A x = b.  Both run on one tableau of Python ints: each row is
scaled to integers once, and a pivot p in row r replaces every other row by
(p*T[i] - T[i][c]*T[r]) // D, an exact division by the previous pivot D
(Edmonds; Bareiss).  That update is ``numerics.bareiss_pivot``, the one
that exact rank, nullspace, solve, inverse and det run on too.  The tableau
stays D times the rational one, the objective row holds D times the reduced
costs, ratio tests cross-multiply, and values are read as
Fraction(T[r][-1], D) at the end.  Pivots follow
Bland's rule (smallest entering index; on ratio ties, the smallest leaving
basis index), which terminates without degeneracy heuristics.

Phase 1 runs once.  At an optimal basis c.x = z* + sum_j d_j x_j with every
reduced cost d_j >= 0, so deleting the nonbasic columns with d_j > 0 leaves
exactly the optimal face, and the next objective continues from the current
basis.  For the sup norm, y = x + t*1 and y + s = 2t turn -t <= x <= t into
1 + 2n columns (t, y, s) and m + n rows; the stages minimise t, then y_1,
y_2, ...  After the last one every x_j is fixed: the optimum is one point,
so any correct solver returns the same rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .numerics import bareiss_pivot

INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


class _Tableau:
    """D * [B^-1 A | B^-1 b] over the live columns, objective row apart."""

    def __init__(self, rows: List[List[int]], basis: List[int], var: List[int]):
        self.rows = rows  # constraint rows, right-hand side last
        self.basis = basis  # column of each row's basic variable
        self.var = var  # variable index of each column
        self.obj = [0] * (len(var) + 1)  # D * reduced costs, then -D * value
        self.D = 1

    def pivot(self, r: int, c: int) -> None:
        rows, self.D = bareiss_pivot(self.rows + [self.obj], r, c, self.D)
        self.rows, self.obj = rows[:-1], rows[-1]
        self.basis[r] = c

    def minimise(self, cost: Sequence[int]) -> str:
        """Bland's rule on the integer objective ``cost`` (indexed by variable)."""
        self.obj = [self.D * cost[v] for v in self.var] + [0]
        for row, b in zip(self.rows, self.basis):
            if cost[self.var[b]]:
                self.obj = [o - cost[self.var[b]] * a for o, a in zip(self.obj, row)]
        while True:
            c = next((j for j in range(len(self.var)) if self.obj[j] < 0), None)
            if c is None:
                return OPTIMAL
            rows = sorted((r for r, row in enumerate(self.rows) if row[c] > 0), key=self.basis.__getitem__)
            if not rows:
                return UNBOUNDED
            best = rows[0]
            for r in rows[1:]:  # strictly smaller ratio row[-1] / row[c]
                if self.rows[r][-1] * self.rows[best][c] < self.rows[best][-1] * self.rows[r][c]:
                    best = r
            self.pivot(best, c)

    def positive_reduced_costs(self) -> set:
        return {j for j, o in enumerate(self.obj[:-1]) if o > 0}

    def restrict(self, drop_cols: set, drop_rows: Sequence[int] = ()) -> None:
        keep = [j for j in range(len(self.var)) if j not in drop_cols]
        live = [r for r in range(len(self.rows)) if r not in drop_rows]
        self.rows = [[self.rows[r][j] for j in keep] + [self.rows[r][-1]] for r in live]
        self.basis = [keep.index(self.basis[r]) for r in live]
        self.var = [self.var[j] for j in keep]
        self.obj = [self.obj[j] for j in keep] + [self.obj[-1]]

    def numerators(self, nvars: int) -> List[int]:
        """D times the value of each variable."""
        num = [0] * nvars
        for row, b in zip(self.rows, self.basis):
            num[self.var[b]] = row[-1]
        return num


def _feasible(A: Sequence[Sequence], b: Sequence, n: int) -> Optional[_Tableau]:
    """Phase 1: a tableau of A x = b at a feasible basis, or None."""
    rows = []
    for Ai, bi in zip(A, b):
        row = [Fraction(x) for x in Ai] + [Fraction(bi)]
        scale = math.lcm(*(x.denominator for x in row)) * (-1 if row[-1] < 0 else 1)
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    # a unit column starts its row's basis; other rows get an artificial
    basis = []
    for row in rows:
        unit = (j for j in range(n) if row[j] == 1 and all(o[j] == 0 for o in rows if o is not row))
        basis.append(next(unit, None))
    art = [r for r in range(len(rows)) if basis[r] is None]
    for k, r in enumerate(art):
        basis[r] = n + k
    T = [row[:n] + [int(basis[r] == n + k) for k in range(len(art))] + [row[-1]] for r, row in enumerate(rows)]
    tab = _Tableau(T, basis, list(range(n + len(art))))
    tab.minimise([0] * n + [1] * len(art))
    if tab.obj[-1] != 0:
        return None
    # columns zero on the feasible set go; artificials pivot out or drop their rows
    zero = tab.positive_reduced_costs()
    redundant = []
    for r in range(len(tab.rows)):
        if tab.basis[r] >= n:
            c = next((j for j in range(n) if j not in zero and tab.rows[r][j] != 0), None)
            if c is None:
                redundant.append(r)
            else:
                tab.pivot(r, c)
    tab.restrict(zero | set(range(n, n + len(art))), redundant)
    return tab


def solve_lp(A: Sequence[Sequence], b: Sequence, c: Sequence) -> Tuple[str, Optional[List[Fraction]], Optional[Fraction]]:
    """Returns (status, x, value) for min c.x, A x = b, x >= 0."""
    n = len(c)
    tab = _feasible(A, b, n)
    if tab is None:
        return INFEASIBLE, None, None
    c = [Fraction(x) for x in c]
    scale = math.lcm(*(x.denominator for x in c))
    status = tab.minimise([x.numerator * (scale // x.denominator) for x in c])
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(v, tab.D) for v in tab.numerators(n)]
    return OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x))


def min_sup_norm_solution(A: Sequence[Sequence], b: Sequence) -> Optional[List[Fraction]]:
    """Lexicographically smallest sup-norm minimizer of A x = b (x free)."""
    if not A:
        return []
    n = len(A[0])
    nv = 1 + 2 * n
    rows = []
    for Ai in A:  # A y - (A 1) t = b
        Ai = [Fraction(a) for a in Ai]
        rows.append([-sum(Ai)] + Ai + [0] * n)
    for j in range(n):  # y_j + s_j - 2t = 0
        rows.append([-2] + [int(k == j) for k in range(n)] * 2)
    tab = _feasible(rows, list(b) + [0] * n, nv)
    if tab is None:
        return None
    for k in range(1 + n):  # t, then y_1, ..., y_n: all bounded below by 0
        if k in tab.var:  # a deleted column is zero on the face already
            tab.minimise([int(v == k) for v in range(nv)])
            tab.restrict(tab.positive_reduced_costs())
    num = tab.numerators(nv)
    return [Fraction(num[1 + j] - num[0], tab.D) for j in range(n)]
