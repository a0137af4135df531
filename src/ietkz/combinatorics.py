"""Combinatorial data, Rauzy diagrams, elementary matrices, singularities.

Vertices are *labeled* pairs of bijections (the cocycle lives on labeled
data); all matrices and vectors are indexed by a canonical alphabet order
fixed when the data is created.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConsistencyFailure,
    DiagramTooLarge,
    NonConsecutivePath,
    NotBijection,
    Reducible,
)
from .numerics import exact_rank, identity_matrix

TOP = "top"
BOTTOM = "bottom"


@dataclass(frozen=True)
class CombinatorialData:
    """Pair of bijections alphabet -> {1..d}, stored as position rows.

    ``top[i]`` is the letter occupying position ``i+1`` in the top row.
    ``letters`` fixes the canonical index order used by every matrix.
    """

    letters: Tuple[str, ...]
    top: Tuple[str, ...]
    bottom: Tuple[str, ...]

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_rows(top: Sequence[str], bottom: Sequence[str], letters: Optional[Sequence[str]] = None) -> "CombinatorialData":
        if letters is None:
            letters = tuple(sorted(top))
        return CombinatorialData(tuple(letters), tuple(top), tuple(bottom))

    @property
    def d(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        return self.letters.index(letter)

    def top_pos(self, letter: str) -> int:
        """pi_t(letter), 1-based."""
        return self.top.index(letter) + 1

    def bottom_pos(self, letter: str) -> int:
        return self.bottom.index(letter) + 1

    @property
    def alpha_t(self) -> str:
        return self.top[-1]

    @property
    def alpha_b(self) -> str:
        return self.bottom[-1]

    def is_standard(self) -> bool:
        return self.top[0] == self.bottom[-1] and self.bottom[0] == self.top[-1]

    def key(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return (self.top, self.bottom)

    def __repr__(self):
        return f"<{' '.join(self.top)} | {' '.join(self.bottom)}>"


def validate_pi(pi: CombinatorialData) -> None:
    """Checks both rows are bijections on the alphabet and irreducibility."""
    letters = set(pi.letters)
    if len(pi.letters) < 2:
        raise NotBijection("need at least two letters")
    for row in (pi.top, pi.bottom):
        if len(row) != len(pi.letters) or set(row) != letters:
            raise NotBijection(f"row {row!r} is not a bijection on {sorted(letters)!r}")
    for k in range(1, pi.d):
        if set(pi.top[:k]) == set(pi.bottom[:k]):
            raise Reducible(k)


def omega_matrix(pi: CombinatorialData) -> np.ndarray:
    """Antisymmetric intersection matrix: +1 iff alpha precedes beta on top
    and follows it on the bottom."""
    d = pi.d
    om = np.zeros((d, d), dtype=object)
    tpos = {a: pi.top_pos(a) for a in pi.letters}
    bpos = {a: pi.bottom_pos(a) for a in pi.letters}
    for i, a in enumerate(pi.letters):
        for j, b in enumerate(pi.letters):
            if tpos[a] < tpos[b] and bpos[a] > bpos[b]:
                om[i, j] = 1
            elif tpos[a] > tpos[b] and bpos[a] < bpos[b]:
                om[i, j] = -1
    return om


@dataclass(frozen=True)
class RauzyArrow:
    source: CombinatorialData
    target: CombinatorialData
    kind: str  # TOP or BOTTOM
    winner: str
    loser: str

    def __repr__(self):
        return f"Arrow[{self.kind}:{self.winner}>{self.loser}]"


def _insert_after(row: Tuple[str, ...], moved: str, anchor: str) -> Tuple[str, ...]:
    rest = [x for x in row if x != moved]
    out: List[str] = []
    for x in rest:
        out.append(x)
        if x == anchor:
            out.append(moved)
    return tuple(out)


def _move_to_end(row: Tuple[str, ...], moved: str) -> Tuple[str, ...]:
    return tuple([x for x in row if x != moved] + [moved])


def rauzy_move(pi: CombinatorialData, kind: str, inverse: bool = False) -> CombinatorialData:
    """One elementary move on combinatorial data (or its inverse).

    Top move: the last bottom letter is reinserted right after the last
    top letter in the bottom row; the top row is unchanged.  Bottom move
    is symmetric.  Both maps are bijections on irreducible data.
    """
    if kind not in (TOP, BOTTOM):
        raise ValueError(f"unknown move kind {kind!r}")
    if not inverse:
        if kind == TOP:
            new_bottom = _insert_after(pi.bottom, pi.alpha_b, pi.alpha_t)
            return CombinatorialData(pi.letters, pi.top, new_bottom)
        new_top = _insert_after(pi.top, pi.alpha_t, pi.alpha_b)
        return CombinatorialData(pi.letters, new_top, pi.bottom)
    # Inverse move: the loser sits right after the winner; send it back
    # to the end of its row.
    if kind == TOP:
        winner = pi.alpha_t
        wpos = pi.bottom_pos(winner)
        if wpos == pi.d:
            raise ValueError("not in the image of a top move")
        loser = pi.bottom[wpos]  # letter at position wpos+1
        return CombinatorialData(pi.letters, pi.top, _move_to_end(pi.bottom, loser))
    winner = pi.alpha_b
    wpos = pi.top_pos(winner)
    if wpos == pi.d:
        raise ValueError("not in the image of a bottom move")
    loser = pi.top[wpos]
    return CombinatorialData(pi.letters, _move_to_end(pi.top, loser), pi.bottom)


def arrow(pi: CombinatorialData, kind: str) -> RauzyArrow:
    """The outgoing arrow of the given type at ``pi``."""
    target = rauzy_move(pi, kind)
    if kind == TOP:
        return RauzyArrow(pi, target, TOP, winner=pi.alpha_t, loser=pi.alpha_b)
    return RauzyArrow(pi, target, BOTTOM, winner=pi.alpha_b, loser=pi.alpha_t)


def incoming_arrow(pi: CombinatorialData, kind: str) -> RauzyArrow:
    """The arrow of the given type whose target is ``pi``."""
    source = rauzy_move(pi, kind, inverse=True)
    return arrow(source, kind)


@dataclass
class RauzyDiagram:
    vertices: List[CombinatorialData]
    arrows: List[RauzyArrow]

    def out_arrows(self, pi: CombinatorialData) -> List[RauzyArrow]:
        return [a for a in self.arrows if a.source == pi]

    def __len__(self):
        return len(self.vertices)


def build_diagram(pi: CombinatorialData, cap: int = 100000) -> RauzyDiagram:
    """Breadth-first closure under both moves, vertices in discovery order."""
    validate_pi(pi)
    seen = {pi.key(): pi}
    order = [pi]
    arrows: List[RauzyArrow] = []
    queue = deque([pi])
    while queue:
        cur = queue.popleft()
        for kind in (TOP, BOTTOM):
            a = arrow(cur, kind)
            arrows.append(a)
            k = a.target.key()
            if k not in seen:
                if len(seen) >= cap:
                    raise DiagramTooLarge(f"diagram exceeds cap {cap}")
                seen[k] = a.target
                order.append(a.target)
                queue.append(a.target)
    return RauzyDiagram(order, arrows)


def elementary_matrix(a: RauzyArrow) -> np.ndarray:
    """I + E[loser, winner] in the canonical letter order."""
    d = a.source.d
    m = identity_matrix(d)
    m[a.source.index(a.loser), a.source.index(a.winner)] += 1
    return m


def cocycle_step(M: np.ndarray, a: RauzyArrow, right: bool = False, inv: Optional[np.ndarray] = None) -> None:
    """The elementary cocycle step of arrow ``a``, in place.

    With E = I + E[loser, winner]: M <- E M (row[loser] += row[winner]), or
    M <- M E (column[winner] += column[loser]) when ``right``.  The left
    product also takes a 1-D vector M, whose entry[loser] += entry[winner].
    ``inv``, the inverse of the matrix M, is kept in step: inv <- inv E^-1
    (column[winner] -= column[loser]) after a left product, inv <- E^-1 inv
    (row[loser] -= row[winner]) after a right one.
    """
    li = a.source.index(a.loser)
    wi = a.source.index(a.winner)
    if right:
        M[:, wi] = M[:, wi] + M[:, li]
        if inv is not None:
            inv[li, :] = inv[li, :] - inv[wi, :]
        return
    M[li] = M[li] + M[wi]
    if inv is not None:
        inv[:, wi] = inv[:, wi] - inv[:, li]


def check_consecutive(path: Sequence[RauzyArrow]) -> None:
    for prev, nxt in zip(path, path[1:]):
        if prev.target.key() != nxt.source.key():
            raise NonConsecutivePath(f"{prev!r} -> {nxt!r}")


def path_matrix(path: Sequence[RauzyArrow], d: Optional[int] = None) -> np.ndarray:
    """Product B_{gamma_n} ... B_{gamma_1} for consecutive arrows."""
    if not path:
        if d is None:
            raise ValueError("empty path needs an explicit dimension")
        return identity_matrix(d)
    check_consecutive(path)
    B = identity_matrix(path[0].source.d)
    for a in path:
        # left-multiply by I + E[loser, winner]: row[loser] += row[winner]
        i = a.source.index(a.loser)
        j = a.source.index(a.winner)
        B[i, :] = B[i, :] + B[j, :]
    return B


def complete_blocks(path: Sequence[RauzyArrow]) -> List[int]:
    """Greedy-from-left decomposition into complete blocks.

    Returns the list of block end indices (exclusive); a block is complete
    when every letter has won at least once inside it.
    """
    if not path:
        return []
    letters = set(path[0].source.letters)
    ends: List[int] = []
    seen = set()
    for i, a in enumerate(path):
        seen.add(a.winner)
        if seen == letters:
            ends.append(i + 1)
            seen = set()
    return ends


def completeness(path: Sequence[RauzyArrow]) -> int:
    """Maximal k such that the path is k-complete (greedy blocks)."""
    if path:
        check_consecutive(path)
    return len(complete_blocks(path))


@dataclass
class SingularStructure:
    cycles: List[List[str]]  # cycles of sigma over symbol names
    s: int
    g: int
    # indices i such that U_i belongs to each cycle (for the boundary operator)
    u_indices: List[List[int]]


def _symbol(kind: str, i: int, d: int) -> str:
    # U_0 = V_0 and U_d = V_d are merged.
    if i == 0:
        return "U0"
    if i == d:
        return f"U{d}"
    return f"{kind}{i}"


def singular_structure(pi: CombinatorialData) -> SingularStructure:
    """Cycles of the vertex permutation sigma, with s and g cross-checked.

    sigma(U_i) = V_j where the letter at top position i+1 sits at bottom
    position j+1; sigma(V_j) = U_i where the letter at bottom position j
    sits at top position i.
    """
    validate_pi(pi)
    d = pi.d
    sigma = {}
    for i in range(d):
        letter = pi.top[i]  # top position i+1
        j = pi.bottom_pos(letter) - 1
        sigma[_symbol("U", i, d)] = _symbol("V", j, d)
    for j in range(1, d + 1):
        letter = pi.bottom[j - 1]  # bottom position j
        i = pi.top_pos(letter)
        sigma[_symbol("V", j, d)] = _symbol("U", i, d)
    symbols = {_symbol("U", i, d) for i in range(d + 1)} | {_symbol("V", j, d) for j in range(d + 1)}
    if set(sigma) != symbols or set(sigma.values()) != symbols:
        raise ConsistencyFailure("sigma is not a permutation of the vertex set")
    cycles: List[List[str]] = []
    left = set(symbols)
    while left:
        start = min(left)
        cyc = [start]
        left.remove(start)
        cur = sigma[start]
        while cur != start:
            cyc.append(cur)
            left.remove(cur)
            cur = sigma[cur]
        cycles.append(cyc)
    s = len(cycles)
    rank = exact_rank(omega_matrix(pi))
    if rank % 2 != 0:
        raise ConsistencyFailure("rank of the antisymmetric matrix is odd")
    g = rank // 2
    if d != 2 * g + s - 1:
        raise ConsistencyFailure(f"d={d} but 2g+s-1={2 * g + s - 1}")
    u_indices = [sorted(int(sym[1:]) for sym in cyc if sym.startswith("U")) for cyc in cycles]
    return SingularStructure(cycles, s, g, u_indices)


def all_irreducible(d: int, letters: Optional[Sequence[str]] = None, top_identity_only: bool = False) -> Iterable[CombinatorialData]:
    """All irreducible labeled data on d letters (optionally pi_t = id)."""
    from itertools import permutations

    if letters is None:
        letters = tuple("ABCDEFGH"[:d])
    tops = [tuple(letters)] if top_identity_only else list(permutations(letters))
    for top in tops:
        for bottom in permutations(letters):
            pi = CombinatorialData(tuple(letters), top, bottom)
            try:
                validate_pi(pi)
            except (Reducible, NotBijection):
                continue
            yield pi


def diagram_to_json(diag: RauzyDiagram) -> dict:
    idx = {v.key(): i for i, v in enumerate(diag.vertices)}
    return {
        "vertices": [{"top": list(v.top), "bottom": list(v.bottom)} for v in diag.vertices],
        "arrows": [
            {
                "src": idx[a.source.key()],
                "dst": idx[a.target.key()],
                "type": a.kind,
                "winner": a.winner,
                "loser": a.loser,
            }
            for a in diag.arrows
        ],
    }
