"""Forward and backward Rauzy-Veech induction with exact branch decisions.

States carry length data, optional suspension data and cached heights.
Trajectories record every state and arrow of a window [n_min, n_max],
and the cocycle once per level as a matrix G(n) with its exact integer
inverse, so that B(m, n) and B(m, n)^-1 are each one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .combinatorics import (
    BOTTOM,
    TOP,
    CombinatorialData,
    RauzyArrow,
    arrow,
    cocycle_step,
    omega_matrix,
    rauzy_move,
    validate_pi,
)
from .errors import (
    ConnectionHit,
    HorizontalDegenerate,
    InsufficientTrajectory,
    InvalidLengths,
    NotSuspensionVector,
    PrecisionExhausted,
)
from .numerics import Ball, certified_sign, identity_matrix, matvec, sum_norm

Vector = Tuple  # per-letter scalars in canonical order


@dataclass(frozen=True)
class InductionState:
    pi: CombinatorialData
    lam: tuple
    tau: Optional[tuple]
    level: int = 0

    @property
    def d(self) -> int:
        return self.pi.d

    def heights(self) -> tuple:
        """q = -Omega tau, the zippered-rectangle heights.

        Computed once per state and kept outside the dataclass fields, so
        equality and hashing still see only (pi, lam, tau, level).
        """
        q = self.__dict__.get("_heights")
        if q is None:
            if self.tau is None:
                raise InvalidLengths("heights need suspension data")
            om = omega_matrix(self.pi)
            neg = np.array([[-x for x in row] for row in om], dtype=object)
            q = matvec(neg, self.tau)
            object.__setattr__(self, "_heights", q)
        return q

    def total_length(self):
        total = self.lam[0]
        for x in self.lam[1:]:
            total = total + x
        return total

    def lam_of(self, letter: str):
        return self.lam[self.pi.index(letter)]


def suspension_check(pi: CombinatorialData, tau: Sequence) -> None:
    """Raises NotSuspensionVector on the first failing prefix condition."""
    running_t = None
    running_b = None
    for k in range(1, pi.d):
        lt = tau[pi.index(pi.top[k - 1])]
        lb = tau[pi.index(pi.bottom[k - 1])]
        running_t = lt if running_t is None else running_t + lt
        running_b = lb if running_b is None else running_b + lb
        st = certified_sign(running_t)
        sb = certified_sign(running_b)
        if st is None or sb is None:
            raise PrecisionExhausted(f"cannot certify suspension condition at k={k}")
        if st <= 0:
            raise NotSuspensionVector(k, "top")
        if sb >= 0:
            raise NotSuspensionVector(k, "bottom")


def canonical_tau(pi: CombinatorialData) -> tuple:
    """tau_alpha = pi_b(alpha) - pi_t(alpha); always a suspension vector."""
    from fractions import Fraction

    return tuple(Fraction(pi.bottom_pos(a) - pi.top_pos(a)) for a in pi.letters)


def make_state(pi: CombinatorialData, lam: Sequence, tau: Optional[Sequence] = None) -> InductionState:
    validate_pi(pi)
    if len(lam) != pi.d:
        raise InvalidLengths("length vector has wrong dimension")
    for x in lam:
        s = certified_sign(x)
        if s is None:
            raise PrecisionExhausted("cannot certify positivity of a length")
        if s <= 0:
            raise InvalidLengths("lengths must be strictly positive")
    if tau is not None:
        if len(tau) != pi.d:
            raise InvalidLengths("suspension vector has wrong dimension")
        suspension_check(pi, tau)
    state = InductionState(pi, tuple(lam), tuple(tau) if tau is not None else None, level=0)
    if tau is not None:
        for qa in state.heights():
            s = certified_sign(qa)
            if s is None:
                raise PrecisionExhausted("cannot certify positivity of a height")
            if s <= 0:
                raise InvalidLengths("heights must be positive for suspension data")
    return state


def forward_step(state: InductionState) -> Tuple[InductionState, RauzyArrow]:
    """One elementary forward step; the longer of the two last intervals wins."""
    pi = state.pi
    at, ab = pi.alpha_t, pi.alpha_b
    diff = state.lam_of(at) - state.lam_of(ab)
    s = certified_sign(diff)
    if s is None:
        raise PrecisionExhausted("cannot certify the induction branch")
    if s == 0:
        raise ConnectionHit("equal critical lengths (vertical connection)")
    kind = TOP if s > 0 else BOTTOM
    a = arrow(pi, kind)
    wi = pi.index(a.winner)
    li = pi.index(a.loser)
    lam = list(state.lam)
    lam[wi] = lam[wi] - lam[li]
    tau = None
    if state.tau is not None:
        tau = list(state.tau)
        tau[wi] = tau[wi] - tau[li]
        tau = tuple(tau)
    new = InductionState(a.target, tuple(lam), tau, state.level + 1)
    return new, a


def backward_step(state: InductionState) -> Tuple[InductionState, RauzyArrow]:
    """One inverse elementary step, branch decided by the sign of sum(tau)."""
    if state.tau is None:
        raise InvalidLengths("backward induction needs suspension data")
    pi = state.pi
    total = state.tau[0]
    for x in state.tau[1:]:
        total = total + x
    s = certified_sign(total)
    if s is None:
        raise PrecisionExhausted("cannot certify the backward branch")
    if s == 0:
        raise HorizontalDegenerate("sum of tau vanishes (horizontal connection)")
    if s < 0:
        kind = TOP
        winner = pi.top[-1]
        loser = pi.bottom[pi.bottom_pos(winner)]  # bottom position of winner, +1
    else:
        kind = BOTTOM
        winner = pi.bottom[-1]
        loser = pi.top[pi.top_pos(winner)]
    source = rauzy_move(pi, kind, inverse=True)
    wi = pi.index(winner)
    li = pi.index(loser)
    lam = list(state.lam)
    lam[wi] = lam[wi] + lam[li]
    tau = list(state.tau)
    tau[wi] = tau[wi] + tau[li]
    new = InductionState(source, tuple(lam), tuple(tau), state.level - 1)
    suspension_check(source, tau)
    a = RauzyArrow(source, pi, kind, winner, loser)
    return new, a


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Steps:
    n: int


@dataclass
class ZorichSteps:
    k: int


@dataclass
class NormThreshold:
    t: int


class Trajectory:
    """Window [n_min, n_max] of states with arrows keyed by target level.

    The cocycle is stored once per level as the pair (G(n), G(n)^-1), with
    G = I at the centre level c, G(n) = B(c, n) above it and
    G(n) = B(n, c)^-1 below it.  Then B(m, n) = G(n) G(m)^-1 for every
    m <= n in the window; each append costs one elementary update of a
    copy of its neighbour's pair.
    """

    def __init__(self, center: InductionState):
        lvl = center.level
        self.states: Dict[int, InductionState] = {lvl: center}
        self.arrows: Dict[int, RauzyArrow] = {}
        self.zorich: Dict[int, int] = {lvl: 0}
        self.n_min = lvl
        self.n_max = lvl
        d = center.d
        self._cocycle: Dict[int, Tuple[np.ndarray, np.ndarray]] = {lvl: (identity_matrix(d), identity_matrix(d))}

    # -- construction -----------------------------------------------------
    def _append_forward(self, state: InductionState, a: RauzyArrow) -> None:
        n = state.level
        assert n == self.n_max + 1
        prev = self.arrows.get(self.n_max)
        self.arrows[n] = a
        self.states[n] = state
        self.zorich[n] = self.zorich[self.n_max] + (1 if prev is not None and prev.kind != a.kind else 0)
        # G(n) = E G(n-1), G(n)^-1 = G(n-1)^-1 E^-1
        G, Ginv = (X.copy() for X in self._cocycle[self.n_max])
        cocycle_step(G, a, inv=Ginv)
        self._cocycle[n] = (G, Ginv)
        self.n_max = n

    def _append_backward(self, state: InductionState, a: RauzyArrow) -> None:
        n = state.level
        assert n == self.n_min - 1
        succ = self.arrows.get(self.n_min + 1)
        self.arrows[self.n_min] = a
        self.states[n] = state
        self.zorich[n] = self.zorich[self.n_min] - (1 if succ is not None and succ.kind != a.kind else 0)
        # G(n)^-1 = G(n+1)^-1 E, G(n) = E^-1 G(n+1)
        G, Ginv = (X.copy() for X in self._cocycle[self.n_min])
        cocycle_step(Ginv, a, right=True, inv=G)
        self._cocycle[n] = (G, Ginv)
        self.n_min = n

    # -- access -------------------------------------------------------------
    def state(self, n: int) -> InductionState:
        return self.states[n]

    def arrow_at(self, n: int) -> RauzyArrow:
        """The arrow from pi^(n-1) to pi^(n)."""
        return self.arrows[n]

    def levels(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def zorich_time(self, n: int) -> int:
        return self.zorich[n]

    # -- cocycle matrices -----------------------------------------------
    def _check_window(self, m: int, n: int) -> None:
        if not (self.n_min <= m <= n <= self.n_max):
            raise InsufficientTrajectory(f"window [{self.n_min},{self.n_max}] misses [{m},{n}]")

    def matrix(self, m: int, n: int) -> np.ndarray:
        """B(m, n) = G(n) G(m)^-1 for n_min <= m <= n <= n_max (identity when m == n)."""
        self._check_window(m, n)
        return self._cocycle[n][0] @ self._cocycle[m][1]

    def inverse(self, m: int, n: int) -> np.ndarray:
        """B(m, n)^-1 = G(m) G(n)^-1, an exact integer matrix, on the same window as ``matrix``."""
        self._check_window(m, n)
        return self._cocycle[m][0] @ self._cocycle[n][1]

    def transport(self, m: int, n: int) -> np.ndarray:
        """The integer matrix taking level-m coordinates to level-n coordinates.

        B(m, n) when m <= n and B(n, m)^-1 when n < m; exact vectors move by
        ``matvec(traj.transport(m, n), v)``.
        """
        return self.matrix(m, n) if m <= n else self.inverse(n, m)

    def norm(self, m: int, n: int) -> int:
        return int(sum_norm(self.matrix(m, n)))

    def export_stream(self) -> List[dict]:
        out = []
        for n in range(self.n_min + 1, self.n_max + 1):
            a = self.arrows[n]
            out.append(
                {
                    "n": n,
                    "type": a.kind,
                    "winner": a.winner,
                    "loser": a.loser,
                    "Z": self.zorich[n],
                }
            )
        return out


def _state_bits(state: InductionState) -> Optional[int]:
    for x in state.lam + (state.tau or ()):
        if isinstance(x, Ball):
            return x.bits
    return None


def run(
    state: InductionState,
    direction: str,
    stop,
    rebuild: Optional[Callable[[int], InductionState]] = None,
    max_bits: int = 4096,
) -> Trajectory:
    """Iterates elementary steps until the stop criterion is met.

    ``direction`` is "forward" or "backward".  On an uncertain ball branch
    the run restarts from ``rebuild(2 * bits)`` when a rebuild callback is
    available, doubling until ``max_bits``; otherwise PrecisionExhausted
    propagates with the partial trajectory attached.
    """
    while True:
        try:
            return _run_once(state, direction, stop)
        except PrecisionExhausted as exc:
            bits = _state_bits(state)
            if rebuild is None or bits is None or 2 * bits > max_bits:
                raise
            state = rebuild(2 * bits)


def _stop_reached(traj: Trajectory, stop, steps_done: int) -> bool:
    if isinstance(stop, Steps):
        return steps_done >= stop.n
    if isinstance(stop, ZorichSteps):
        # Zorich time is monotone in the level
        return traj.zorich[traj.n_max] - traj.zorich[traj.n_min] >= stop.k
    if isinstance(stop, NormThreshold):
        return int(sum_norm(traj.matrix(traj.n_min, traj.n_max))) >= stop.t
    raise TypeError(f"unknown stop criterion {stop!r}")


def _run_once(state: InductionState, direction: str, stop) -> Trajectory:
    traj = Trajectory(state)
    steps_done = 0
    cur = state
    while not _stop_reached(traj, stop, steps_done):
        try:
            if direction == "forward":
                cur, a = forward_step(cur)
                traj._append_forward(cur, a)
            elif direction == "backward":
                cur, a = backward_step(cur)
                traj._append_backward(cur, a)
            else:
                raise ValueError(f"unknown direction {direction!r}")
        except (ConnectionHit, HorizontalDegenerate, PrecisionExhausted) as exc:
            exc.trajectory = traj
            raise
        steps_done += 1
    return traj


def run_window(state: InductionState, back: int, fwd: int) -> Trajectory:
    """Two-sided trajectory [-back, +fwd] around a level-0 state."""
    traj = Trajectory(state)
    cur = state
    try:
        for _ in range(fwd):
            cur, a = forward_step(cur)
            traj._append_forward(cur, a)
        cur = state
        for _ in range(back):
            cur, a = backward_step(cur)
            traj._append_backward(cur, a)
    except (ConnectionHit, HorizontalDegenerate, PrecisionExhausted) as exc:
        exc.trajectory = traj
        raise
    return traj


# ---------------------------------------------------------------------------
# accelerated time sequences

COMPLETE_PATHS = "CompletePaths"
POSITIVE_MATRIX = "PositiveMatrix"
ABSOLUTE_CONE = "AbsoluteCone"
DUAL_COMPLETE = "DualComplete"


def accelerated_times(traj: Trajectory, kind: str, start: int = 0) -> List[int]:
    """Block boundaries of the requested acceleration.

    Forward kinds return increasing times starting at ``start``; the dual
    kind returns decreasing times (maximal complete blocks scanned from 0
    towards n_min).  At least one full block must fit in the window.
    """
    if kind == COMPLETE_PATHS:
        times = [start]
        letters = set(traj.state(start).pi.letters)
        seen: set = set()
        for n in range(start + 1, traj.n_max + 1):
            seen.add(traj.arrows[n].winner)
            if seen == letters:
                times.append(n)
                seen = set()
    elif kind == POSITIVE_MATRIX:
        times = [start]
        d = traj.state(start).d
        B = identity_matrix(d)
        for n in range(start + 1, traj.n_max + 1):
            cocycle_step(B, traj.arrows[n])
            if all(x > 0 for x in B.ravel()):
                times.append(n)
                B = identity_matrix(d)
    elif kind == ABSOLUTE_CONE:
        from .cones import absolute_cone_rays

        times = [start]
        rays = [np.array(r, dtype=object) for r in absolute_cone_rays(traj.state(start).pi).rays]
        images = [r.copy() for r in rays]
        for n in range(start + 1, traj.n_max + 1):
            for w in images:
                cocycle_step(w, traj.arrows[n])
            if images and all(all(x > 0 for x in w) for w in images):
                times.append(n)
                rays = [np.array(r, dtype=object) for r in absolute_cone_rays(traj.state(n).pi).rays]
                images = [r.copy() for r in rays]
    elif kind == DUAL_COMPLETE:
        times = [start]
        letters = set(traj.state(start).pi.letters)
        seen = set()
        for n in range(start, traj.n_min, -1):
            # extend the path gamma(n-1, boundary) by the arrow at level n
            seen.add(traj.arrows[n].winner)
            if seen == letters:
                times.append(n - 1)
                seen = set()
    else:
        raise ValueError(f"unknown acceleration kind {kind!r}")
    if len(times) < 2:
        raise InsufficientTrajectory(f"no complete {kind} block inside the window")
    return times


def word_codes(traj: Trajectory, m: int, n: int, dual: bool = False) -> List[np.ndarray]:
    """The words of the substitution composed over the window [m, n], one
    int8 array of letter codes (canonical letter indices) per letter.

    Composed from the inside, every level rewrites one word, as
    ``cocycle_step`` rewrites one row.  Visit rule, k = m+1..n: W[loser]
    becomes W[loser] W[winner] for a top arrow and W[winner] W[loser] for a
    bottom one; the count of beta in W[alpha] is B(m, n)[alpha, beta].
    Dual rule, k = n..m+1: W[winner] becomes W[winner] W[loser]; the count
    of beta in W[alpha] is B(m, n)[beta, alpha].
    """
    if not (traj.n_min <= m <= n <= traj.n_max):
        raise InsufficientTrajectory(f"window misses [{m},{n}]")
    words = [np.array([i], dtype=np.int8) for i in range(traj.state(n).d)]  # d < 128 letters
    for k in range(n, m, -1) if dual else range(m + 1, n + 1):
        a = traj.arrow_at(k)
        li, wi = a.source.index(a.loser), a.source.index(a.winner)
        if dual:
            words[wi] = np.concatenate((words[wi], words[li]))
        elif a.kind == TOP:
            words[li] = np.concatenate((words[li], words[wi]))
        else:
            words[li] = np.concatenate((words[wi], words[li]))
    return words


def spell(letters: Sequence[str], codes: Sequence[np.ndarray]) -> Dict[str, List[str]]:
    """Letter-code words as lists of letter names, keyed by letter."""
    names = np.array(letters)
    return {a: names[w].tolist() for a, w in zip(letters, codes)}


def visit_words(traj: Trajectory, n_prime: int, n: int) -> Dict[str, List[str]]:
    """Orbit itineraries as substitution words, one per letter.

    ``words[alpha]`` lists, in temporal order, the level-n' letters visited
    by the orbit of any point of I_alpha^(n) under T^(n') up to its first
    return to I^(n); the count of beta in it equals B(n', n)[alpha, beta].
    These are the visit-rule words of ``word_codes``.
    """
    codes = word_codes(traj, n_prime, n)
    return spell(traj.state(n).pi.letters, codes)


# ---------------------------------------------------------------------------
# suspension diagnostics


def h_profile(state: InductionState):
    """Partial sums (H^t_k)_k, (H^b_k)_k for k=1..d and their spread H(n).

    H(n) sums the 2(d-1) strictly positive quantities H^t_k and -H^b_k,
    k < d; it strictly decreases along backward induction.
    """
    if state.tau is None:
        raise InvalidLengths("h_profile needs suspension data")
    pi = state.pi
    ht = []
    hb = []
    running_t = None
    running_b = None
    for k in range(1, pi.d + 1):
        lt = state.tau[pi.index(pi.top[k - 1])]
        lb = state.tau[pi.index(pi.bottom[k - 1])]
        running_t = lt if running_t is None else running_t + lt
        running_b = lb if running_b is None else running_b + lb
        ht.append(running_t)
        hb.append(running_b)
    H = None
    for k in range(state.d - 1):
        term = ht[k] - hb[k]
        H = term if H is None else H + term
    return ht, hb, H


def detect_connection(state: InductionState, depth: int):
    """First triple (i, j, m) with T^m(u_j^b) = u_i^t, m <= depth, or None."""
    from .oracle import IEMap

    T = IEMap(state.pi, state.lam)
    tops = T.top_singularities()  # u_i^t for i = 1..d-1
    for j in range(1, state.d):
        x = T.bottom_singularities()[j - 1]
        for m in range(depth + 1):
            for i, u in enumerate(tops, start=1):
                s = certified_sign(x - u)
                if s is None:
                    raise PrecisionExhausted("cannot certify a connection test")
                if s == 0:
                    return (i, j, m)
            if m < depth:
                x = T.apply(x)
    return None
