"""Slow reference implementations kept as oracles for the library's fast paths.

Each function is the straightforward version that a fast path replaced; the
tests require the fast path to return exactly what the reference returns.
"""

import math
from typing import List, Sequence

import numpy as np

from ietkz.combinatorics import TOP
from ietkz.errors import NoReturn, PrecisionExhausted
from ietkz.numerics import Ball, certified_sign, scalar_abs, sqrt_enclosure, to_float
from ietkz.oracle import IEMap


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
