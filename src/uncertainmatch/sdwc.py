"""Short Dissimilar Weighted Consensus.

Tailor-made solver for consensus instances whose length is at most
2 floor(log2 z) and whose heavy strings disagree at every position.
Every consensus string splits into a light solid prefix of one
sequence, a single letter, a run of letters heavy in the other
sequence, and a light solid suffix; the solver enumerates the light
parts (there are few), fills the heavy runs along a hierarchy of
basic intervals, and meets prefix and suffix lists with the knapsack's
two-class join (`knapsack.solve_two_class`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import consensus, knapsack, neglog
from .errors import DomainError
from .weighted import ProbThreshold, WeightedSequence, match_neglog


@dataclass(frozen=True)
class SolidFactorRep:
    """A solid factor with its NegLog units in X (p1) and in Y (p2)."""

    letters: str
    p1: int
    p2: int


class SdwcInstance(consensus.WcInstance):
    """A consensus instance that is short, has lambda <= z and dissimilar heavy strings."""

    def __post_init__(self):
        super().__post_init__()
        X, Y, z = self.X, self.Y, self.z
        if X.n > 2 * z.log2_floor:
            raise DomainError(
                f"length {X.n} exceeds the 2*floor(log2 z) = {2 * z.log2_floor} bound"
            )
        if self.lam > z.display:
            raise DomainError(f"lambda = {self.lam} exceeds z = {z.display}")
        for i in range(1, X.n + 1):
            if X.heavy(i) == Y.heavy(i):
                raise DomainError(f"heavy strings agree at position {i}")


def light_prefixes(
    X: WeightedSequence, Y: WeightedSequence, z: ProbThreshold, zp_units: int
) -> list[list[SolidFactorRep]]:
    """Lists B_0..B_n of common 1/z-solid prefixes light in X.

    B_k holds the length-k prefixes whose last letter is not heavy in
    X and whose probability in X is at least 2^-(zp_units/2^32),
    sorted by non-increasing probability in X (p1 is relative to X,
    the first argument).  Built per length: a shorter light prefix is
    extended by a heavy run and one non-heavy letter, walking letters
    in decreasing probability and stopping on the first failure.
    """
    n = X.n
    hx = [X.heavy(i) for i in range(1, n + 1)]
    B: list[list[SolidFactorRep]] = [[SolidFactorRep("", 0, 0)]] + [[] for _ in range(n)]
    z_units = z.units
    for k in range(1, n + 1):
        cand = [(s, u) for s, u in X.sorted_rows[k - 1] if s != hx[k - 1]]
        if not cand:
            continue
        streams: list[list[SolidFactorRep]] = []
        acc_x = acc_y = 0
        run: list[str] = []
        for i in range(k - 1, -1, -1):
            if i < k - 1:
                # account for the heavy letter at position i + 1
                h = hx[i]
                acc_x += X.letter_units(i + 1, h)
                acc_y += Y.letter_units(i + 1, h)
                run.append(h)
            if not B[i]:
                continue
            hstr = "".join(reversed(run))
            per_letter: list[list[SolidFactorRep]] = [[] for _ in cand]
            for rep in B[i]:
                first_failed = True
                for si, (s, ux) in enumerate(cand):
                    p1 = rep.p1 + acc_x + ux
                    if p1 > zp_units:
                        break
                    first_failed = False
                    p2 = rep.p2 + acc_y + Y.letter_units(k, s)
                    if p2 <= z_units:
                        per_letter[si].append(
                            SolidFactorRep(rep.letters + hstr + s, p1, p2)
                        )
                if first_failed:
                    # even the heaviest non-heavy letter fails; later
                    # elements have smaller probability, so give up on B_i
                    break
            streams.extend(per_letter)
        B[k] = sorted(itertools.chain.from_iterable(streams), key=attrgetter("p1"))
    return B


def light_suffixes(
    X: WeightedSequence, Y: WeightedSequence, z: ProbThreshold, zp_units: int
) -> list[list[SolidFactorRep]]:
    """Lists S_0..S_n of common 1/z-solid suffixes light in X, by length."""
    rev = lambda W: WeightedSequence.from_units(W.alphabet, W.units[::-1])
    B = light_prefixes(rev(X), rev(Y), z, zp_units)
    return [
        [SolidFactorRep(r.letters[::-1], r.p1, r.p2) for r in lst] for lst in B
    ]


def _orient(rep: SolidFactorRep, primary_is_x: bool) -> SolidFactorRep:
    if primary_is_x:
        return rep
    return SolidFactorRep(rep.letters, rep.p2, rep.p1)


def _thresholds(inst: SdwcInstance) -> tuple[int, int]:
    """(zl_units, zr_units) with zl + zr = z so that z_l * z_r >= z."""
    zr = (inst.z.units + neglog.from_z(max(inst.lam, 1)) + 1) // 2
    zl = max(inst.z.units - zr, 0)
    return zl, zr


def build_L_R(inst: SdwcInstance, U: str, V: str):
    """Prefix lists L_1..L_{n+1} and suffix lists R_1..R_{n+1}.

    L_i: light sqrt(lambda/z)-solid prefixes of U of length i-1
    extended by one letter at i, kept when common 1/z-solid.  R_i:
    common 1/z-solid suffixes of length n-i+1 light 1/sqrt(z lambda)-solid
    in V.  All reps are absolute: p1 in X, p2 in Y.  The lists are in
    no particular order; `meet` sorts what it joins.
    """
    X, Y, z = inst.X, inst.Y, inst.z
    n = inst.n
    zl_units, zr_units = _thresholds(inst)
    u_seq, u_other = (X, Y) if U == "X" else (Y, X)
    v_seq, v_other = (X, Y) if V == "X" else (Y, X)

    Bp = light_prefixes(u_seq, u_other, z, zl_units)
    L: list[list[SolidFactorRep]] = [[] for _ in range(n + 2)]
    for i in range(1, n + 1):
        base = [_orient(r, U == "X") for r in Bp[i - 1]]
        for s, _ in X.sorted_rows[i - 1]:
            ux = X.letter_units(i, s)
            uy = Y.letter_units(i, s)
            L[i] += [
                SolidFactorRep(r.letters + s, r.p1 + ux, r.p2 + uy)
                for r in base
                if r.p1 + ux <= z.units and r.p2 + uy <= z.units
            ]

    Bs = light_suffixes(v_seq, v_other, z, zr_units)
    R: list[list[SolidFactorRep]] = [[] for _ in range(n + 2)]
    for i in range(1, n + 2):
        R[i] = [_orient(r, V == "X") for r in Bs[n - i + 1]]
    return L, R


def basic_intervals(n: int) -> list[tuple[int, int, int]]:
    """All (a, b, layer) with 2^layer | a-1 and b = min(n+1, a+2^layer-1)."""
    out = []
    j = 0
    while True:
        for a in range(1, n + 2, 1 << j):
            out.append((a, min(n + 1, a + (1 << j) - 1), j))
        if (1 << j) >= n + 1:
            return out
        j += 1


def star_lists(inst: SdwcInstance, L, R, V: str):
    """L*_{a,b} and R*_{a,b} over all basic intervals, as (a, b) dicts.

    Layer 0 equals L_a / R_a; a parent list extends its left child's
    prefixes (prepends its right child's suffixes) with letters heavy
    in V and adds the other child's list.  The lists keep no order.
    """
    X, Y = inst.X, inst.Y
    n = inst.n
    z_units = inst.z.units
    v_seq = X if V == "X" else Y
    hv = [v_seq.heavy(i) for i in range(1, n + 1)]
    hv_x = [X.letter_units(i, hv[i - 1]) for i in range(1, n + 1)]
    hv_y = [Y.letter_units(i, hv[i - 1]) for i in range(1, n + 1)]

    l_star = {}
    r_star = {}
    # layer 0 first, then each layer by start: both children come first
    for a, b, j in basic_intervals(n):
        if j == 0:
            l_star[(a, a)] = L[a]
            r_star[(a, a)] = R[a]
            continue
        c = a + (1 << (j - 1)) - 1
        if c >= b:
            continue  # the interval coincides with its left child
        hseg = "".join(hv[c: min(b, n)])
        add_x = sum(hv_x[c: min(b, n)])
        add_y = sum(hv_y[c: min(b, n)])
        ext = [
            SolidFactorRep(r.letters + hseg, r.p1 + add_x, r.p2 + add_y)
            for r in l_star[(a, c)]
            if r.p1 + add_x <= z_units and r.p2 + add_y <= z_units
        ]
        l_star[(a, b)] = ext + l_star[(c + 1, b)]
        pseg = "".join(hv[a - 1: c])
        pre_x = sum(hv_x[a - 1: c])
        pre_y = sum(hv_y[a - 1: c])
        ext2 = [
            SolidFactorRep(pseg + r.letters, r.p1 + pre_x, r.p2 + pre_y)
            for r in r_star[(c + 1, b)]
            if r.p1 + pre_x <= z_units and r.p2 + pre_y <= z_units
        ]
        r_star[(a, b)] = r_star[(a, c)] + ext2
    return l_star, r_star


def meet(L, R, z: ProbThreshold) -> str | None:
    """Concatenation of a prefix from L and a suffix from R solid in both.

    The two-class knapsack join with V = W = z's units: each list is
    ordered by (p1, p2), and the first prefix that has a partner is
    paired with its partner of least p2.
    """
    for lst in (L, R):
        if lst and len({len(r.letters) for r in lst}) != 1:
            raise DomainError("meet requires uniform factor lengths per list")
    if not L or not R:
        return None
    left, right = (sorted(lst, key=attrgetter("p1", "p2")) for lst in (L, R))
    hit = knapsack.solve_two_class(
        np.array([(r.p1, r.p2) for r in left], dtype=np.int64),
        np.array([(r.p1, r.p2) for r in right], dtype=np.int64),
        z.units, z.units)
    return None if hit is None else left[hit[0]].letters + right[hit[1]].letters


def solve(inst: SdwcInstance) -> str | None:
    """A consensus string of the instance, or None.

    Tries the four orientation choices in a fixed order; within each,
    a divide-and-conquer over basic intervals meets prefix and suffix
    star lists at every split.  The first verified witness wins.
    """
    n = inst.n
    if n == 0:
        return ""
    z_units = inst.z.units
    top_layer = n.bit_length()
    for U in ("X", "Y"):
        for V in ("X", "Y"):
            L, R = build_L_R(inst, U, V)
            l_star, r_star = star_lists(inst, L, R, V)

            def rec(a: int, b: int, j: int) -> str | None:
                if a >= b or j == 0:
                    return None
                c = a + (1 << (j - 1)) - 1
                if c >= b:
                    return rec(a, b, j - 1)
                s = meet(l_star[(a, c)], r_star[(c + 1, b)], inst.z)
                if s is not None:
                    return s
                return rec(a, c, j - 1) or rec(c + 1, b, j - 1)

            s = rec(1, n + 1, top_layer)
            if s is not None and match_neglog(s, inst.X) <= z_units \
                    and match_neglog(s, inst.Y) <= z_units:
                return s
    return None


def solve_fast(inst: SdwcInstance, k: int) -> str | None:
    """Same answer as solve, via the rank-parameterized knapsack path."""
    return consensus.weighted_consensus(inst.X, inst.Y, inst.z, k)
