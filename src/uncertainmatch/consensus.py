"""Weighted Consensus and general weighted pattern matching.

A consensus of two equal-length weighted sequences is a single string
matching both with probability at least 1/z.  Finding one is a
two-threshold Multichoice Knapsack problem over NegLog units: one
class per position, one item per letter present in both sequences
whose units stay within z in each (letters above z are left out).
One builder, `_window_classes`, makes those classes as padded arrays
straight off the units, for any number of windows at once;
`wc_to_knapsack` is its one window over all positions.  One solver,
`_consensus`, hands those arrays to the knapsack layer's one decision
path, `knapsack.decide`: one batched reduction and one pass of
Lagrangian bounds over its windows, then the search on the same
arrays for each window left, after class merging on those arrays
where its classes reach lambda >= 3**6.  No `Item` is built.  The
reverse reduction, `knapsack_to_wc`, builds X and Y as one units
array from the same padded classes, those of `knapsack._item_arrays`.

The general matcher (gwpm) slides a weighted pattern over a weighted
text: each window walks over the positions where the heavy strings
mismatch, dropped as soon as an exact min-sum bound passes z on either
side, or 2z on both together (the (1, 1) Lagrangian NO test of
`knapsack.decide`, taken one mismatch at a time), and reduces to a
consensus instance restricted to those positions.  The
windows with mismatches go to `_consensus` block by block;
`weighted_consensus` is its one window over all positions.  This
module imports no oracle: `reference.naive_consensus` and
`reference.naive_gwpm`, which the tests compare against, share none of
this code.
"""

from __future__ import annotations

import math
import string as _string
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import knapsack, neglog
from .errors import DomainError
from .knapsack import KnapsackInstance, make_instance
from .lcp import WALK_BLOCK, build_cross_index, mismatch_walk
from .weighted import (
    ProbThreshold,
    WeightedSequence,
    _heavy_with_filler,
    prune,
)

# Letter pool for sequences synthesized from knapsack instances.
_LETTER_POOL = _string.ascii_lowercase + _string.ascii_uppercase + _string.digits
_EQUALIZER = "$"


@dataclass(frozen=True)
class WcInstance:
    """A Weighted Consensus instance: two aligned sequences and 1/z."""

    X: WeightedSequence
    Y: WeightedSequence
    z: ProbThreshold

    def __post_init__(self):
        if self.X.n != self.Y.n:
            raise DomainError(
                f"sequences must have equal length, got {self.X.n} and {self.Y.n}"
            )

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def lam(self) -> int:
        return max(self.X.lam, self.Y.lam)


def wc_to_knapsack(
    X: WeightedSequence, Y: WeightedSequence, z: ProbThreshold
) -> tuple[KnapsackInstance | None, list[list[str]]]:
    """Knapsack view of a consensus instance, plus per-class letters.

    Item values are NegLog units in X, weights units in Y; both
    thresholds are the units of z.  Class i holds, in X's order at i
    (by units, ties in alphabet order), the letters present in both
    sequences whose units stay within z in each (a letter above z fits
    no choice).  A position with no such letter has an empty class,
    reported as (None, []): the answer is NO outright.  Built from the
    alive slots of `_whole_window`, in slot order.
    """
    vw, alive, order = _whole_window(X, Y, z)
    classes = []
    letters: list[list[str]] = []
    for v, w, a, o in zip(*vw[:, 0].tolist(), alive[0].tolist(), order[0].tolist()):
        if not any(a):
            return None, []
        classes.append(list(compress(zip(v, w), a)))
        letters.append([X.alphabet[c] for c in compress(o, a)])
    return make_instance(classes, z.units, z.units), letters


def _whole_window(X: WeightedSequence, Y: WeightedSequence, z: ProbThreshold):
    """`_window_classes` of the one window over all positions of X and Y."""
    WcInstance(X, Y, z)  # refuses unequal lengths
    zero = np.zeros(1, dtype=np.int64)
    return _window_classes(X, Y, z, zero, np.arange(X.n)[None], np.array([X.n]), zero, zero)


def _window_classes(P, T, z, starts, d, count, alpha_rest, beta_rest):
    """Consensus classes of windows as padded arrays: (vw, alive, order).

    Window w (0-based start starts[w]) has the positions d[w, :count[w]]
    of P, aligned with T at starts[w] + d; class c of window w is
    position d[w, c].  Its slots take P's letters by units, ties in
    alphabet order: order[w, c] holds their indices in P.alphabet.
    vw[0] and vw[1] hold the units of those letters in P and in T (T
    read through P's letters), beta_rest and alpha_rest added to the
    first class.  A letter is alive where it is present in both rows
    and both its units stay within z; dead slots hold `neglog.INF`.  A
    class past count[w] holds one free item in slot 0.
    """
    order = np.argsort(P.units, axis=1, kind="stable")[d]
    col = np.array([T.alphabet.find(c) for c in P.alphabet])[order]
    vw = np.stack((np.take_along_axis(P.units[d], order, axis=2),
                   np.where(col >= 0, T.units[(starts[:, None] + d)[:, :, None], col], neglog.INF)))
    pad = np.arange(d.shape[1]) >= count[:, None]
    # presence first: at z = inf an absent letter's INF is within z
    alive = (vw < neglog.INF).all(axis=0) & ~pad[:, :, None]
    vw[:, :, :1] += np.stack((beta_rest, alpha_rest))[:, :, None, None]
    alive &= (vw <= z.units).all(axis=0)
    alive[pad, 0] = True
    vw[:, ~alive] = neglog.INF  # above every item and every gap: units stay below 2**43
    vw[:, pad, 0] = 0
    return vw, alive, order


def _consensus(vw, alive, order, alphabet: str, z_units: int, k: int) -> list[str | None]:
    """Each window's consensus letters, one per class, or None where it has none.

    vw, alive and order are windows as `_window_classes` builds them,
    with thresholds z_units; a class past a window's count adds a
    letter its caller cuts off.  `knapsack.decide` (k = 0 is `solve`,
    k >= 1 `solve_k`) picks each class's slot, and `order` its letter.
    """
    state, picks = knapsack.decide(vw, alive, np.full((2, len(alive)), z_units), neglog.INF, k)
    letters = np.array(list(alphabet))[np.take_along_axis(order, picks[:, :, None], axis=2)[:, :, 0]]
    return ["".join(letters[w]) if s > 0 else None for w, s in enumerate(state.tolist())]


def weighted_consensus(
    X: WeightedSequence, Y: WeightedSequence, z: ProbThreshold, k: int | None = None
) -> str | None:
    """A string matching both X and Y with probability >= 1/z, or None.

    Solved by `_consensus` on the one window of `wc_to_knapsack`, the
    meet-in-the-middle search of `knapsack.solve`, or of
    `knapsack.solve_k` when `k` is given.
    """
    if k is not None and k < 1:
        raise DomainError("k must be a positive integer")
    return _consensus(*_whole_window(X, Y, z), X.alphabet, z.units, k or 0)[0]


def knapsack_to_wc(inst: KnapsackInstance, normalize: bool = False) -> WcInstance:
    """Equivalent consensus instance with z <= 4 * prod |C_i|.

    Item values are shifted non-negative per class, scaled by a power
    of two M >= max(n, V, W) and turned into letter probabilities of
    the form 2^-(ceil(M log |C_i|) + v)/M; an extra position equalizes
    the two per-sequence thresholds into a single z.  An item whose
    shifted value passes V, or shifted weight W, fits no choice, so its
    letter is left out of both rows; |C_i| still counts it.  With
    `normalize` each row gains a completing letter (dead in the other
    sequence) so probabilities sum to 1.  X and Y are one units array
    built from the padded classes of `knapsack._item_arrays`, item i of
    a class in column i.
    """
    lam, n = inst.lam, inst.n
    if lam > len(_LETTER_POOL):
        raise DomainError(f"class size {lam} exceeds the letter pool")
    vw, alive, _, _ = knapsack._item_arrays(inst.classes, inst.V, inst.W)
    alive = alive[0]
    mins = vw[:, 0].min(axis=2)  # dead slots sit at top, above every item
    V, W = inst.V - int(mins[0].sum()), inst.W - int(mins[1].sum())
    if V < 0 or W < 0:
        # no choice fits even the per-class minima: any NO instance works
        no = np.array([[0, neglog.INF]])
        return WcInstance(WeightedSequence.from_units("ab", no),
                          WeightedSequence.from_units("ab", no[:, ::-1]), ProbThreshold.from_z(1))
    M = 1 << (max(n, V, W, 1) - 1).bit_length()
    if M > neglog.SCALE:
        raise DomainError("thresholds too large for exact fixed-point reduction")
    unit = neglog.SCALE // M  # exact: M is a power of two <= 2**32
    ceil_log = np.array([math.ceil(M * math.log2(size)) for size in alive.sum(axis=1).tolist()],
                        dtype=np.int64)
    shifted = vw[:, 0] - mins[:, :, None]
    # an item past either threshold fits no choice
    rows, cols = np.nonzero(alive & (shifted <= np.array([V, W])[:, None, None]).all(axis=0))
    units = np.full((2, n + 1, lam + 1), neglog.INF)
    units[:, rows, cols] = (shifted[:, rows, cols] + ceil_log[rows]) * unit
    zs = (np.array([V, W]) + ceil_log.sum()) * unit
    z_units = int(zs.max())
    units[:, n, lam] = z_units - zs
    alphabet = _LETTER_POOL[:lam] + _EQUALIZER
    if normalize:
        alphabet += "!?"
        # each row's probabilities in Python floats (numpy's SIMD power can
        # differ in the last bit), added left to right
        probs = np.frompyfunc(neglog.to_probability, 1, 1)(units).astype(np.float64)
        rest = neglog.from_probabilities(np.maximum(1.0 - probs.cumsum(axis=2)[:, :, -1], 0.0))
        units = np.concatenate(
            (units, np.where(np.eye(2, dtype=bool)[:, None], rest[:, :, None], neglog.INF)), axis=2)
    X, Y = (WeightedSequence.from_units(alphabet, u) for u in units)
    z = ProbThreshold(units=z_units, display=2.0 ** (z_units / neglog.SCALE))
    return WcInstance(X, Y, z)


@dataclass(frozen=True)
class _Occurrence:
    mismatches: tuple[int, ...]  # 1-based offsets into the pattern
    letters: str  # consensus letters at the mismatch offsets


@dataclass(frozen=True)
class GwpmResult:
    """Occurrences of a weighted pattern in a weighted text.

    Stores, per occurrence, the heavy-string mismatch set and the
    consensus letters chosen there, so a full witness string is
    recoverable in O(m).
    """

    occurrences: tuple[int, ...]
    m: int
    _heavy_text: str
    _records: dict[int, _Occurrence]


def gwpm(
    P: WeightedSequence, T: WeightedSequence, z: ProbThreshold, k: int | None = None
) -> GwpmResult:
    """Positions p where some string matches both P and T[p..p+m-1].

    The windows walk together over the heavy strings in batched
    kangaroo rounds (`mismatch_walk`), one lcp query per live window and
    round, collecting the few offsets where the heavy strings mismatch.
    Each window carries three lower bounds on the units of any string
    matching it: one in P and one in the window, which start at the
    heavy units and, at each mismatch, rise by the cheapest letter alive
    in both rows; and one in P and the window together, which starts at
    the sum of the two and, at each mismatch, rises by the cheapest sum
    of a letter's units in the two rows, each capped at z + 1 (an
    absent letter's INF too).  The third is the (1, 1) Lagrangian NO
    test of `knapsack.decide` over the same classes, taken one mismatch
    at a time.  A window is dropped once either of the first two passes
    z, once the third passes 2z, or at its (2 floor(log2 z) + 1)-th
    mismatch, since it cannot match; no bound implies another.  A
    window left with no mismatch occurs with the heavy letters; each of
    the others reduces to a consensus instance restricted to its
    mismatch set.  In blocks of `WALK_BLOCK` windows, `_window_classes`
    builds the windows' classes as padded arrays (letters above z are
    left out) and `_consensus` decides them through `knapsack.decide`:
    one batched pass of the knapsack reductions (greedy commitment,
    then the rank test) answers NO, or YES with the greedy witness, for
    most of them, and one pass of its Lagrangian bounds for most of the
    rest.  Each window left runs the meet-in-the-middle search of
    `knapsack.solve` (or of `knapsack.solve_k` when `k` is given) on
    the same arrays, after class merging on them where its classes
    reach lambda >= 3**6, so no `Item` is built.  That search beat the
    SDWC solver at every (z, m) measured, so `gwpm` does not offer
    SDWC.  `reference.naive_gwpm` is the per-window oracle.

    At z = inf (1/z = 0) a window occurs when some string has nonzero
    probability in it and in P.
    """
    if k is not None and k < 1:
        raise DomainError("k must be a positive integer")
    unbounded = math.isinf(z.display)
    if unbounded:
        # 1/z = 0: a string matches where all its letters are alive, so
        # this is gwpm at z = 1 over the alive letters made free, with
        # no mismatch budget; every sum stays small and exact
        P, T = (WeightedSequence.from_units(
            x.alphabet, np.where(x.units < neglog.INF, 0, neglog.INF)) for x in (P, T))
        z = ProbThreshold.from_z(1)
    P = prune(P, z)
    T = prune(T, z)
    m, n = P.n, T.n
    if m == 0:
        raise DomainError("empty pattern")
    heavy_t, units_t = _heavy_with_filler(T)
    heavy_p, units_p = _heavy_with_filler(P)
    if m > n or (units_p >= neglog.INF).any():
        return GwpmResult((), m, heavy_t, {})
    budget = m if unbounded else 2 * z.log2_floor
    z_units = z.units
    cap = z_units + 1
    common = [c for c in P.alphabet if c in T.alphabet]
    # lower bounds on the units of any match in P and in each window,
    # saturated at cap as in `wpm`; they start at the heavy units
    heavy_sum_p = int(units_p.sum())
    alpha_at = np.concatenate(([0], np.cumsum(np.minimum(units_t, cap))))
    lo_t = np.minimum(alpha_at[m:] - alpha_at[:-m], cap)
    starts = np.nonzero(lo_t <= z_units)[0]
    if not common or heavy_sum_p > z_units or not len(starts):
        return GwpmResult((), m, heavy_t, {})
    lo_t = lo_t[starts]
    lo_p = np.full(len(starts), heavy_sum_p)
    # a lower bound on the units in P plus those in the window, saturated
    # at 2 cap: a match holds at most z on each side, so at most 2z in all
    lo_s = heavy_sum_p + lo_t
    # the rows of the common letters, INF (absent) capped at cap: every
    # other entry is within z after `prune`, so no sum of two wraps
    pu = np.minimum(P.units[:, [P.alphabet.index(c) for c in common]], cap)
    tu = np.minimum(T.units[:, [T.alphabet.index(c) for c in common]], cap)
    # a window has at most m mismatches; the walk drops it at its
    # (budget + 1)-th
    d = np.zeros((len(starts), min(budget, m) + 1), dtype=np.int64)
    count = np.zeros(len(starts), dtype=np.int64)

    def step(w, f):
        # where the heavy letters agree, the cheapest letter alive in both
        # rows is the heavy one, and it is the cheapest in the sum too: a
        # window that ends its walk holds the exact sums of its cheapest
        # common letters, on each side and over both
        j = starts[w] + f
        tp, tt = pu[f], tu[j]
        lo_p[w] += np.minimum(np.where(tt < cap, tp, cap).min(axis=1) - units_p[f], cap - lo_p[w])
        lo_t[w] += np.minimum(np.where(tp < cap, tt, cap).min(axis=1) - units_t[j], cap - lo_t[w])
        lo_s[w] += np.minimum((tp + tt).min(axis=1) - units_p[f] - units_t[j], 2 * cap - lo_s[w])
        d[w, count[w]] = f
        count[w] += 1
        return ((count[w] <= budget) & (lo_p[w] <= z_units) & (lo_t[w] <= z_units)
                & (lo_s[w] <= 2 * z_units))

    idx = build_cross_index(heavy_p, heavy_t)
    ended = mismatch_walk(idx, starts, step)
    starts, d, count = starts[ended], d[ended], count[ended]
    # heavy units of the window and of the pattern outside the
    # mismatches; a window left holds no empty (INF) row, so capping
    # the rows at z + 1 changes none of its sums
    mism = np.arange(d.shape[1]) < count[:, None]
    alpha_rest = alpha_at[starts + m] - alpha_at[starts] \
        - np.where(mism, units_t[starts[:, None] + d], 0).sum(axis=1)
    beta_rest = heavy_sum_p - np.where(mism, units_p[d], 0).sum(axis=1)
    # a window with no mismatch occurs with the heavy letters; the others
    # go block by block to `_consensus`
    records = {int(p) + 1: _Occurrence((), "") for p in starts[count == 0].tolist()}
    todo = np.flatnonzero(count)
    for first in range(0, len(todo), WALK_BLOCK):
        b = todo[first: first + WALK_BLOCK]
        # no class past the block's most mismatches
        D = int(count[b].max())
        found = _consensus(*_window_classes(P, T, z, starts[b], d[b, :D], count[b],
                                            alpha_rest[b], beta_rest[b]),
                           P.alphabet, z_units, k or 0)
        for w, witness in zip(b.tolist(), found):
            if witness is not None:
                c = int(count[w])
                records[int(starts[w]) + 1] = _Occurrence(tuple((d[w, :c] + 1).tolist()),
                                                          witness[:c])
    return GwpmResult(tuple(sorted(records)), m, heavy_t, records)


def gwpm_witness(result: GwpmResult, p: int) -> str:
    """Witness string for occurrence p, spliced in O(m)."""
    rec = result._records.get(p)
    if rec is None:
        raise DomainError(f"position {p} is not an occurrence")
    window = list(result._heavy_text[p - 1: p + result.m - 1])
    for off, letter in zip(rec.mismatches, rec.letters):
        window[off - 1] = letter
    return "".join(window)
