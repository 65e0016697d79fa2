"""Exact Multichoice Knapsack solver.

Choose one item per class so that value and weight sums stay within
two thresholds.  The solver runs the classic meet-in-the-middle
search parameterized by the number of feasible choices: the
value-sorted partial-choice lists over suffixes of the class sequence
are grown by doubling their length r, those over prefixes only to the
ell rows the search reads of them (`PrefixGenerator.step` takes the
target length), growth stops once ranks certify that no feasible
solution can be missed, and each split index is finished with a
vectorized two-class sweep.  Growth and the stop test read values
alone, so a list holds its sorted values and the order that picked
them, 16 bytes a row; the join builds the weights of every list once,
and a witness is walked back through the stored orders.  `solve_k`
guesses k front classes: each orientation walks every guess, searching
it to its stop, in turn with the other orientation, and the first to
finish decides; `solve` is k = 0, one guess.  Each search derives its
rank budgets from k as exact integer roots (`_iroot`), so no budget
can overflow a float.

Instance reductions shrink the class count to O(log A / log lambda)
first: greedy commitment, then one rank test (`_may_fit`) on the
second-smallest gaps and, for lambda >= 3**6, class merging and the
same test on the ceil(lambda^(1/3))-th gaps of the large classes.
Greedy commitment and the rank test run on padded numpy arrays of
many instances at once (`reduce_batch`); merging runs on the padded
arrays of one instance (`_merge`), and keeps only the strict Pareto
front (`_front`) of every class and every product, the one dominance
rule of the reductions.  Every caller decides through `decide`:
`reduce_batch` on a batch; then Lagrangian bounds (`_lagrange`), one
vector pass over seven fixed multiplier pairs that answers NO
where a weighted sum of the class minima passes the same sum of the
thresholds, and YES where a per-class minimizing choice fits (the LP
relaxation of Sinha and Zoltners, exact in both directions); then,
for each instance left, `search` on the same arrays, after `_merge`
when its classes reach lambda >= 3**6.  The bounds add to the
reductions and change neither them nor the search's bound.  `solve`
and `solve_k` are `decide` on a batch of one; the consensus windows
are a batch.  `reduce_instance` and `prune_class` build `Item`s from
the array code's output; they stop before the bounds.

A witness is one slot per class, as one int64 array, from the join
to `decide`.  The join reads the prefix and suffix slots back through
the stored orders (`picks_of`) around the middle item's slot; the walk
puts a guess's classes back in index order; `decide` writes the array
into its picks, through the origins of the merged slots after
`_merge` (the slot each takes in every class it covers).  Merged
`Item`s carry their (class, slot) origins.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .capacity import PREFIX_ROW_LIMIT, check_enumeration
from .errors import CapacityError, DomainError

INFINITE = math.inf

# reduce_instance only merges classes when lambda is at least 3**6;
# below that the class count is already O(log A / log lambda).
MERGE_LAMBDA_FLOOR = 3 ** 6


@dataclass(frozen=True)
class Item:
    """A (value, weight) item; `origin` lists the original picks it stands for."""

    v: int
    w: int
    origin: tuple[tuple[int, int], ...]


# A full choice: original class index -> original item index.
Choice = dict[int, int]


@dataclass(frozen=True)
class KnapsackInstance:
    classes: tuple[tuple[Item, ...], ...]
    V: int
    W: int

    def __post_init__(self):
        for cls in self.classes:
            if not cls:
                raise DomainError("item classes must be nonempty")

    @property
    def n(self) -> int:
        return len(self.classes)

    @property
    def lam(self) -> int:
        return max((len(c) for c in self.classes), default=0)

    def num_choices(self) -> int:
        out = 1
        for c in self.classes:
            out *= len(c)
        return out


def make_instance(class_items, V: int, W: int) -> KnapsackInstance:
    """Build an instance from raw (v, w) pairs, attaching origins."""
    classes = tuple(
        tuple(Item(v, w, ((ci, ii),)) for ii, (v, w) in enumerate(cls))
        for ci, cls in enumerate(class_items)
    )
    return KnapsackInstance(classes, V, W)


@dataclass(frozen=True)
class PartialChoice:
    """One item from each class of a sub-domain; `sums` adds up its items."""

    domain: tuple[int, ...]
    picks: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.picks):
            raise DomainError("picks must align with the domain")

    def sums(self, inst: KnapsackInstance) -> tuple[int, int]:
        return choice_sums(inst, zip(self.domain, self.picks))


def choice_sums(inst: KnapsackInstance, picks) -> tuple[int, int]:
    """Value and weight sums of the items at (class, item) pairs `picks`."""
    v = w = 0
    for ci, ii in picks:
        item = inst.classes[ci][ii]
        v += item.v
        w += item.w
    return v, w


def is_feasible(inst: KnapsackInstance, choice: Choice) -> bool:
    if sorted(choice) != list(range(inst.n)):
        return False
    if not all(0 <= ii < len(inst.classes[ci]) for ci, ii in choice.items()):
        return False
    v, w = choice_sums(inst, choice.items())
    return v <= inst.V and w <= inst.W


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_force(inst: KnapsackInstance) -> Choice | None:
    """First feasible choice in lexicographic pick order, or None."""
    check_enumeration(inst.num_choices(), "knapsack brute force")
    for picks in itertools.product(*(range(len(c)) for c in inst.classes)):
        v, w = choice_sums(inst, enumerate(picks))
        if v <= inst.V and w <= inst.W:
            return _origins_to_choice(
                itertools.chain.from_iterable(
                    inst.classes[ci][ii].origin for ci, ii in enumerate(picks)
                )
            )
    return None


def count_feasible(inst: KnapsackInstance) -> tuple[int, int]:
    """(A_V, A_W): numbers of value- and weight-feasible choices."""
    check_enumeration(inst.num_choices(), "knapsack feasibility count")
    sums = [(0, 0)]
    for cls in inst.classes:
        sums = [(v + it.v, w + it.w) for (v, w) in sums for it in cls]
    a_v = sum(1 for v, _ in sums if v <= inst.V)
    a_w = sum(1 for _, w in sums if w <= inst.W)
    return a_v, a_w


def rank_v(s: PartialChoice, inst: KnapsackInstance) -> int:
    """Number of same-domain partial choices with value sum <= v(S)."""
    classes = [inst.classes[ci] for ci in s.domain]
    check_enumeration(math.prod(map(len, classes)), "partial-choice rank")
    bound = s.sums(inst)[0]
    return sum(
        sum(it.v for it in picks) <= bound for picks in itertools.product(*classes)
    )


# ---------------------------------------------------------------------------
# two-class base case

# The search refuses items whose sums could reach 2**62 in magnitude
# (parsed items stay below 2**40, NegLog units below 2**43), so every
# sum fits in int64; thresholds are unbounded ints and are clipped to
# +-2**62 before numpy sees them.
_CLIP = 1 << 62


def solve_two_class(first: np.ndarray, second: np.ndarray, V: int, W: int):
    """Rows (a, b) of two (v, w, ...) int64 arrays with a feasible sum, or None.

    `second` must be sorted by value; a is the first row of `first`
    that fits.  Each row of `first` is paired with the lightest row of
    `second` whose value fits: one searchsorted into the values and a
    prefix minimum of the weights.
    """
    v2 = second[:, 0]
    if np.any(v2[1:] < v2[:-1]):
        raise DomainError("solve_two_class requires the second list sorted by value")
    if not len(first) or not len(second):
        return None
    V, W = (max(-_CLIP, min(t, _CLIP)) for t in (V, W))
    fits = np.searchsorted(v2, V - first[:, 0], side="right")
    lightest = np.minimum.accumulate(second[:, 1])
    hits = np.flatnonzero((fits > 0) & (first[:, 1] + lightest[fits - 1] <= W))
    if not len(hits):
        return None
    a = int(hits[0])
    return a, int(np.argmin(second[: fits[a], 1]))


# ---------------------------------------------------------------------------
# ranked prefix lists, grown to a target length

# Length the search grows its suffix lists to at the first step; later
# steps double it.  On the mck-solve benchmark jobs (two series of 20
# in-process cycle pairs at each of seeds 104729 and 1; lists of values
# and orders; 2-core VM, CPython 3.11, numpy 2.4), 32 was 1-7% slower
# than 64, winning 4 or 5 of 20 pairs, and 128 won 15-19 of 20 pairs,
# its median cycle from 14% faster to 3% slower.  64 is kept: a
# different block changes the number of grow steps of every search,
# and a larger one loosens the growth bound
# max(FIRST_BLOCK, 4 sqrt(a lambda)) that the tests check.
FIRST_BLOCK = 64


def oriented_rows(vw, alive) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each class as int64 rows in both orientations of the search.

    vw (2, n, S) holds one instance's values and weights by slot, alive
    (n, S) its live slots, and each dead slot a value and a weight above
    every live item.  The value orientation holds rows (v, w, slot)
    stable-sorted on v; the weight orientation holds the same rows with
    v and w swapped, stable-sorted on w, so ties keep the slot order in
    both.  One argsort per orientation sorts every class; the dead
    slots sort last, and each class is cut to its live count.
    """
    n, size = alive.shape
    rows = np.stack((*vw, np.broadcast_to(np.arange(size), (n, size))), axis=2)
    live = alive.sum(axis=1).tolist()

    def sort_on(cols):
        by = np.argsort(vw[cols[0]], axis=1, kind="stable")[:, :, None]
        return [r[:c] for r, c in zip(np.take_along_axis(rows[:, :, cols], by, axis=1), live)]
    return sort_on([0, 1, 2]), sort_on([1, 0, 2])


class PrefixGenerator:
    """The value-sorted partial-choice lists L_0..L_n, grown on demand.

    L_j enumerates partial choices over classes 1..j by non-decreasing
    value, ties by the value rank of the last item, then by the row of
    L_{j-1}.  Growth reads values alone, so `lists[j]` holds only L_j's
    sorted int64 values, and `keeps[j]` the stable-argsort order that
    picked them out of the step's candidate array, whose blocks (one per
    item rank, each a run of rows of L_{j-1}) start at `starts[j]`:
    `links` turns a position back into (item rank, row of L_{j-1}) with
    one searchsorted.  That is 16 bytes per row plus lambda starts; the
    weights and the item slots are read back only at the join
    (`weights`, `picks_of`).  `sizes[j]` is the number of rows of the
    whole list, the product of the first j class sizes.

    `step(target)` extends every list to its first min(target, sizes[j])
    rows; a list is always a prefix of the same order, so any target
    sequence yields the same rows, and a row of L_{j-1} named by L_j
    stays that row as L_{j-1} grows.  The target smallest rows of L_j
    pair the item of value rank i only with the first target // i rows
    of L_{j-1}, so one stable argsort over O(target log lambda)
    candidates finds them.  `items` holds one value-sorted row array per
    class, as `oriented_rows` builds them.
    """

    def __init__(self, items):
        self.items = items  # per class: rows (v, w, item index) in value order
        empty = np.empty(0, dtype=np.int64)
        self.lists = [np.zeros(1, dtype=np.int64)] + [empty] * len(items)
        self.keeps = [empty] * (len(items) + 1)
        self.starts = [empty] * (len(items) + 1)
        self.sizes = list(itertools.accumulate((len(c) for c in items), operator.mul, initial=1))

    @property
    def n(self) -> int:
        return len(self.items)

    def rows_at(self, target: int) -> int:
        """The rows all lists hold once grown to `target`."""
        return sum(min(target, size) for size in self.sizes)

    def step(self, target: int) -> None:
        """Extend each list to its first `target` rows, or all of them.

        The candidate (item rank, row of L_{j-1}) arrays depend only on
        the class size and the length of L_{j-1}, so classes that share
        both share one build.
        """
        built = {}
        for j in range(1, self.n + 1):
            if len(self.lists[j]) >= min(target, self.sizes[j]):
                continue
            prev, items = self.lists[j - 1], self.items[j - 1]
            key = len(items), len(prev)
            if key not in built:
                counts = np.minimum(target // np.arange(1, len(items) + 1), len(prev))
                starts = np.cumsum(counts) - counts
                rank = np.repeat(np.arange(len(items)), counts)
                built[key] = rank, np.arange(len(rank)) - np.repeat(starts, counts), starts
            rank, row, self.starts[j] = built[key]
            v = prev[row] + items[:, 0][rank]
            # a copy, so the list does not keep the whole argsort alive
            keep = self.keeps[j] = v.argsort(kind="stable")[:target].copy()
            self.lists[j] = v[keep]

    def links(self, j: int, at):
        """(item rank, row of L_{j-1}) of the rows `at` of L_j."""
        pos = self.keeps[j][at]
        rank = self.starts[j].searchsorted(pos, side="right") - 1
        return rank, pos - self.starts[j][rank]

    def weights(self) -> list[np.ndarray]:
        """The weight sums of every list's rows: w_j = w_{j-1}[row] + w(item)."""
        out = [np.zeros(1, dtype=np.int64)]
        for j in range(1, self.n + 1):
            rank, row = self.links(j, slice(None))
            out.append(out[-1][row] + self.items[j - 1][:, 1][rank])
        return out

    def value_at(self, j: int, ell: int):
        """Value of the ell-th (1-based) element of L_j; inf past the end."""
        lst = self.lists[j]
        if ell <= len(lst):
            return int(lst[ell - 1])
        return INFINITE

    def picks_of(self, j: int, index: int) -> np.ndarray:
        """The item slots of classes 1..j, in class order, of the index-th (0-based) row of L_j."""
        out = np.empty(j, dtype=np.int64)
        for c in range(j - 1, -1, -1):
            rank, index = self.links(c + 1, index)
            out[c] = self.items[c][rank, 2]
        return out


# ---------------------------------------------------------------------------
# reductions


@dataclass(frozen=True)
class Reduction:
    """Outcome of a reduction: a smaller instance, or a decided answer.

    `fixed` holds items greedily committed to the solution; when
    `decided` is True they form a complete feasible choice already.
    """

    instance: KnapsackInstance | None
    fixed: tuple[Item, ...]
    decided: bool | None  # True = YES, False = NO, None = instance remains


def _item_arrays(classes, V: int, W: int):
    """One instance as `reduce_batch` takes it: (vw, alive, caps, top).

    vw is (2, 1, n, lambda), alive (1, n, lambda) and caps (2, 1).  They
    are int64, with thresholds clipped to +-2**62 (which changes no
    comparison) and top = 2**62, while n times the largest item
    magnitude stays below 2**60, so no sum the reductions form can
    overflow; Python ints (dtype object) otherwise.
    """
    flat = [x for cls in classes for it in cls for x in (it.v, it.w)]
    bound = len(classes) * max(map(abs, flat), default=0)
    if bound < 1 << 60:
        dtype, top = np.int64, _CLIP
        V, W = (max(-_CLIP, min(t, _CLIP)) for t in (V, W))
    else:
        dtype, top = object, 2 * bound + 1
    size = max((len(c) for c in classes), default=1)
    alive = np.arange(size) < np.array([len(c) for c in classes], dtype=np.int64)[:, None]
    vw = np.full((len(classes), size, 2), top, dtype=dtype)
    vw[alive] = np.array(flat, dtype=dtype).reshape(-1, 2)
    return vw.transpose(2, 0, 1)[:, None], alive[None], np.array([[V], [W]], dtype=dtype), top


def _greedy_picks(vw, alive) -> np.ndarray:
    """Greedy commitment over padded classes, dead slots at top.

    vw is (2, B, n, S): values and weights.  Per class, the slot of its
    first item that minimizes both value and weight, or -1 where no
    item does.
    """
    double = alive & (vw == vw.min(axis=3, keepdims=True)).all(axis=0)
    return np.where(double.any(axis=2), double.argmax(axis=2), -1)


def _may_fit(vw, classes, tested, t: int, caps, top) -> np.ndarray:
    """The rank test on B instances: False where no choice of `classes` fits.

    vw is (2, B, n, S), values and weights with dead slots at `top`;
    `classes` and `tested` are (B, n) masks, caps the (2, B) value and
    weight thresholds.  A choice that picks, in half of the `tested`
    classes, an item at or past the t-th smallest value has a value of
    at least the class minima plus the smallest half of the t-th gaps
    (t-th smallest minus smallest); likewise for weights.  When both
    thresholds are below these bounds, a feasible choice needs a tested
    class whose item is below the t-th smallest in value and in weight,
    which the callers' reductions have ruled out.  Tested classes hold
    at least t items.
    """
    s = np.sort(vw, axis=3)
    gaps = np.sort(np.where(tested, s[..., min(t, s.shape[3]) - 1] - s[..., 0], top), axis=2)
    low = np.arange(tested.shape[1]) < (tested.sum(axis=1, keepdims=True) + 1) // 2
    bound = np.where(classes, s[..., 0], 0).sum(axis=2) + np.where(low, gaps, 0).sum(axis=2)
    return (bound <= caps).any(axis=0)


def reduce_batch(vw, alive, caps, top) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`reduce_n_log`'s decision for B instances at once: (decided, picks, nets).

    Instance b's class c holds the items vw[:, b, c, s] (value, weight)
    where alive[b, c, s], in slot order; every dead slot holds `top`,
    which is above every item and every difference of two items; caps
    holds the (2, B) value and weight thresholds.  decided[b] is 1
    (YES: the greedy picks are a feasible choice), 0 (NO) or -1 (the
    rank test leaves a search); picks[b, c] is the slot greedy commits
    in class c, or -1; nets holds the (2, B) thresholds net of the
    committed items, those the search of the classes left takes.  An
    instance with a class of no live item has no choice at all, so it
    is decided 0 before the rank test, whose sums of `top` could wrap
    around in int64.
    """
    picks = _greedy_picks(vw, alive)
    kept = picks < 0
    # a committed item holds both minima of its class
    caps = caps - np.where(kept, 0, vw.min(axis=3)).sum(axis=2)
    decided = np.where(kept.any(axis=1), np.where(_may_fit(vw, kept, kept, 2, caps, top), -1, 0),
                       (caps >= 0).all(axis=0))
    return np.where(alive.any(axis=2).all(axis=1), decided, 0), picks, caps


# The multiplier pairs (a, b) of `_lagrange`, in the order its YES picks
# are tried.  They are the pairs that ever decided an instance when the
# grid also held (2**e, 1) and (1, 2**e) for e = 3..8, each instance
# credited to the first pair in grid order that decides it alone.  On
# the tests' Lagrangian corpus (6,000 `decide` calls), the `mck-solve`
# benchmark jobs (seeds 104729 and 1), 200 `um gen --kind mck` files
# and seven Dirichlet `gwpm` cases of ROADMAP.md, (4, 1) decided 3, 0,
# 1 and 7 instances, (1, 4) 3, 0, 0 and 14, and no pair with a
# multiplier of 8 or more decided any; without those 12 pairs every
# state and pick stayed the same.
LAGRANGE_PAIRS = np.array([(1, 0), (0, 1), (1, 1), (2, 1), (4, 1), (1, 2), (1, 4)], np.int64)


def _lagrange(vw, alive, picks, nets, state) -> None:
    """Lagrangian bounds on the instances `reduce_batch` leaves, in place.

    The arrays are `reduce_batch`'s input and output.  For a, b >= 0
    every feasible choice of the classes greedy left (picks < 0) has
    a*v + b*w <= a*V' + b*W' with V', W' the netted thresholds, so for
    each pair of `LAGRANGE_PAIRS` the sum over those classes of
    min_s (a*v + b*w) above a*V' + b*W' is an exact NO; the choice of
    each class's first slot at that minimum is an exact YES where it
    fits both thresholds, and the first such pair gives its slots.
    Every threshold is clipped into [sum of minima - 1, sum of maxima +
    1] first, which changes no answer; a pair is used only where (a +
    b) times the sum of the classes' largest item magnitudes is below
    2**62, so no product or sum wraps around.  Object (Python int)
    batches are left to the search.

    A batch goes in chunks of instances whose arrays over all pairs
    hold at most about 2**20 entries, and a chunk's arrays span only
    the classes some instance of it left.  Where one instance's classes
    left pass that, its pairs go in groups, in grid order, whose arrays
    hold at most 2**20 entries (or one pair's), so a small batch makes
    one pass over all pairs.
    """
    todo = np.flatnonzero(state < 0)
    if not len(todo) or vw.dtype == object:
        return
    chunk = max(1, (1 << 20) // (len(LAGRANGE_PAIRS) * alive[0].size))
    for ids in np.array_split(todo, range(chunk, len(todo), chunk)):
        kept = picks[ids] < 0
        cols = np.flatnonzero(kept.any(axis=0))
        kept = kept[:, cols]
        sub = vw[:, ids[:, None], cols]
        live = alive[ids[:, None], cols] & kept[:, :, None]
        items = np.where(live, sub, 0)
        lo = np.where(kept, np.where(live, sub, _CLIP).min(axis=3), 0).sum(axis=2)
        hi = np.where(kept, np.where(live, sub, -_CLIP).max(axis=3), 0).sum(axis=2)
        caps = np.clip(nets[:, ids], lo - 1, hi + 1)
        mag = abs(items).max(axis=(0, 3)).sum(axis=1)
        # a committed class costs 0; a dead slot of a class left is never the minimum
        dead = np.where(kept, _CLIP, 0)[:, :, None]
        at, no, fits = [], [], []
        group = max(1, (1 << 20) // live.size)
        for first in range(0, len(LAGRANGE_PAIRS), group):
            a, b = LAGRANGE_PAIRS[first: first + group].T[:, :, None]  # (pairs, 1)
            ok = mag < -(-_CLIP // (a + b))  # (a + b) * mag < 2**62
            cost = np.where(live, a[..., None, None] * items[0] + b[..., None, None] * items[1],
                            dead)
            at.append(cost.argmin(axis=3))
            no.append(ok & (cost.min(axis=3).sum(axis=2) > a * caps[0] + b * caps[1]))
            sums = np.take_along_axis(items[:, None], at[-1][None, ..., None], axis=4)[..., 0]
            fits.append(ok & (sums.sum(axis=3) <= caps[:, None]).all(axis=0))
        at, fits = np.concatenate(at), np.concatenate(fits)
        no = np.concatenate(no).any(axis=0)
        yes = fits.any(axis=0) & ~no
        state[ids] = np.where(no, 0, np.where(yes, 1, -1))
        rows = np.flatnonzero(yes)
        at_rows = ids[rows][:, None], cols
        picks[at_rows] = np.where(kept[rows], at[fits.argmax(axis=0)[rows], rows], picks[at_rows])


def _commit(inst: KnapsackInstance, picks) -> tuple[KnapsackInstance, tuple[Item, ...]]:
    """The instance without the classes `picks` commits, and the committed items."""
    picks = picks.tolist()
    fixed = tuple(cls[i] for cls, i in zip(inst.classes, picks) if i >= 0)
    kept = tuple(cls for cls, i in zip(inst.classes, picks) if i < 0)
    V = inst.V - sum(it.v for it in fixed)
    W = inst.W - sum(it.w for it in fixed)
    return KnapsackInstance(kept, V, W), fixed


def greedy_reduce(inst: KnapsackInstance) -> tuple[KnapsackInstance, tuple[Item, ...]]:
    """Commit classes owning an item that minimizes both value and weight."""
    vw, alive, _, _ = _item_arrays(inst.classes, inst.V, inst.W)
    return _commit(inst, _greedy_picks(vw, alive)[0])


def reduce_n_log(inst: KnapsackInstance) -> Reduction:
    """Shrink to n <= 2 log2(A) classes or decide the answer outright.

    `reduce_batch` on this one instance.
    """
    decided, picks, _ = reduce_batch(*_item_arrays(inst.classes, inst.V, inst.W))
    reduced, fixed = _commit(inst, picks[0])
    if decided[0] < 0:
        return Reduction(reduced, fixed, None)
    return Reduction(None, fixed, bool(decided[0]))


def _front(rows) -> np.ndarray:
    """The strict Pareto front of one class, rows (v, w, ...): its indices, in order.

    An item is on the front when no other item has both a smaller value
    and a smaller weight.  One lexsort orders the rows by value, ties by
    weight descending; a row is beaten exactly when the running minimum
    of the weights up to it is below its own.  Object rows (items past
    2**63) sort the same way.
    """
    order = np.lexsort((-rows[:, 1], rows[:, 0]))
    w = rows[order, 1]
    return np.sort(order[np.minimum.accumulate(w) >= w])


def prune_class(cls: tuple[Item, ...]) -> tuple[Item, ...]:
    """The items of `cls` that no other item beats in both value and weight.

    Afterwards max(rank_V(c), rank_W(c)) > |C|/3 for every item c, with
    ranks counting the items at or below c in the pruned class C: if
    both ranks of c were at most |C|/3, at least |C|/3 items of C would
    have both a larger value and a larger weight than c, so c would beat
    them, and no beaten item is kept.  `_merge`'s rank test at
    t = ceil(lambda^(1/3)) relies on this.
    """
    rows = np.array([(it.v, it.w) for it in cls], dtype=object).reshape(-1, 2)
    return tuple(cls[i] for i in _front(rows).tolist())


def _merge(vw, alive, caps, top):
    """Class merging on one instance: (vw, alive, origin), or None (NO).

    vw (2, n, S), alive (n, S) and the (2,) thresholds caps hold the
    instance as `search` takes it, every dead slot at `top`.  With
    lambda its largest class, every class is cut to its strict Pareto
    front (`_front`); while two classes hold at most isqrt(lambda)
    items, the first two become the front of their product, rows in
    (first, second) order; the classes past isqrt(lambda) items then
    come first, in order.  Every item of a front has a value or a
    weight rank above a third of its class (`prune_class`), so the rank
    test on the large classes at t = ceil(lambda^(1/3)), when there are
    any, may answer NO.  Otherwise the merged classes come back padded
    the same way, with origin[c, s, i] the slot that live slot s of
    merged class c takes in class i, or -1 where c does not cover
    class i.
    """
    n, size = alive.shape
    lam = int(alive.sum(axis=1).max())
    root = math.isqrt(lam)
    # rows (v, w, 1 + the slot taken in each class, or 0 where the row
    # does not cover it): covers are disjoint, so a product's rows are sums
    rows = np.zeros((n, size, n + 2), dtype=vw.dtype)
    rows[..., :2] = vw.transpose(1, 2, 0)
    rows[np.arange(n), :, np.arange(2, n + 2)] = np.arange(1, size + 1)
    classes = [r[live][_front(r[live])] for r, live in zip(rows, alive)]
    while len(small := [i for i, c in enumerate(classes) if len(c) <= root]) >= 2:
        product = (classes[small[0]][:, None] + classes.pop(small[1])[None]).reshape(-1, n + 2)
        classes[small[0]] = product[_front(product)]
    classes.sort(key=lambda c: len(c) <= root)
    sizes = np.array([len(c) for c in classes])
    alive = np.arange(sizes.max()) < sizes[:, None]
    rows = np.full((*alive.shape, n + 2), top, dtype=vw.dtype)
    rows[alive] = np.concatenate(classes)
    vw = rows[..., :2].transpose(2, 0, 1)
    tested = sizes[None] > root
    t = _iroot(lam - 1, 3) + 1  # ceil(lambda^(1/3))
    if tested.any() and not _may_fit(vw[:, None], np.ones_like(tested), tested, t,
                                     caps[:, None], top)[0]:
        return None
    return vw, alive, rows[..., 2:] - 1


def reduce_instance(inst: KnapsackInstance) -> Reduction:
    """Full reduction pipeline: n' = O(log A / log lambda) classes.

    `reduce_n_log`; then, when lambda >= MERGE_LAMBDA_FLOOR, `_merge`
    on the classes it leaves, whose origins build the merged `Item`s.
    """
    first = reduce_n_log(inst)
    base = first.instance
    if base is None or base.lam < MERGE_LAMBDA_FLOOR:
        return first
    vw, alive, caps, top = _item_arrays(base.classes, base.V, base.W)
    merged = _merge(vw[:, 0], alive[0], caps[:, 0], top)
    if merged is None:
        return Reduction(None, first.fixed, False)
    vw, alive, origin = merged
    classes = tuple(
        tuple(Item(v, w, tuple(itertools.chain.from_iterable(
            base.classes[i][s].origin for i, s in enumerate(slots) if s >= 0)))
            for v, w, slots in zip(*vw[:, c, live].tolist(), origin[c, live].tolist()))
        for c, live in enumerate(alive))
    return Reduction(KnapsackInstance(classes, base.V, base.W), first.fixed, None)


# ---------------------------------------------------------------------------
# meet-in-the-middle search


def _iroot(x: int, k: int) -> int:
    """The largest t with t**k <= x, for ints x >= 0 and k >= 1.

    Integer Newton steps from 2**ceil(bits / k), which is above the
    root, decrease to it; no float is involved, so x may be any size.
    """
    if x < 2:
        return x
    t = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * t + x // t ** (k - 1)) // k
        if s >= t:
            return t
        t = s


class _Search:
    """One oriented meet-in-the-middle run over a reduced instance.

    `rows` holds each class's rows in one orientation of `oriented_rows`
    and V, W are the thresholds of its first and second column.
    Doubles the rank budget r step by step, from FIRST_BLOCK: the
    suffix lists (`gen_r`) grow to r rows and the prefix lists
    (`gen_l`) to the ell rows the search reads of them.  Once no split
    index can reach the value threshold, or r reaches the number of
    choices (then both sides hold every row and r = ell = that number),
    the join phase builds each generator's weights once (`weights`) and
    sweeps every split with the two-class solver on (value, weight)
    rows; the witness's slots come from walking back (`picks_of`).

    `k` = 0 is `solve`: each prefix list joins its first
    ell = ceil(r / lam) rows.  `k` >= 1 is `solve_k` with the k front
    classes first in `rows`: ell is the smallest integer with
    ell**(k+1) >= r**k, and each later class joins only its items of
    value rank at most floor(ell^(1/k)).
    """

    def __init__(self, rows, V: int, W: int, lam: int, k: int = 0):
        self.n, self.V, self.W, self.lam, self.k = len(rows), V, W, lam, k
        self.gen_l = PrefixGenerator(rows)
        self.gen_r = PrefixGenerator(rows[::-1])
        self.choices = self.gen_l.sizes[-1]
        self.r = 0
        self.ell = 0

    @property
    def held(self) -> int:
        """The rows the prefix and suffix lists hold."""
        return sum(map(len, self.gen_l.lists + self.gen_r.lists))

    def grow_step(self, others: int = 0) -> bool:
        """Double r; returns True once growth has stopped.

        Raises CapacityError when the grown lists, plus the `others`
        rows that another live search holds, would pass
        PREFIX_ROW_LIMIT rows.
        """
        r = 2 * self.r if self.r else FIRST_BLOCK
        k = self.k
        ell = _iroot(r ** k - 1, k + 1) + 1 if k else -(-r // self.lam)
        whole = self.choices <= r
        left = r if whole else ell
        rows = self.gen_l.rows_at(left) + self.gen_r.rows_at(r) + others
        if rows > PREFIX_ROW_LIMIT:
            raise CapacityError(
                f"knapsack search: the search lists would grow to {rows} rows, "
                f"past the memory guard of {PREFIX_ROW_LIMIT}")
        self.gen_l.step(left)
        self.gen_r.step(r)
        if whole:
            self.r = self.ell = self.choices
            return True
        self.r, self.ell = r, ell
        n, V = self.n, self.V
        for j in range(n + 1):
            # L_j's ell-th value plus the r-th value of the suffix list over classes j+1..n
            if self.gen_l.value_at(j, ell) + self.gen_r.value_at(n - j, r) <= V:
                return False
        return True

    def join(self) -> np.ndarray | None:
        """The slots of a feasible choice, one per class of `rows` in order, or None.

        The prefix's slots, the middle item's slot, then the suffix's
        slots reversed, since the suffix lists run over the classes
        from the last.
        """
        n, ell, r, gen_l, gen_r = self.n, self.ell, self.r, self.gen_l, self.gen_r
        limit = _iroot(ell, self.k) if self.k else INFINITE
        w_l, w_r = gen_l.weights(), gen_r.weights()
        for j in range(1, n + 1):
            prev = np.stack((gen_l.lists[j - 1][:ell], w_l[j - 1][:ell]), axis=1)
            items = gen_l.items[j - 1]
            if j > self.k and limit < len(items):
                # the items of value rank at most the limit, ties counted
                items = items[: np.searchsorted(items[:, 0], items[limit, 0])]
            # L_{j-1}[:ell] + C_j as one outer sum, rows ordered (item, row of prev)
            pairs = items[:, None, :2] + prev[None]
            suffix = np.stack((gen_r.lists[n - j][:r], w_r[n - j][:r]), axis=1)
            hit = solve_two_class(pairs.reshape(-1, 2), suffix, self.V, self.W)
            if hit is None:
                continue
            item, t = divmod(hit[0], len(prev))
            return np.concatenate((gen_l.picks_of(j - 1, t), items[item, 2:],
                                   gen_r.picks_of(n - j, hit[1])[::-1]))
        return None


def _origins_to_choice(origins) -> Choice:
    choice: Choice = {}
    for ci, ii in origins:
        if ci in choice:
            raise DomainError(f"conflicting picks for class {ci}")
        choice[ci] = ii
    return choice


def search(vw, alive, V: int, W: int, k: int) -> np.ndarray | None:
    """The slots of a feasible choice of one reduced instance, or None.

    The answer is an int64 array holding one live slot per class.

    vw (2, n, S) holds the values and weights by slot, alive (n, S) the
    live slots, as `reduce_batch` takes one instance, and every class a
    live item, as `reduce_batch` leaves them.  After the refusal
    (DomainError) of items that could overflow int64 sums, each
    orientation walks the guesses of k' = min(k, n) front classes (those
    first, the others in index order; k = 0 is one empty guess) in
    order, each searched to its stop, and the two walks take one grow
    step each in turn.  The first walk to finish decides: with a
    witness, with None from a join that left no item out, as every join
    does at k' = 0 or n, or with None once it has cleared every guess (a
    guess can be right for one orientation and wrong for the other, but
    each orientation is exact over all its guesses).  When a guess
    search at k' >= 1 passes the memory guard, the exact k = 0 search
    decides instead, and raises CapacityError if it passes it too.
    """
    if np.where(alive, abs(vw), 0).max(axis=(0, 2)).sum() >= _CLIP:
        raise DomainError("item values and weights must sum to less than 2**62")
    vw = np.where(alive, vw, _CLIP).astype(np.int64)
    n, lam, k = len(alive), int(alive.sum(axis=1).max()), min(k, len(alive))
    by_v, by_w = oriented_rows(vw, alive)
    live = {}  # each walk's current search

    def walk(side, rows, V, W):
        """Search each guess in one orientation to its stop; returns the walk's answer."""
        for front in itertools.combinations(range(n), k):
            order = list(front) + [i for i in range(n) if i not in front]
            run = live[side] = _Search([rows[i] for i in order], V, W, lam, k)
            # the memory guard counts the rows of both live searches
            while not run.grow_step(sum(s.held for s in live.values() if s is not run)):
                yield
            witness = run.join()
            if witness is not None:
                return witness[np.argsort(order)]
            if k in (0, n) or _iroot(run.ell, k) >= lam:
                return None  # the join left no item out
        return None

    walks = [walk(0, by_v, V, W), walk(1, by_w, W, V)]
    try:
        while True:
            for w in walks:
                next(w)
    except StopIteration as done:
        return done.value
    except CapacityError:
        if not k:
            raise
    # free the guess searches' lists first
    walks.clear()
    live.clear()
    return search(vw, alive, V, W, 0)


def decide(vw, alive, caps, top, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Decide B instances: (state, picks), one slot per class.

    The arrays are as `reduce_batch` takes them.  state[b] is 1 (YES) or
    0 (NO); where it is 1, picks[b, c] is the slot class c takes in a
    feasible choice.  `reduce_batch` decides most instances, and
    `_lagrange`, on the classes greedy did not commit and the netted
    thresholds, most of those it leaves: for a, b >= 0 every feasible
    choice has a*v + b*w <= a*V + b*W, so a sum of class minima above
    it is a NO, and a choice of class minimizers that fits is a YES,
    both exact.  For each instance still left, `search` (k = 0 is
    `solve`, k >= 1 `solve_k`) runs on the classes greedy did not
    commit, with the thresholds `reduce_batch` nets of the committed
    items; its slot array fills the classes left and greedy's slots the
    committed ones.  When the
    classes left reach lambda >= MERGE_LAMBDA_FLOOR, `_merge` merges
    them on the same arrays first, answers NO or hands the search the
    merged classes, and their origins turn each merged slot back into
    a slot of every class it covers; no `Item` or dict is built on any
    path.
    """
    state, picks, nets = reduce_batch(vw, alive, caps, top)
    _lagrange(vw, alive, picks, nets, state)
    for b in np.flatnonzero(state < 0).tolist():
        kept = picks[b] < 0
        vw_b, alive_b, origin = vw[:, b, kept], alive[b, kept], None
        if alive_b.sum(axis=1).max() >= MERGE_LAMBDA_FLOOR:
            merged = _merge(vw_b, alive_b, nets[:, b], top)
            if merged is None:
                state[b] = 0
                continue
            vw_b, alive_b, origin = merged
        at = search(vw_b, alive_b, *nets[:, b].tolist(), k)
        state[b] = at is not None
        if at is not None:
            picks[b, kept] = at if origin is None else origin[np.arange(len(at)), at].max(axis=0)
    return state, picks


def _solve(inst: KnapsackInstance, k: int) -> Choice | None:
    """`solve` (k = 0) and `solve_k`: `decide` on the instance as a batch of one."""
    state, picks = decide(*_item_arrays(inst.classes, inst.V, inst.W), k)
    return dict(enumerate(picks[0].tolist())) if state[0] else None


def solve(inst: KnapsackInstance) -> Choice | None:
    """Feasible choice or None, in O(N + sqrt(a*lambda) log A) time.

    Runs the value-oriented and weight-oriented searches in
    deterministic lock-step; whichever stops growing first decides.
    """
    return _solve(inst, 0)


def solve_k(inst: KnapsackInstance, k: int) -> Choice | None:
    """Rank-parameterized variant for large classes.

    Guesses the k' = min(k, n') front classes holding the largest-rank
    items and restricts the middle item of every later split to value
    ranks at most ell^(1/k').  Each search runs to its stop: for the
    right guess the prefix before such a split holds all k' front
    items, so its rank, at most ell, is at least the middle item's rank
    to the k'-th power (rank(A) rank(B) <= rank(A u B)), whatever r the
    search reached.  Each orientation walks the guesses, searching each
    to its stop once, in turn with the other; the first to finish
    decides.  When a guess search would pass the memory guard, the
    answer is `solve`'s, which raises CapacityError only if it passes
    the guard too.
    """
    if k < 1:
        raise DomainError("k must be a positive integer")
    return _solve(inst, k)
