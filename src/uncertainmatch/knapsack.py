"""Exact Multichoice Knapsack solver.

Choose one item per class so that value and weight sums stay within
two thresholds.  The solver runs the classic meet-in-the-middle
search parameterized by the number of feasible choices: the
value-sorted partial-choice lists over prefixes and suffixes of the
class sequence are grown by doubling their length, growth stops once
ranks certify that no feasible solution can be missed, and each split
index is finished with a vectorized two-class sweep.  `solve` and
`solve_k` share one lock-step loop and differ only in the class
orders they try and in k, from which each search derives its rank
budgets as exact integer roots (`_iroot`), so no budget can overflow
a float.

Instance reductions shrink the class count to O(log A / log lambda)
first: greedy commitment, then one rank test (`_may_fit`) on the
second-smallest gaps and, for lambda >= 3**6, class merging and the
same test on the ceil(lambda^(1/3))-th gaps of the large classes.

Witnesses are always reconstructed: items carry their original
(class, item) origins through every reduction.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

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
    """One item from each class of a sub-domain, with cached sums."""

    domain: tuple[int, ...]
    picks: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.picks):
            raise DomainError("picks must align with the domain")

    def sums(self, inst: KnapsackInstance) -> tuple[int, int]:
        v = w = 0
        for ci, ii in zip(self.domain, self.picks):
            item = inst.classes[ci][ii]
            v += item.v
            w += item.w
        return v, w


def choice_sums(inst: KnapsackInstance, choice: Choice) -> tuple[int, int]:
    v = w = 0
    for ci, ii in choice.items():
        item = inst.classes[ci][ii]
        v += item.v
        w += item.w
    return v, w


def is_feasible(inst: KnapsackInstance, choice: Choice) -> bool:
    if sorted(choice) != list(range(inst.n)):
        return False
    if not all(0 <= ii < len(inst.classes[ci]) for ci, ii in choice.items()):
        return False
    v, w = choice_sums(inst, choice)
    return v <= inst.V and w <= inst.W


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_force(inst: KnapsackInstance) -> Choice | None:
    """First feasible choice in lexicographic pick order, or None."""
    check_enumeration(inst.num_choices(), "knapsack brute force")
    for picks in itertools.product(*(range(len(c)) for c in inst.classes)):
        v = w = 0
        for ci, ii in enumerate(picks):
            item = inst.classes[ci][ii]
            v += item.v
            w += item.w
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
    return _rank(s, inst, lambda it: it.v, 0)


def _rank(s: PartialChoice, inst: KnapsackInstance, key, sum_index: int) -> int:
    size = 1
    for ci in s.domain:
        size *= len(inst.classes[ci])
    check_enumeration(size, "partial-choice rank")
    bound = s.sums(inst)[sum_index]
    count = 0
    for picks in itertools.product(*(range(len(inst.classes[ci])) for ci in s.domain)):
        total = sum(key(inst.classes[ci][ii]) for ci, ii in zip(s.domain, picks))
        if total <= bound:
            count += 1
    return count


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
# ranked prefix lists, grown by doubling

# Length every unfinished list reaches at the first step; later steps
# double it.  Every step pays a fixed numpy overhead per list: on the
# mck-solve benchmark jobs blocks of 8 to 32 were slower than 64, and
# 64 to 256 measured alike.  A larger block only loosens the growth
# bound max(FIRST_BLOCK, 4 sqrt(a lambda)) that the tests check.
FIRST_BLOCK = 64


def oriented_rows(classes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each class as int64 rows in both orientations of the search.

    The value orientation holds rows (v, w, item index) stable-sorted
    on v; the weight orientation holds the same rows with v and w
    swapped, stable-sorted on w, so ties keep the item order in both.
    """
    by_v, by_w = [], []
    for cls in classes:
        rows = np.array([(it.v, it.w, i) for i, it in enumerate(cls)], dtype=np.int64)
        by_v.append(rows[np.argsort(rows[:, 0], kind="stable")])
        by_w.append(rows[np.argsort(rows[:, 1], kind="stable")][:, [1, 0, 2]])
    return by_v, by_w


class PrefixGenerator:
    """The value-sorted partial-choice lists L_0..L_n, grown by doubling.

    L_j enumerates partial choices over classes 1..j by non-decreasing
    value, ties by the value rank of the last item, then by the row of
    L_{j-1}.  It is one int64 array of rows
    (v_sum, w_sum, row of L_{j-1}, item index).  Every step doubles the
    length r that the unfinished lists hold (FIRST_BLOCK at the first
    step).  The r smallest rows of L_j pair the item of value rank i
    only with the first r // i rows of L_{j-1}, so one stable argsort
    over O(r log lambda) candidates finds them.  `items` holds one
    value-sorted row array per class, as `oriented_rows` builds them.
    """

    def __init__(self, items):
        self.items = items  # per class: rows (v, w, item index) in value order
        self.lists = [np.array([[0, 0, -1, -1]], dtype=np.int64)]
        self.lists += [np.empty((0, 4), dtype=np.int64) for _ in self.items]
        self.complete = [True] + [False] * self.n
        self.r = 0

    @property
    def n(self) -> int:
        return len(self.items)

    def all_complete(self) -> bool:
        return all(self.complete)

    def next_r(self) -> int:
        return 2 * self.r if self.r else FIRST_BLOCK

    def rows_after_step(self) -> int:
        """An upper bound on the rows all lists hold after the next step."""
        r = self.next_r()
        return sum(len(lst) if done else r for lst, done in zip(self.lists, self.complete))

    def step(self) -> None:
        """Double r and extend each unfinished list to its r smallest rows."""
        r = self.r = self.next_r()
        for j in range(1, self.n + 1):
            if self.complete[j]:
                continue
            prev, items = self.lists[j - 1], self.items[j - 1]
            counts = np.minimum(r // np.arange(1, len(items) + 1), len(prev))
            rank = np.repeat(np.arange(len(items)), counts)
            row = np.arange(len(rank)) - np.repeat(np.cumsum(counts) - counts, counts)
            v = prev[:, 0][row] + items[:, 0][rank]
            keep = np.argsort(v, kind="stable")[:r]
            rank, row = rank[keep], row[keep]
            w = prev[:, 1][row] + items[:, 1][rank]
            self.lists[j] = np.stack((v[keep], w, row, items[:, 2][rank]), axis=1)
            self.complete[j] = self.complete[j - 1] and len(prev) * len(items) <= r

    def value_at(self, j: int, ell: int):
        """Value of the ell-th (1-based) element of L_j; inf past the end."""
        lst = self.lists[j]
        if ell <= len(lst):
            return int(lst[ell - 1, 0])
        return INFINITE

    def picks_of(self, j: int, index: int) -> list[tuple[int, int]]:
        """(class, item) picks of the index-th (0-based) element of L_j."""
        out = []
        while j > 0:
            _, _, index, item = self.lists[j][index].tolist()
            out.append((j - 1, item))
            j -= 1
        out.reverse()
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


def greedy_reduce(inst: KnapsackInstance) -> tuple[KnapsackInstance, tuple[Item, ...]]:
    """Commit classes owning an item that minimizes both value and weight."""
    kept = []
    fixed = []
    V, W = inst.V, inst.W
    for cls in inst.classes:
        v_min = min(it.v for it in cls)
        w_min = min(it.w for it in cls)
        double = next((it for it in cls if it.v == v_min and it.w == w_min), None)
        if double is not None:
            fixed.append(double)
            V -= double.v
            W -= double.w
        else:
            kept.append(cls)
    return KnapsackInstance(tuple(kept), V, W), tuple(fixed)


def _may_fit(classes, tested, t: int, V: int, W: int) -> bool:
    """The rank test: False when no choice of `classes` fits V and W.

    A choice that picks, in half of the `tested` classes, an item at or
    past the t-th smallest value has a value of at least the class
    minima plus the smallest half of the t-th gaps (t-th smallest minus
    smallest); likewise for weights.  When V and W are both below these
    bounds, a feasible choice needs a tested class whose item is below
    the t-th smallest in value and in weight, which the callers'
    reductions have ruled out.
    """
    half = (len(tested) + 1) // 2
    for key, cap in ((attrgetter("v"), V), (attrgetter("w"), W)):
        gaps = []
        for cls in tested:
            s = sorted(map(key, cls))
            gaps.append(s[t - 1] - s[0])
        gaps.sort()
        if sum(min(map(key, cls)) for cls in classes) + sum(gaps[:half]) <= cap:
            return True
    return False


def reduce_n_log(inst: KnapsackInstance) -> Reduction:
    """Shrink to n <= 2 log2(A) classes or decide the answer outright."""
    reduced, fixed = greedy_reduce(inst)
    if reduced.n == 0:
        return Reduction(None, fixed, reduced.V >= 0 and reduced.W >= 0)
    classes = reduced.classes
    if _may_fit(classes, classes, 2, reduced.V, reduced.W):
        return Reduction(reduced, fixed, None)
    return Reduction(None, fixed, False)


def prune_class(cls: tuple[Item, ...]) -> tuple[Item, ...]:
    """Remove dominated items until every survivor has a large rank.

    Afterwards max(rank_V(c), rank_W(c)) > |C|/3 for every item c.
    """
    items = list(cls)
    while True:
        size = len(items)
        by_v = sorted(it.v for it in items)
        by_w = sorted(it.w for it in items)
        pivot = None
        for it in items:
            rv = bisect.bisect_right(by_v, it.v)
            rw = bisect.bisect_right(by_w, it.w)
            if 3 * rv <= size and 3 * rw <= size:
                pivot = it
                break
        if pivot is None:
            return tuple(items)
        items = [it for it in items if not (it.v > pivot.v and it.w > pivot.w)]


def _merge_classes(c1: tuple[Item, ...], c2: tuple[Item, ...]) -> tuple[Item, ...]:
    return tuple(
        Item(a.v + b.v, a.w + b.w, a.origin + b.origin) for a in c1 for b in c2
    )


def reduce_instance(inst: KnapsackInstance) -> Reduction:
    """Full reduction pipeline: n' = O(log A / log lambda) classes.

    Applies reduce_n_log; then, when lambda is large, repeatedly
    merges pairs of small classes into Cartesian products (pruning
    each) and re-tests feasibility with rank-based deltas.
    """
    first = reduce_n_log(inst)
    if first.decided is not None:
        return first
    base = first.instance
    lam = base.lam
    if lam < MERGE_LAMBDA_FLOOR:
        return first
    root = math.isqrt(lam)
    classes = [prune_class(c) for c in base.classes]
    while True:
        small = [i for i, c in enumerate(classes) if len(c) <= root]
        if len(small) < 2:
            break
        i, j = small[:2]
        classes[i] = prune_class(_merge_classes(classes[i], classes[j]))
        del classes[j]
    big = [c for c in classes if len(c) > root]
    classes = big + [c for c in classes if len(c) <= root]
    reduced = KnapsackInstance(tuple(classes), base.V, base.W)
    t = _iroot(lam - 1, 3) + 1  # ceil(lambda^(1/3))
    if not big or _may_fit(classes, big, t, base.V, base.W):
        return Reduction(reduced, first.fixed, None)
    return Reduction(None, first.fixed, False)


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
    Doubles the rank budget r step by step; once no split index can
    reach the value threshold (or everything is generated), the join
    phase sweeps every split with the two-class solver.

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
        self.r = 0
        self.ell = 0
        self.stopped = False

    def grow_step(self) -> bool:
        """Double r; returns True once growth has stopped.

        Raises CapacityError when the doubled lists could pass
        PREFIX_ROW_LIMIT rows.
        """
        if self.stopped:
            return True
        rows = self.gen_l.rows_after_step() + self.gen_r.rows_after_step()
        if rows > PREFIX_ROW_LIMIT:
            raise CapacityError(
                f"knapsack search: the prefix lists would grow to {rows} rows, "
                f"past the memory guard of {PREFIX_ROW_LIMIT}")
        self.gen_l.step()
        self.gen_r.step()
        r = self.r = self.gen_l.r
        k = self.k
        self.ell = _iroot(r ** k - 1, k + 1) + 1 if k else -(-r // self.lam)
        if self.gen_l.all_complete() and self.gen_r.all_complete():
            longest = max(len(lst) for lst in self.gen_l.lists + self.gen_r.lists)
            self.r = self.ell = longest
            self.stopped = True
            return True
        n, V = self.n, self.V
        for j in range(n + 1):
            # L_j's ell-th value plus the r-th value of the suffix list over classes j+1..n
            if self.gen_l.value_at(j, self.ell) + self.gen_r.value_at(n - j, self.r) <= V:
                return False
        self.stopped = True
        return True

    def join(self) -> Choice | None:
        n = self.n
        limit = _iroot(self.ell, self.k) if self.k else INFINITE
        for j in range(1, n + 1):
            prev = self.gen_l.lists[j - 1][: self.ell]
            items = self.gen_l.items[j - 1]
            if j > self.k and limit < len(items):
                # the items of value rank at most the limit, ties counted
                items = items[: np.searchsorted(items[:, 0], items[limit, 0])]
            # L_{j-1}[:ell] + C_j as one outer sum, rows ordered (item, row of prev)
            pairs = items[:, None, :2] + prev[None, :, :2]
            suffix = self.gen_r.lists[n - j][: self.r]
            hit = solve_two_class(pairs.reshape(-1, 2), suffix, self.V, self.W)
            if hit is None:
                continue
            item, t = divmod(hit[0], len(prev))
            picks = dict(self.gen_l.picks_of(j - 1, t))
            picks[j - 1] = int(items[item, 2])
            for rev_class, item_idx in self.gen_r.picks_of(n - j, hit[1]):
                picks[n - 1 - rev_class] = item_idx
            return picks
        return None


def _origins_to_choice(origins) -> Choice:
    choice: Choice = {}
    for ci, ii in origins:
        if ci in choice:
            raise DomainError(f"conflicting picks for class {ci}")
        choice[ci] = ii
    return choice


def _assemble(inst: KnapsackInstance, picks: Choice, fixed: tuple[Item, ...]) -> Choice:
    origins = []
    for ci, ii in picks.items():
        origins.extend(inst.classes[ci][ii].origin)
    for item in fixed:
        origins.extend(item.origin)
    return _origins_to_choice(origins)


def _run_lockstep(inst, order, fixed, oriented, k: int = 0):
    """Run both oriented searches in lock-step; the first stopped one decides.

    The searches run over the classes of `inst` taken in `order`;
    `oriented` is `oriented_rows(inst.classes)` and `k` is passed to
    `_Search`.  Returns (outcome, aborted): outcome is a Choice or
    None, aborted is True when, with k >= 1, both searches passed
    r = lambda**(k+1) before stopping.
    """
    lam = inst.lam  # at least 2: greedy_reduce commits every one-item class
    by_v, by_w = oriented
    active = [
        _Search([by_v[i] for i in order], inst.V, inst.W, lam, k),
        _Search([by_w[i] for i in order], inst.W, inst.V, lam, k),
    ]
    while True:
        for search in active:
            if search.grow_step():
                witness = search.join()
                if witness is None:
                    return None, False
                picks = {order[c]: item for c, item in witness.items()}
                return _assemble(inst, picks, fixed), False
        if k:
            active = [s for s in active if s.r <= lam ** (k + 1)]
            if not active:
                return None, True


def _reduced(inst: KnapsackInstance) -> tuple[Choice | None, Reduction | None]:
    """Run reduce_instance: (its answer, None) if it decided, else (None, it).

    Raises DomainError when the items left could overflow int64 sums.
    """
    red = reduce_instance(inst)
    if red.decided is None:
        classes = red.instance.classes
        if sum(max(max(abs(it.v), abs(it.w)) for it in cls) for cls in classes) >= _CLIP:
            raise DomainError("item values and weights must sum to less than 2**62")
        return None, red
    return (_assemble(inst, {}, red.fixed) if red.decided else None), None


def solve(inst: KnapsackInstance) -> Choice | None:
    """Feasible choice or None, in O(N + sqrt(a*lambda) log A) time.

    Runs the value-oriented and weight-oriented searches in
    deterministic lock-step; whichever stops growing first decides.
    """
    answer, red = _reduced(inst)
    if red is None:
        return answer
    base = red.instance
    return _run_lockstep(base, range(base.n), red.fixed, oriented_rows(base.classes))[0]


def solve_k(inst: KnapsackInstance, k: int) -> Choice | None:
    """Rank-parameterized variant for large classes.

    For each guess of the k front classes holding the largest-rank
    items, the middle item of every other split is restricted to
    ranks at most ell^(1/k).  The parameter escalates automatically
    when the rank budget outgrows lambda^(k+1) in both orientations.
    """
    if k < 1:
        raise DomainError("k must be a positive integer")
    answer, red = _reduced(inst)
    if red is None:
        return answer
    base = red.instance
    n = base.n
    kk = min(k, n)
    oriented = oriented_rows(base.classes)
    while True:
        any_aborted = False
        for front in itertools.combinations(range(n), kk):
            order = list(front) + [i for i in range(n) if i not in front]
            outcome, aborted = _run_lockstep(base, order, red.fixed, oriented, kk)
            if outcome is not None:
                return outcome
            any_aborted |= aborted
        if not any_aborted:
            return None
        if kk >= n:
            raise AssertionError("escalation cannot abort with all classes in front")
        kk += 1
