"""Exact Multichoice Knapsack solver.

Choose one item per class so that value and weight sums stay within
two thresholds.  The solver runs the classic meet-in-the-middle
search parameterized by the number of feasible choices: partial
choices over prefixes and suffixes of the class sequence are
generated online in value order, growth stops once ranks certify that
no feasible solution can be missed, and each split index is finished
with a linear two-class sweep.  Instance reductions shrink the class
count to O(log A / log lambda) first.

Witnesses are always reconstructed: items carry their original
(class, item) origins through every reduction.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .capacity import check_enumeration
from .errors import DomainError

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

    @property
    def num_items(self) -> int:
        return sum(len(c) for c in self.classes)

    def num_choices(self) -> int:
        out = 1
        for c in self.classes:
            out *= len(c)
        return out

    def swapped(self) -> "KnapsackInstance":
        """The symmetric instance with values and weights exchanged."""
        return KnapsackInstance(
            tuple(tuple(Item(it.w, it.v, it.origin) for it in cls) for cls in self.classes),
            self.W,
            self.V,
        )


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


def pareto_filter(entries):
    """Drop entries dominated by one with smaller value and weight.

    Input must be sorted by non-decreasing v; the result has strictly
    increasing v and strictly decreasing w.
    """
    out = []
    for e in entries:
        if out and out[-1][1] <= e[1]:
            continue
        while out and out[-1][0] == e[0] and out[-1][1] > e[1]:
            out.pop()
        if out and out[-1][1] <= e[1]:
            continue
        out.append(e)
    return out


def solve_two_class(class1, class2, V: int, W: int):
    """Feasible pair from two v-sorted entry lists, or None.

    Entries are (v, w, payload) tuples.  Each first item is paired
    with the largest-value admissible second item, which after
    domination filtering also minimizes weight.
    """
    for cls in (class1, class2):
        for a, b in zip(cls, cls[1:]):
            if a[0] > b[0]:
                raise DomainError("solve_two_class requires lists sorted by value")
    front2 = pareto_filter(class2)
    if not front2:
        return None
    # front2 has strictly increasing v and strictly decreasing w
    ptr = len(front2) - 1
    for v1, w1, p1 in class1:
        budget = V - v1
        while ptr >= 0 and front2[ptr][0] > budget:
            ptr -= 1
        if ptr < 0:
            break  # later entries of class1 only have larger v
        v2, w2, p2 = front2[ptr]
        if w1 + w2 <= W:
            return (v1, w1, p1), (v2, w2, p2)
    return None


# ---------------------------------------------------------------------------
# online ranked prefix-list generation


class PrefixGenerator:
    """Generates the value-sorted partial-choice lists L_0..L_n online.

    L_j enumerates partial choices over classes 1..j ordered by
    non-decreasing value; each step appends one element to every
    unfinished list (j ascending), driven by one binary heap of
    iterators per class.  List entries are
    (v_sum, w_sum, index_into_previous_list, item_index).
    """

    def __init__(self, classes):
        self.classes = list(classes)
        n = len(self.classes)
        self.lists = [[(0, 0, -1, -1)]] + [[] for _ in range(n)]
        self.complete = [True] + [False] * n
        self.heaps = []
        self.pending = []  # iterators waiting for the previous list to grow
        for j, cls in enumerate(self.classes, start=1):
            if j == 1:
                heap = [(it.v, idx, 0) for idx, it in enumerate(cls)]
                heapq.heapify(heap)
                self.heaps.append(heap)
                self.pending.append([])
            else:
                # L_{j-1} is still empty; park every iterator until it grows
                self.heaps.append([])
                self.pending.append([(idx, 0) for idx in range(len(cls))])

    @property
    def n(self) -> int:
        return len(self.classes)

    def all_complete(self) -> bool:
        return all(self.complete)

    def step(self) -> None:
        """Append one element to each unfinished list, in increasing j."""
        for j in range(1, self.n + 1):
            if self.complete[j]:
                continue
            prev = self.lists[j - 1]
            heap = self.heaps[j - 1]
            still_pending = []
            for item_idx, pos in self.pending[j - 1]:
                if pos < len(prev):
                    heapq.heappush(heap, (prev[pos][0] + self.classes[j - 1][item_idx].v, item_idx, pos))
                elif not self.complete[j - 1]:
                    still_pending.append((item_idx, pos))
                # else: iterator exhausted a completed list; drop it
            self.pending[j - 1] = still_pending
            if not heap:
                if not still_pending:
                    self.complete[j] = True
                continue
            value, item_idx, pos = heapq.heappop(heap)
            item = self.classes[j - 1][item_idx]
            self.lists[j].append((value, prev[pos][1] + item.w, pos, item_idx))
            npos = pos + 1
            if npos < len(prev):
                heapq.heappush(heap, (prev[npos][0] + item.v, item_idx, npos))
            elif not self.complete[j - 1]:
                self.pending[j - 1].append((item_idx, npos))
            if not heap and not self.pending[j - 1]:
                self.complete[j] = True

    def value_at(self, j: int, ell: int):
        """Value of the ell-th (1-based) element of L_j; inf past the end."""
        lst = self.lists[j]
        if ell <= len(lst):
            return lst[ell - 1][0]
        return INFINITE

    def picks_of(self, j: int, index: int) -> list[tuple[int, int]]:
        """(class, item) picks of the index-th (0-based) element of L_j."""
        out = []
        while j > 0:
            entry = self.lists[j][index]
            out.append((j - 1, entry[3]))
            index = entry[2]
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


def _second_smallest_delta(values: list[int]) -> int:
    s = sorted(values)
    return s[1] - s[0]


def reduce_n_log(inst: KnapsackInstance) -> Reduction:
    """Shrink to n <= 2 log2(A) classes or decide the answer outright."""
    reduced, fixed = greedy_reduce(inst)
    if reduced.n == 0:
        return Reduction(None, fixed, reduced.V >= 0 and reduced.W >= 0)
    v_min_sum = sum(min(it.v for it in cls) for cls in reduced.classes)
    w_min_sum = sum(min(it.w for it in cls) for cls in reduced.classes)
    half = (reduced.n + 1) // 2
    delta_v = sorted(_second_smallest_delta([it.v for it in cls]) for cls in reduced.classes)
    delta_w = sorted(_second_smallest_delta([it.w for it in cls]) for cls in reduced.classes)
    dv_mid = sum(delta_v[:half])
    dw_mid = sum(delta_w[:half])
    if v_min_sum + dv_mid <= reduced.V or w_min_sum + dw_mid <= reduced.W:
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
        import bisect
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
        i, j = small[0], small[1]
        merged = prune_class(_merge_classes(classes[i], classes[j]))
        classes[i] = merged
        del classes[j]
    big = [c for c in classes if len(c) > root]
    rest = [c for c in classes if len(c) <= root]
    classes = big + rest
    k = len(big)
    reduced = KnapsackInstance(tuple(classes), base.V, base.W)
    if k == 0:
        return Reduction(reduced, first.fixed, None)
    t = 1
    while t ** 3 < lam:
        t += 1  # smallest integer with t**3 >= lambda, i.e. ceil(lambda^(1/3))
    half = (k + 1) // 2
    delta_v = sorted(
        sorted(it.v for it in cls)[t - 1] - min(it.v for it in cls) for cls in big
    )
    delta_w = sorted(
        sorted(it.w for it in cls)[t - 1] - min(it.w for it in cls) for cls in big
    )
    v_min_sum = sum(min(it.v for it in cls) for cls in classes)
    w_min_sum = sum(min(it.w for it in cls) for cls in classes)
    if v_min_sum + sum(delta_v[:half]) <= reduced.V or \
            w_min_sum + sum(delta_w[:half]) <= reduced.W:
        return Reduction(reduced, first.fixed, None)
    return Reduction(None, first.fixed, False)


# ---------------------------------------------------------------------------
# meet-in-the-middle search


class _Search:
    """One oriented meet-in-the-middle run over a reduced instance.

    Grows the rank budget r step by step; once no split index can
    reach the value threshold (or everything is generated), the join
    phase sweeps every split with the two-class solver.
    """

    def __init__(self, inst: KnapsackInstance, ell_fn, rank_limit_fn=None, front_k: int = 0):
        self.inst = inst
        self.ell_fn = ell_fn
        self.rank_limit_fn = rank_limit_fn
        self.front_k = front_k
        self.gen_l = PrefixGenerator(inst.classes)
        self.gen_r = PrefixGenerator(tuple(reversed(inst.classes)))
        self.r = 0
        self.ell = 0
        self.stopped = False
        if rank_limit_fn is not None:
            # per-class value ranks, used to filter middle items for j > k
            self.class_ranks = []
            for cls in inst.classes:
                by_v = sorted(it.v for it in cls)
                import bisect
                self.class_ranks.append(
                    [bisect.bisect_right(by_v, it.v) for it in cls]
                )

    def _r_value(self, j: int, r: int):
        """Value of the r-th element of the suffix list R_j (classes j..n)."""
        return self.gen_r.value_at(self.inst.n - j + 1, r)

    def grow_step(self) -> bool:
        """Advance r by one; returns True once growth has stopped."""
        if self.stopped:
            return True
        self.r += 1
        self.ell = self.ell_fn(self.r)
        self.gen_l.step()
        self.gen_r.step()
        if self.gen_l.all_complete() and self.gen_r.all_complete():
            longest = max(len(lst) for lst in self.gen_l.lists + self.gen_r.lists)
            self.r = self.ell = longest
            self.stopped = True
            return True
        n, V = self.inst.n, self.inst.V
        for j in range(n + 1):
            left = self.gen_l.value_at(j, self.ell)
            right = self._r_value(j + 1, self.r)
            if left + right <= V:
                return False
        self.stopped = True
        return True

    def join(self) -> Choice | None:
        inst = self.inst
        n, V, W = inst.n, inst.V, inst.W
        for j in range(1, n + 1):
            prev = self.gen_l.lists[j - 1][: self.ell]
            cls = inst.classes[j - 1]
            allowed = range(len(cls))
            if self.rank_limit_fn is not None and j > self.front_k:
                limit = self.rank_limit_fn(self.ell)
                allowed = [
                    idx for idx in allowed if self.class_ranks[j - 1][idx] <= limit
                ]
            streams = [
                [(e[0] + cls[idx].v, e[1] + cls[idx].w, (t, idx)) for t, e in enumerate(prev)]
                for idx in allowed
            ]
            class_a = list(heapq.merge(*streams, key=lambda e: e[0]))
            suffix = self.gen_r.lists[n - j][: self.r]
            class_b = [(e[0], e[1], t) for t, e in enumerate(suffix)]
            res = solve_two_class(class_a, class_b, V, W)
            if res is None:
                continue
            (_, _, (t, idx)), (_, _, rpos) = res
            picks = dict(self.gen_l.picks_of(j - 1, t))
            picks[j - 1] = idx
            for rev_class, item_idx in self.gen_r.picks_of(n - j, rpos):
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


def _run_lockstep(searches, reduced_inst, fixed, abort_r=None):
    """Alternate single growth steps; the first stopped search decides.

    Returns (outcome, aborted): outcome is a Choice or None, aborted
    is True when every search exceeded the r cap before stopping.
    """
    active = list(searches)
    while True:
        for search in active:
            if search.grow_step():
                witness = search.join()
                if witness is None:
                    return None, False
                return _assemble(search.inst, witness, fixed), False
        if abort_r is not None:
            active = [s for s in active if s.r <= abort_r]
            if not active:
                return None, True


def solve(inst: KnapsackInstance) -> Choice | None:
    """Feasible choice or None, in O(N + sqrt(a*lambda) log A) time.

    Runs the value-oriented and weight-oriented searches in
    deterministic lock-step; whichever stops growing first decides.
    """
    red = reduce_instance(inst)
    if red.decided is not None:
        if not red.decided:
            return None
        return _assemble(KnapsackInstance((), 0, 0), {}, red.fixed)
    base = red.instance
    lam = max(base.lam, 1)
    ell_fn = lambda r: -(-r // lam)
    searches = [
        _Search(base, ell_fn),
        _Search(base.swapped(), ell_fn),
    ]
    outcome, _ = _run_lockstep(searches, base, red.fixed)
    return outcome


def solve_k(inst: KnapsackInstance, k: int) -> Choice | None:
    """Rank-parameterized variant for large classes.

    For each guess of the k front classes holding the largest-rank
    items, the middle item of every other split is restricted to
    ranks at most ell^(1/k).  The parameter escalates automatically
    when the rank budget outgrows lambda^(k+1) in both orientations.
    """
    if k < 1:
        raise DomainError("k must be a positive integer")
    red = reduce_instance(inst)
    if red.decided is not None:
        if not red.decided:
            return None
        return _assemble(KnapsackInstance((), 0, 0), {}, red.fixed)
    base = red.instance
    n = base.n
    lam = max(base.lam, 2)
    kk = min(k, n)
    while True:
        ell_fn = _power_ceil_fn(kk)
        rank_limit_fn = _root_floor_fn(kk)
        abort_r = lam ** (kk + 1)
        any_aborted = False
        for front in itertools.combinations(range(n), kk):
            order = list(front) + [i for i in range(n) if i not in front]
            permuted = KnapsackInstance(
                tuple(base.classes[i] for i in order), base.V, base.W
            )
            searches = [
                _Search(permuted, ell_fn, rank_limit_fn, kk),
                _Search(permuted.swapped(), ell_fn, rank_limit_fn, kk),
            ]
            outcome, aborted = _run_lockstep(searches, permuted, red.fixed, abort_r=abort_r)
            if aborted:
                any_aborted = True
                continue
            if outcome is not None:
                return outcome
        if not any_aborted:
            return None
        if kk >= n:
            raise AssertionError("escalation cannot abort with all classes in front")
        kk += 1


def _power_ceil_fn(k: int):
    def ell(r: int) -> int:
        # smallest integer e with e**(k+1) >= r**k
        target = r ** k
        e = max(1, round(target ** (1.0 / (k + 1))))
        while e ** (k + 1) < target:
            e += 1
        while e > 1 and (e - 1) ** (k + 1) >= target:
            e -= 1
        return e

    return ell


def _root_floor_fn(k: int):
    def limit(ell: int) -> int:
        # largest integer t with t**k <= ell
        t = max(1, round(ell ** (1.0 / k)))
        while t ** k > ell:
            t -= 1
        while (t + 1) ** k <= ell:
            t += 1
        return t

    return limit
