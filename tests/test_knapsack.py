import contextlib
import io as stdio
import itertools
import json
import math
import operator
import random
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uncertainmatch import cli, io
from uncertainmatch import knapsack as K
from uncertainmatch.errors import CapacityError, DomainError

from conftest import anti_correlated, large_class_instance, random_knapsack

EXAMPLE = K.make_instance([[(1, 5), (3, 1)], [(2, 2), (4, 0)]], 5, 3)


def oriented(classes):
    """`oriented_rows` of the classes, as `_item_arrays` pads them."""
    vw, alive, _, _ = K._item_arrays(classes, 0, 0)
    return K.oriented_rows(vw[:, 0], alive[0])


def value_lists(classes):
    return K.PrefixGenerator(oriented(classes)[0])


def full_lists(classes):
    gen = value_lists(classes)
    gen.step(gen.sizes[-1])
    return gen


def rows_of(gen, j):
    """L_j as rows (value, weight, parent row, slot), L_0's as (0, 0, -1, -1).

    The weights are the join's (`weights`), the parent rows and slots
    the walk-back's (`links` and the item rows, as `picks_of` reads them).
    """
    if j:
        rank, parent = gen.links(j, slice(None))
        slot = gen.items[j - 1][rank, 2]
    else:
        parent = slot = np.full(len(gen.lists[0]), -1)
    return np.stack((gen.lists[j], gen.weights()[j], parent, slot), axis=1).tolist()


def test_brute_force_example():
    choice = K.brute_force(EXAMPLE)
    assert choice == {0: 1, 1: 0}  # items (3,1) and (2,2)
    roomy = K.make_instance([[(1, 5), (3, 1)], [(2, 2), (4, 0)]], 100, 100)
    assert K.brute_force(roomy) == {0: 0, 1: 0}  # first lexicographic
    assert K.brute_force(K.make_instance([[(5, 0)], [(5, 0)]], 9, 99)) is None


def test_brute_force_guard():
    inst = K.make_instance([[(0, 0)] * 4 for _ in range(11)], 0, 0)
    with pytest.raises(CapacityError):
        K.brute_force(inst)


def test_count_feasible_example():
    assert K.count_feasible(EXAMPLE) == (3, 2)  # v sums 3,5,5,7; w sums 1,3,5,7
    assert K.count_feasible(K.make_instance([[(5, 0)], [(5, 0)]], 9, 99)) == (0, 1)
    roomy = K.make_instance([[(1, 5), (3, 1)], [(2, 2), (4, 0)]], 100, 100)
    assert K.count_feasible(roomy) == (4, 4)


def test_rank_examples():
    inst = K.make_instance([[(1, 0), (3, 0), (3, 0), (7, 0)]], 0, 0)
    s = K.PartialChoice((0,), (1,))
    assert K.rank_v(s, inst) == 3  # ties counted
    assert K.rank_v(K.PartialChoice((), ()), inst) == 1
    assert K.rank_v(K.PartialChoice((0,), (0,)), inst) == 1


def pairs(*rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def test_solve_two_class():
    c1 = pairs((1, 5), (3, 1))
    c2 = pairs((2, 2), (4, 0))
    got = K.solve_two_class(c1, c2, 5, 3)
    assert got is not None
    a, b = got
    assert c1[a, 0] + c2[b, 0] <= 5 and c1[a, 1] + c2[b, 1] <= 3
    assert K.solve_two_class(c1, c2, 2, 100) is None
    got = K.solve_two_class(pairs((1, 1)), pairs((2, 2)), 3, 3)
    assert got == (0, 0) and all(type(x) is int for x in got)
    assert K.solve_two_class(pairs(), c2, 5, 5) is None
    with pytest.raises(DomainError):
        K.solve_two_class(c1, pairs((3, 0), (1, 0)), 5, 5)


def test_solve_two_class_equals_pairing(rng):
    for _ in range(200):
        # the first list may come in any order; the second must be value-sorted
        c1 = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 6))]
        c2 = sorted((rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 6)))
        V, W = rng.randint(0, 12), rng.randint(0, 12)
        got = K.solve_two_class(pairs(*c1), pairs(*c2), V, W)
        fits = [any(a[0] + b[0] <= V and a[1] + b[1] <= W for b in c2) for a in c1]
        assert (got is not None) == any(fits)
        if got:
            a, b = got
            assert c1[a][0] + c2[b][0] <= V and c1[a][1] + c2[b][1] <= W
            assert not any(fits[:a])  # a is the first row of c1 that fits


def test_generator_example():
    gen = full_lists(K.make_instance([[(1, 0), (3, 0)], [(2, 0), (4, 0)]], 0, 0).classes)
    assert [row[0] for row in rows_of(gen, 2)] == [3, 5, 5, 7]
    assert rows_of(gen, 0) == [[0, 0, -1, -1]]
    single = value_lists(K.make_instance([[(5, 7)]], 0, 0).classes)
    single.step(K.FIRST_BLOCK)
    assert [row[:2] for row in rows_of(single, 1)] == [[5, 7]]
    assert single.sizes == [1, 1]
    before = single.lists[1], single.keeps[1]
    single.step(2 * K.FIRST_BLOCK)  # stepping a whole list leaves it alone
    assert single.lists[1] is before[0] and single.keeps[1] is before[1]


def test_generator_prefix_of_sorted_enumeration(rng):
    # targets as the search passes them: doubling r from a first block,
    # divided by lam and rounded up (ceil(r/3) is rarely a power of two);
    # classes of mixed sizes share the candidate arrays of one step
    for trial in range(100):
        block = (1, 2, 3, K.FIRST_BLOCK)[trial % 4]
        lam = rng.choice((1, 3, 4))
        inst = random_knapsack(rng, max_n=6, max_lam=4)
        gen = value_lists(inst.classes)
        total = inst.num_choices()
        steps = rng.randint(1, max(1, (total // block).bit_length() + 1))
        targets = [-(-block * 2 ** s // lam) for s in range(steps)]
        for target in targets:
            gen.step(target)
        whole = full_lists(inst.classes)
        for j in range(inst.n + 1):
            expect = sorted(
                sum(it.v for it in pick) for pick in itertools.product(*inst.classes[:j])
            )
            rows = rows_of(gen, j)
            got = [row[0] for row in rows]
            assert got == expect[: len(got)]
            assert len(got) == min(targets[-1], len(expect)) == min(targets[-1], gen.sizes[j])
            # the same rows, ties included, as the whole list's prefix
            assert rows == rows_of(whole, j)[: len(got)]
            seen = set()
            for t, e in enumerate(rows):
                picks = list(enumerate(gen.picks_of(j, t).tolist()))
                assert [c for c, _ in picks] == list(range(j))
                assert sum(inst.classes[c][i].v for c, i in picks) == e[0]
                assert sum(inst.classes[c][i].w for c, i in picks) == e[1]
                seen.add(tuple(picks))
            assert len(seen) == len(got)  # no partial choice listed twice


def subset_sum(rng, count):
    """`count` classes of (a, 0), (0, a) with both thresholds near half the sum."""
    nums = [rng.randint(1, 10 ** 6) for _ in range(count)]
    V = sum(nums) // 2
    return K.make_instance([[(a, 0), (0, a)] for a in nums], V, sum(nums) - V)


def test_lists_hold_values_and_order_weights_built_at_the_join(rng, monkeypatch):
    # while the lists grow, each row of L_1..L_n takes 16 bytes, its value
    # and its position in the candidate array, plus one start per item of
    # the class; no weight column is held and no list keeps a larger
    # array alive.  One join builds each generator's weights once, and
    # they are the sums of the picks the walk-back finds
    built = []
    weights = K.PrefixGenerator.weights
    monkeypatch.setattr(K.PrefixGenerator, "weights",
                        lambda gen: built.append(gen) or weights(gen))
    instances = [random_knapsack(rng, max_n=7, max_lam=5, v_hi=30, t_hi=150) for _ in range(40)]
    instances += [subset_sum(rng, count) for count in (12, 16, 18)]
    for inst in instances:
        search = K._Search(oriented(inst.classes)[0], inst.V, inst.W, inst.lam)
        gens = search.gen_l, search.gen_r
        stopped = False
        while not stopped:
            stopped = search.grow_step()
            for gen in gens:
                assert sorted(vars(gen)) == ["items", "keeps", "lists", "sizes", "starts"]
                rows = sum(map(len, gen.lists[1:]))
                held = gen.lists[1:] + gen.keeps[1:]
                assert all(a.ndim == 1 and a.dtype == np.int64 and a.base is None for a in held)
                assert sum(a.nbytes for a in held) == 16 * rows
                assert gen.lists[0].tolist() == [0] and not len(gen.keeps[0])
                assert [len(s) for s in gen.starts[1:]] == [len(c) for c in gen.items]
        assert not built
        search.join()
        assert built == list(gens)
        for gen in gens:
            w = weights(gen)
            slot_w = [dict(zip(c[:, 2].tolist(), c[:, 1].tolist())) for c in gen.items]
            for j in range(gen.n + 1):
                assert len(w[j]) == len(gen.lists[j])
                for t in sorted(rng.sample(range(len(w[j])), min(30, len(w[j])))):
                    assert sum(slot_w[c][i] for c, i in enumerate(gen.picks_of(j, t))) == w[j][t]
        built.clear()


def test_weight_orientation_is_the_swapped_instance(rng):
    # the weight-oriented rows are the value-oriented rows of the
    # instance with v and w exchanged, ties kept in item order
    for _ in range(100):
        inst = random_knapsack(rng, max_n=4, max_lam=5, v_hi=4)
        swapped = [[(it.w, it.v) for it in cls] for cls in inst.classes]
        by_w = oriented(inst.classes)[1]
        by_v = oriented(K.make_instance(swapped, inst.W, inst.V).classes)[0]
        assert [r.tolist() for r in by_w] == [r.tolist() for r in by_v]


def test_greedy_reduce():
    inst = K.make_instance([[(0, 0), (5, 5)], [(1, 5), (3, 1)]], 5, 3)
    reduced, fixed = K.greedy_reduce(inst)
    assert reduced.n == 1
    assert [it.origin for it in fixed] == [((0, 0),)]
    assert (reduced.V, reduced.W) == (5, 3)
    all_removable = K.make_instance([[(1, 1)], [(2, 2), (3, 3)]], 3, 3)
    reduced2, fixed2 = K.greedy_reduce(all_removable)
    assert reduced2.n == 0 and len(fixed2) == 2


def test_reduce_n_log_decides_correctly(rng):
    for _ in range(300):
        inst = random_knapsack(rng)
        red = K.reduce_n_log(inst)
        feasible = K.brute_force(inst) is not None
        if red.decided is not None:
            assert red.decided == feasible
        else:
            sub = K.brute_force(red.instance)
            assert (sub is not None) == feasible


def test_prune_class_postcondition(rng):
    import bisect
    for _ in range(200):
        cls = tuple(
            K.Item(rng.randint(0, 9), rng.randint(0, 9), ((0, i),))
            for i in range(rng.randint(1, 12))
        )
        kept = K.prune_class(cls)
        assert set(kept) <= set(cls)
        by_v = sorted(it.v for it in kept)
        by_w = sorted(it.w for it in kept)
        for it in kept:
            rv = bisect.bisect_right(by_v, it.v)
            rw = bisect.bisect_right(by_w, it.w)
            assert max(rv, rw) * 3 > len(kept)
        # only dominated items may be removed
        for it in set(cls) - set(kept):
            assert any(o.v < it.v and o.w < it.w for o in cls)
        # items past 2**63 keep the same positions
        scaled = tuple(K.Item(it.v << 64, it.w << 64, it.origin) for it in cls)
        assert K.prune_class(scaled) == tuple(scaled[cls.index(it)] for it in kept)
        # every dominated item is removed: the strict Pareto front, in order
        for c in (cls, scaled):
            assert K.prune_class(c) == defined_prune(c)


def test_prune_class_pareto_front_unchanged():
    front = tuple(K.Item(v, 9 - v, ((0, v),)) for v in range(10))
    assert K.prune_class(front) == front
    singleton = (K.Item(4, 4, ((0, 0),)),)
    assert K.prune_class(singleton) == singleton
    assert K.prune_class(()) == ()


def test_reduce_instance_preserves_feasibility(rng):
    for _ in range(300):
        inst = random_knapsack(rng)
        red = K.reduce_instance(inst)
        feasible = K.brute_force(inst) is not None
        if red.decided is not None:
            assert red.decided == feasible
        else:
            a_v, a_w = K.count_feasible(inst)
            fixed_v = sum(it.v for it in red.fixed)
            fixed_w = sum(it.w for it in red.fixed)
            assert red.instance.V == inst.V - fixed_v
            assert red.instance.W == inst.W - fixed_w
            sub_av, sub_aw = K.count_feasible(red.instance)
            assert sub_av <= a_v and sub_aw <= a_w
            assert (K.brute_force(red.instance) is not None) == feasible


def test_reduce_instance_merges_small_classes(rng):
    # force the merging path with one big class and several tiny ones
    big = [(i, 1000 - i) for i in range(800)]
    small = [[(0, 1), (1, 0)], [(2, 3), (3, 2)]]
    inst = K.make_instance([big] + small, 900, 900)
    red = K.reduce_instance(inst)
    if red.decided is None:
        assert red.instance.n < inst.n - len(red.fixed) + 1
        assert (K.brute_force(red.instance) is not None) == \
            (K.brute_force(inst) is not None)


def defined_prune(cls):
    """`prune_class` by definition: the strict Pareto front, over all pairs of items."""
    return tuple(it for it in cls if not any(o.v < it.v and o.w < it.w for o in cls))


def defined_reduce(inst):
    """`reduce_instance` by definition, and the step that decided it.

    Merged classes are `itertools.product`s of Items, and the rank test
    sums the class minima and the smallest half of the large classes'
    t-th gaps, per threshold.
    """
    first = K.reduce_n_log(inst)
    base = first.instance
    if base is None or base.lam < K.MERGE_LAMBDA_FLOOR:
        return first, "n log"
    root = math.isqrt(base.lam)
    t = next(t for t in itertools.count(1) if t ** 3 >= base.lam)
    classes = [defined_prune(c) for c in base.classes]
    while len(small := [i for i, c in enumerate(classes) if len(c) <= root]) >= 2:
        i, j = small[:2]
        classes[i] = defined_prune(tuple(K.Item(a.v + b.v, a.w + b.w, a.origin + b.origin)
                                         for a, b in itertools.product(classes[i], classes[j])))
        del classes[j]
    big = [c for c in classes if len(c) > root]
    reduced = K.KnapsackInstance(tuple(big + [c for c in classes if len(c) <= root]),
                                 base.V, base.W)
    if not big:
        return K.Reduction(reduced, first.fixed, None), "no large class"
    for key, cap in ((operator.attrgetter("v"), base.V), (operator.attrgetter("w"), base.W)):
        gaps = sorted(sorted(map(key, c))[t - 1] - min(map(key, c)) for c in big)
        if sum(min(map(key, c)) for c in classes) + sum(gaps[: (len(big) + 1) // 2]) <= cap:
            return K.Reduction(reduced, first.fixed, None), "large classes"
    return K.Reduction(None, first.fixed, False), "merge no"


def merge_corpus_instance(rng, kind, scale):
    """One class of 729-800 items, of `kind`, and 1-5 smaller classes, times `scale`.

    "front" is a Pareto front; in "cut", (0, 5) and (5, 0) dominate
    every other item, so pruning cuts the class to those two, and the
    thresholds sit at most 100 above the class minima; "tight" puts
    them a few hundred above, with two-item classes {(a, 0), (0, a)}.
    Otherwise they are the sums of random items.
    """
    C = rng.choice([30, 10 ** 5])
    lam = rng.randint(729, 800)
    if kind in ("front", "tight"):
        big = [(v, C - v) for v in rng.sample(range(C + 1000), lam)]
    elif kind == "cut":
        big = [(0, 5), (5, 0)] + [(rng.randint(10, C + 10), rng.randint(10, C + 10))
                                  for _ in range(lam - 2)]
    else:
        big = [(rng.randint(-C, C), rng.randint(-C, C)) for _ in range(lam)]
    classes = [big]
    for _ in range(rng.randint(1, 5)):
        if kind == "tight":
            a = rng.randint(1, 100)
            classes.append([(a, 0), (0, a)])
        else:
            size = rng.choice([1, 2, 3, 5, 20, rng.randint(1, 400)])
            classes.append([(rng.randint(-C, C), rng.randint(-C, C)) for _ in range(size)])
    rng.shuffle(classes)
    if kind in ("tight", "cut"):
        slack = (300, 900) if kind == "tight" else (0, 100)
        V, W = (sum(min(it[i] for it in c) for c in classes) + rng.randint(*slack)
                for i in (0, 1))
    else:
        V, W = (sum(c[rng.randrange(len(c))][i] for c in classes) for i in (0, 1))
    return K.make_instance([[(v * scale, w * scale) for v, w in c] for c in classes],
                           V * scale, W * scale)


def test_reduce_instance_equals_its_definition():
    # origins included, on a corpus that reaches the merge NO, a large
    # class left after merging, none left (so no rank test, which would
    # answer NO on some of them), and items past 2**60, where the arrays
    # hold Python ints
    rng = random.Random(26)
    steps = set()
    for trial in range(24):
        scale = 1 << 61 if trial % 3 == 0 else 1
        inst = merge_corpus_instance(rng, ("front", "cut", "random", "tight")[trial % 4], scale)
        want, step = defined_reduce(inst)
        assert K.reduce_instance(inst) == want
        steps.add((step, scale > 1))
    for step in ("merge no", "large classes", "no large class"):
        assert (step, False) in steps
    assert ("large classes", True) in steps


def test_rank_submultiplicative(rng):
    for _ in range(500):
        inst = random_knapsack(rng, max_n=4, max_lam=3)
        domain = list(range(inst.n))
        rng.shuffle(domain)
        cut = rng.randint(0, len(domain))
        d1, d2 = tuple(sorted(domain[:cut])), tuple(sorted(domain[cut:]))
        picks = {c: rng.randrange(len(inst.classes[c])) for c in range(inst.n)}
        s1 = K.PartialChoice(d1, tuple(picks[c] for c in d1))
        s2 = K.PartialChoice(d2, tuple(picks[c] for c in d2))
        s = K.PartialChoice(tuple(sorted(domain)), tuple(picks[c] for c in sorted(domain)))
        assert K.rank_v(s1, inst) * K.rank_v(s2, inst) <= K.rank_v(s, inst)


def test_list_decomposition_law(rng):
    for _ in range(60):
        inst = random_knapsack(rng, max_n=3, max_lam=3, v_hi=8, t_hi=20)
        n = inst.n
        gen_l = full_lists(inst.classes)
        gen_r = full_lists(tuple(reversed(inst.classes)))

        def lv(j, ell):
            return gen_l.value_at(j, ell)

        def rv(j, r):  # suffix list over classes j..n
            return gen_r.value_at(n - j + 1, r)

        feasible = []
        for picks in itertools.product(*(range(len(c)) for c in inst.classes)):
            v = sum(inst.classes[c][i].v for c, i in enumerate(picks))
            w = sum(inst.classes[c][i].w for c, i in enumerate(picks))
            if v <= inst.V and w <= inst.W:
                feasible.append(picks)
        longest = max(len(lst) for lst in gen_l.lists)
        # ell = 1 or r = 1 ties with the empty partial choice at value 0 and
        # breaks the strict inequalities; the solver never stops that early
        for ell in range(2, longest + 2):
            for r in range(2, longest + 2):
                if any(lv(j, ell) + rv(j + 1, r) <= inst.V for j in range(n + 1)):
                    continue  # premise fails; growth would continue
                for picks in feasible:
                    ok = False
                    for j in range(1, n + 1):
                        left = sum(inst.classes[c][picks[c]].v for c in range(j - 1))
                        right = sum(inst.classes[c][picks[c]].v for c in range(j, n))
                        if left < lv(j - 1, ell) and right < rv(j + 1, r):
                            ok = True
                            break
                    assert ok, (inst, ell, r, picks)


def test_solve_equals_brute_force(rng):
    for _ in range(500):
        inst = random_knapsack(rng)
        bf = K.brute_force(inst)
        got = K.solve(inst)
        assert (bf is None) == (got is None)
        if got is not None:
            assert K.is_feasible(inst, got)


def test_solve_recovers_unique_choice(rng):
    for _ in range(100):
        inst = random_knapsack(rng)
        a_v, a_w = K.count_feasible(inst)
        feasible = [
            dict(enumerate(picks))
            for picks in itertools.product(*(range(len(c)) for c in inst.classes))
            if K.is_feasible(inst, dict(enumerate(picks)))
        ]
        if len(feasible) == 1:
            assert K.solve(inst) == feasible[0]


def test_solve_k_equals_brute_force(rng):
    for _ in range(250):
        inst = random_knapsack(rng)
        bf = K.brute_force(inst)
        for k in (1, 2):
            got = K.solve_k(inst, k)
            assert (bf is None) == (got is None)
            if got is not None:
                assert K.is_feasible(inst, got)


def test_solve_k_searches_each_guess_once(monkeypatch):
    # 12 anti-correlated classes of 4 items survive the reductions and
    # the Lagrangian bounds; each orientation searches each guess of k
    # front classes to its stop at most once
    inst = anti_correlated(random.Random(7), 12, 4, 1000)
    base = K.reduce_instance(inst).instance
    assert base.n == 12 and base.V != base.W
    stops = []
    join = K._Search.join
    monkeypatch.setattr(K._Search, "join", lambda search: stops.append(search.V) or join(search))
    for k in (1, 2, 3):
        stops.clear()
        choice = K.solve_k(inst, k)
        assert choice is not None and K.is_feasible(inst, choice)
        assert 0 < max(map(stops.count, stops)) <= math.comb(base.n, k)


def test_solve_k_on_subset_sums_past_lambda_to_the_k_plus_one(monkeypatch):
    # classes {(a, 0), (0, a)} have lambda = 2, and each search runs to
    # its stop, at r >= FIRST_BLOCK > lambda**(k+1); each YES instance
    # has a planted subset, and its parity twin (doubled numbers, odd
    # thresholds) has none
    log = []
    join = K._Search.join
    monkeypatch.setattr(K._Search, "join", lambda search: log.append(
        (search.r, search.k, search.lam)) or join(search))
    rng = random.Random(20)
    for trial in range(24):
        nums = [rng.randint(1, 10 ** 6) for _ in range(10 + trial % 5)]
        V = sum(rng.sample(nums, len(nums) // 2))
        W = sum(nums) - V
        yes = K.make_instance([[(a, 0), (0, a)] for a in nums], V, W)
        no = K.make_instance([[(2 * a, 0), (0, 2 * a)] for a in nums], 2 * V - 1, 2 * W - 1)
        for inst in (yes, no):
            feasible = K.brute_force(inst) is not None
            assert feasible == (inst.V == V)
            for k in (1, 2):
                choice = K.solve_k(inst, k)
                assert (choice is not None) == feasible
                assert choice is None or K.is_feasible(inst, choice)
    for k in (1, 2):
        assert any(r > lam ** (k + 1) for r, kk, lam in log if kk == k)


def test_solve_k_guess_right_in_one_orientation_only():
    # one feasible choice (19, 3, 5) of items (v, 10**4 - v): class 0's
    # item has the largest value rank and the smallest weight rank, so
    # guess {0} is right only for the value search, and guesses {1} and
    # {2} only for the weight search.  The weight search stops first at
    # guess {0}, the value search no later at {1} and {2}: a guess
    # decided by whichever search stops first missed the choice
    values = [
        [422, 469, 1499, 1754, 1857, 1930, 1989, 2276, 2393, 2504,
         2897, 3501, 4053, 6019, 6781, 7155, 7629, 7647, 8149, 8201],
        [100, 339, 1180, 1738, 1943, 2130, 2220, 3983, 4317, 4451,
         4569, 5282, 5375, 5672, 5681, 6887, 8046, 8184, 8759, 8942],
        [355, 570, 4782, 4897, 5256, 5353, 5782, 6350, 6912, 7725,
         7997, 8235, 8406, 8581, 9509, 9587],
    ]
    inst = K.make_instance([[(v, 10 ** 4 - v) for v in vs] for vs in values], 15292, 14708)
    assert K.brute_force(inst) == {0: 19, 1: 3, 2: 5}
    assert K.reduce_instance(inst).decided is None
    for k in (1, 2, 3):
        assert K.solve_k(inst, k) == {0: 19, 1: 3, 2: 5}


def test_solve_k_on_planted_large_classes():
    # items (v, C - v): every choice has the same v + w, so exactly the
    # choices of value V fit; the planted one takes the top value rank in
    # one class and the bottom one in another, and classes are large
    # enough that the rank limit of `solve_k` leaves items out
    rng = random.Random(21)
    for _ in range(120):
        n, lam = 3, rng.randint(6, 20)
        C = 10 ** rng.randint(3, 5)
        values = [sorted(rng.sample(range(C), lam)) for _ in range(n)]
        picks = [lam - 1, 0, rng.randrange(lam)]
        V = sum(vs[p] for vs, p in zip(values, picks))
        inst = K.make_instance([[(v, C - v) for v in vs] for vs in values], V, n * C - V)
        for k in (1, 2):
            choice = K.solve_k(inst, k)
            assert choice is not None and K.is_feasible(inst, choice)


def test_large_classes_merge_on_the_decide_path(monkeypatch):
    # `decide` merges the classes greedy left on their arrays (`_merge`)
    # once they reach MERGE_LAMBDA_FLOOR, then searches the merged
    # classes; solve and solve_k agree with brute force, and merging's
    # rank test, the search's YES and its NO all answer some instances
    callers = []
    merge = K._merge

    def spy(*arrays):
        callers.append([frame.name for frame in traceback.extract_stack()])
        return merge(*arrays)

    monkeypatch.setattr(K, "_merge", spy)
    rng = random.Random(25)
    outcomes = []
    for trial in range(30):
        inst = large_class_instance(rng, ("yes", "no", "tight")[trial % 3])
        assert inst.lam >= K.MERGE_LAMBDA_FLOOR
        expect = K.brute_force(inst) is not None
        merged = K.reduce_instance(inst)
        outcomes.append("no" if merged.decided is False else ("search no", "search yes")[expect])
        for solver in (K.solve, lambda i: K.solve_k(i, 1), lambda i: K.solve_k(i, 2)):
            callers.clear()
            choice = solver(inst)
            assert (choice is not None) == expect
            assert choice is None or K.is_feasible(inst, choice)
            assert len(callers) == 1 and "decide" in callers[0]
    assert {outcomes.count(o) >= 5 for o in ("no", "search no", "search yes")} == {True}


def batch_arrays(insts):
    """The instances as one batch, each padded to the largest class: (vw, alive, caps)."""
    arrays = [K._item_arrays(inst.classes, inst.V, inst.W) for inst in insts]
    size = max(vw.shape[3] for vw, *_ in arrays)

    def pad(x, fill):
        return np.concatenate((x, np.full((*x.shape[:-1], size - x.shape[-1]), fill)), axis=-1)
    vw = np.concatenate([pad(vw, K._CLIP) for vw, *_ in arrays], axis=1)
    alive = np.concatenate([pad(alive, False) for _, alive, *_ in arrays])
    caps = np.concatenate([caps for _, _, caps, _ in arrays], axis=1)
    return vw, alive, caps


def decide_batch(insts, k):
    """`decide` on the instances as one batch, each padded to the largest class."""
    vw, alive, caps = batch_arrays(insts)
    return K.decide(vw, alive, caps, K._CLIP, k)


def test_search_returns_one_slot_per_class(monkeypatch):
    # a witness is one int64 slot array from the join to `decide`: every
    # search answers None or one live slot per class whose choice fits
    # the thresholds it was given, and `decide` on a batch picks, for
    # each instance, the choice `solve` or `solve_k` returns on it alone
    searched = []
    search = K.search

    def spy(vw, alive, V, W, k):
        at = search(vw, alive, V, W, k)
        if at is not None:
            assert type(at) is np.ndarray and at.dtype == np.int64 and at.shape == (len(alive),)
            assert alive[np.arange(len(at)), at].all()
            v, w = vw[:, np.arange(len(at)), at].sum(axis=1).tolist()
            assert v <= V and w <= W
        searched.append((k, vw.shape[2] >= K.MERGE_LAMBDA_FLOOR, at is not None))
        return at

    merged = []
    merge = K._merge
    monkeypatch.setattr(K, "_merge", lambda *a: merged.append(1) or merge(*a))
    monkeypatch.setattr(K, "search", spy)
    rng = random.Random(30)
    groups = {}
    for trial in range(200):
        if trial % 40 == 0:
            inst = large_class_instance(rng, "yes")
        elif trial % 4 == 0:
            inst = subset_sum(rng, rng.randint(6, 12))
        elif trial % 4 == 2:
            # items (v, C - v) with one choice planted at the top value rank
            # of a class in any position: guesses past the first must
            # answer, and `solve_k`'s rank limit leaves items out
            C, lam = 10 ** 4, rng.randint(6, 20)
            values = [sorted(rng.sample(range(C), lam)) for _ in range(rng.randint(3, 4))]
            planted = [lam - 1, 0] + [rng.randrange(lam) for _ in values[2:]]
            rng.shuffle(planted)
            V = sum(vs[p] for vs, p in zip(values, planted))
            inst = K.make_instance([[(v, C - v) for v in vs] for vs in values], V,
                                   len(values) * C - V)
        else:
            # negative values, and values past 2**40; classes of up to 20
            # items in instances of up to 5 classes, of up to 4 past that
            hi, n = rng.choice((10, 1000, 1 << 41)), rng.randint(1, 9)
            classes = [[(rng.randint(-hi // 4, hi), rng.randint(-hi // 4, hi))
                        for _ in range(rng.randint(1, 20 if n <= 5 else 4))] for _ in range(n)]
            V, W = (sum(c[rng.randrange(len(c))][i] for c in classes) + rng.randint(-hi, hi) // 8
                    for i in (0, 1))
            inst = K.make_instance(classes, V, W)
        groups.setdefault(inst.n, []).append(inst)
    for k in range(4):
        for insts in groups.values():
            state, picks = decide_batch(insts, k)
            for inst, yes, slots in zip(insts, state.tolist(), picks.tolist()):
                expect = K.solve_k(inst, k) if k else K.solve(inst)
                assert (dict(enumerate(slots)) if yes else None) == expect
                assert expect is None or K.is_feasible(inst, expect)
    # each k searched instances of both answers, and merged classes answered YES
    assert {searched.count((k, False, yes)) > 5 for k in range(4) for yes in (True, False)} \
        == {True}
    assert merged and any(big and yes for _, big, yes in searched)


def lagrange_corpus(rng, count):
    """Small instances of every kind the Lagrangian filter sees or skips.

    In turn: anti-correlated classes (x, K - x) with V + W near nK;
    values from -hi/4 to hi, hi up to 2**40; the same with one
    threshold past 2**60 (clipped to +-2**62 in int64) and the other
    from random items; and one item of 2**60 or more, which puts the
    instance on the object dtype.
    """
    for trial in range(count):
        n, kind = rng.randint(1, 5), trial % 4
        sizes = [rng.randint(1, 4) for _ in range(n)]
        if kind == 0:
            top = rng.choice((50, 1 << 20, 1 << 40))
            classes = [[(x, top - x) for x in rng.sample(range(top), s)] for s in sizes]
            V = sum(c[rng.randrange(len(c))][0] for c in classes) + rng.randint(-2, 2)
            yield K.make_instance(classes, V, n * top - V + rng.randint(-2, 2))
            continue
        hi = rng.choice((10, 1000, 1 << 40))
        classes = [[[rng.randint(-hi // 4, hi), rng.randint(-hi // 4, hi)] for _ in range(s)]
                   for s in sizes]
        if kind == 3:
            item = rng.choice(rng.choice(classes))
            item[rng.randrange(2)] = rng.choice((1, -1)) * rng.randint(1 << 60, 1 << 62)
        V, W = (sum(c[rng.randrange(len(c))][i] for c in classes) + rng.randint(-hi, hi) // 8
                for i in (0, 1))
        if kind == 2:
            far = rng.choice((1, -1)) * rng.choice((1 << 61, 3 << 60, 1 << 62, 1 << 70))
            V, W = (far, W) if rng.random() < 0.5 else (V, far)
        yield K.make_instance(classes, V, W)


def test_lagrange_bound_is_exact(monkeypatch):
    # every NO of the filter is brute force's, every YES pick fits, and
    # `decide` agrees with brute force at k = 0, 1 and 2; the filter
    # answers both ways, and leaves object batches and sums of largest
    # item magnitudes whose multiples reach 2**62 to the search
    spied = []
    lagrange = K._lagrange

    def spy(vw, alive, picks, nets, state):
        before = state.copy()
        lagrange(vw, alive, picks, nets, state)
        spied.append((vw.dtype, before, state.copy(), picks.copy()))

    monkeypatch.setattr(K, "_lagrange", spy)
    insts = list(lagrange_corpus(random.Random(32), 2000))
    expect = [K.brute_force(inst) is not None for inst in insts]
    groups = {}
    for i, inst in enumerate(insts):
        wide = K._item_arrays(inst.classes, inst.V, inst.W)[0].dtype == object
        # object arrays carry their own top, so each is decided alone
        groups.setdefault((inst.n, i if wide else -1), []).append(i)
    decided = {"no": 0, "yes": 0, "object": 0}
    for k in range(3):
        for (_, alone), ids in groups.items():
            spied.clear()
            if alone >= 0:
                inst = insts[alone]
                state, picks = K.decide(*K._item_arrays(inst.classes, inst.V, inst.W), k)
            else:
                state, picks = decide_batch([insts[i] for i in ids], k)
            (dtype, before, after, chosen), = spied
            for i, was, now, mine, yes, slots in zip(ids, before.tolist(), after.tolist(),
                                                      chosen.tolist(), state.tolist(),
                                                      picks.tolist()):
                assert yes == expect[i]
                assert not yes or K.is_feasible(insts[i], dict(enumerate(slots)))
                if dtype == object:
                    assert now == was
                    decided["object"] += was < 0
                elif was < 0 <= now:
                    assert now == expect[i] and mine == slots
                    decided[("no", "yes")[now]] += 1
    assert min(decided.values()) > 20, decided
    # 16 copies of the int64 batch of 5 classes take more than one chunk
    # of 2**20 entries a pair array, and each copy is decided as the
    # batch alone
    vw, alive, caps = batch_arrays([insts[i] for i in groups[5, -1]])
    outs = []
    for copies in (1, 16):
        arrays = np.tile(vw, (1, copies, 1, 1)), np.tile(alive, (copies, 1, 1))
        state, picks, nets = K.reduce_batch(*arrays, np.tile(caps, (1, copies)), K._CLIP)
        lagrange(*arrays, picks, nets, state)
        outs.append((state, picks))
    assert 16 * len(alive) * len(K.LAGRANGE_PAIRS) * alive[0].size > 1 << 20
    assert (outs[1][0] == np.tile(outs[0][0], 16)).all()
    assert (outs[1][1] == np.tile(outs[0][1], (16, 1))).all()
    # two int64 classes {(2**61, 0), (0, 1)}: (1, 0) picks a fitting
    # (0, 1) twice, but 2**61 + 2**61 reaches 2**62, so the instance is
    # left to the search, which refuses it
    spied.clear()
    vw = np.array([[[1 << 61, 0]] * 2, [[0, 1]] * 2], dtype=np.int64)[:, None]
    with pytest.raises(DomainError):
        K.decide(vw, np.ones((1, 2, 2), dtype=bool), np.array([[0], [2]]), K._CLIP, 0)
    (_, before, after, _), = spied
    assert before.tolist() == after.tolist() == [-1]


def test_solve_k_rejects_bad_k():
    with pytest.raises(DomainError):
        K.solve_k(EXAMPLE, 0)


def test_infeasible_below_minimum():
    inst = K.make_instance([[(3, 0), (5, 1)], [(4, 0)]], 6, 100)
    assert K.solve(inst) is None
    assert K.solve_k(inst, 1) is None


def test_is_feasible_rejects_out_of_range_picks():
    assert K.is_feasible(EXAMPLE, {0: 1, 1: 0})
    assert not K.is_feasible(EXAMPLE, {0: -1, 1: 0})  # -1 must not wrap to the last item
    assert not K.is_feasible(EXAMPLE, {0: 2, 1: 0})
    assert not K.is_feasible(EXAMPLE, {0: 1})


def test_search_refuses_int64_overflow():
    # three classes of 2**61: the search would sum past int64
    inst = K.make_instance([[(1 << 61, 0), (0, 1 << 61)]] * 3, 1 << 61, 1 << 62)
    assert K.reduce_instance(inst).decided is None
    with pytest.raises(DomainError):
        K.solve(inst)


def run_knapsack(tmp_path, inst, *argv):
    path = tmp_path / "i.mck"
    path.write_text(io.serialize_mck(inst))
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["knapsack", "--instance", str(path), *argv])
    return rc, out.getvalue()


def test_solvers_agree_past_int64(rng, tmp_path):
    # negative item values, and thresholds far beyond int64 on either side
    huge = 10 ** 30
    answers = set()
    for trial in range(200):
        inst = random_knapsack(rng, max_n=5, max_lam=4)
        classes = [[(it.v - 10, it.w - 10) for it in cls] for cls in inst.classes]
        V = (huge, -huge, inst.V - 20)[trial % 3]
        W = (huge, -huge, inst.W - 20)[trial // 3 % 3]
        inst = K.make_instance(classes, V, W)
        feasible = K.brute_force(inst) is not None
        answers.add(feasible)
        for choice in (K.solve(inst), K.solve_k(inst, 1), K.solve_k(inst, 2)):
            assert (choice is not None) == feasible
            if choice is not None:
                assert K.is_feasible(inst, choice)
        if trial % 10 == 0:
            for argv in ((), ("--algo", "k=2")):
                rc, out = run_knapsack(tmp_path, inst, *argv)
                assert rc == (0 if feasible else 1)
                assert out.startswith("YES" if feasible else "NO")
    assert answers == {True, False}


def test_cli_jsonl_witness_from_search(tmp_path):
    # 12 classes of (a, 0), (0, a): a subset sum no reduction decides
    nums = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    inst = K.make_instance([[(a, 0), (0, a)] for a in nums], 60, sum(nums) - 60)
    assert K.reduce_instance(inst).decided is None
    rc, out = run_knapsack(tmp_path, inst, "--format", "jsonl")
    assert rc == 0
    got = json.loads(out)
    assert got["feasible"]
    choice = {int(c) - 1: i - 1 for c, i in got["choice"].items()}
    assert K.is_feasible(inst, choice)


def test_growth_stops_within_bound(monkeypatch):
    # the search that decides stops at r <= max(first block, 4 ceil(sqrt(a lambda))),
    # a = min(A_V, A_W); a first block of 1 checks the doubling itself.
    # Anti-correlated classes and their NO twins: the Lagrangian bounds
    # leave every instance the reductions leave
    stops = []
    join = K._Search.join

    def record(search):
        stops.append(search.r)
        return join(search)

    monkeypatch.setattr(K._Search, "join", record)
    for block in (1, K.FIRST_BLOCK):
        monkeypatch.setattr(K, "FIRST_BLOCK", block)
        rng = random.Random(block)
        searched = 0
        for _ in range(300):
            inst = anti_correlated(rng, rng.randint(1, 6), rng.randint(3, 4), 1000,
                                   rng.random() < 0.5)
            red = K.reduce_instance(inst)
            stops.clear()
            K.solve(inst)
            if red.decided is not None:
                assert not stops
                continue
            a_v, a_w = K.count_feasible(red.instance)
            a = max(1, min(a_v, a_w))
            bound = max(block, 4 * math.ceil(math.sqrt(a * red.instance.lam)))
            assert len(stops) == 1 and stops[0] <= bound, (inst, stops, bound)
            searched += 1
        assert searched >= 100


def list_lengths(sizes, r, ell):
    """Rows of each prefix and suffix list after a grow step to r (ell on the prefix side)."""
    prefix = list(itertools.accumulate(sizes, operator.mul, initial=1))
    suffix = list(itertools.accumulate(reversed(sizes), operator.mul, initial=1))
    left = r if prefix[-1] <= r else ell
    return [min(left, p) for p in prefix], [min(r, s) for s in suffix]


def test_grow_step_lengths(rng, monkeypatch):
    # after each step L_j holds min(ell, P_j) rows and the suffix list over
    # classes j+1..n min(r, S_j), with P_j and S_j the prefix and suffix
    # products of the class sizes; once r reaches P_n both sides are whole
    for trial in range(120):
        block = (1, 2, K.FIRST_BLOCK)[trial % 3]
        monkeypatch.setattr(K, "FIRST_BLOCK", block)
        inst = random_knapsack(rng, max_n=8, max_lam=5, v_hi=30, t_hi=150)
        sizes = [len(c) for c in inst.classes]
        k = trial // 3 % 3
        search = K._Search(oriented(inst.classes)[0], inst.V, inst.W, inst.lam, k)
        r = block
        while True:
            stopped = search.grow_step()
            left, right = list_lengths(sizes, r, search.ell)
            assert [len(lst) for lst in search.gen_l.lists] == left
            assert [len(lst) for lst in search.gen_r.lists] == right
            if inst.num_choices() <= r:
                assert stopped and search.r == search.ell == inst.num_choices()
            else:
                assert search.r == r
            if stopped:
                break
            r *= 2


def test_small_instance_stops_after_one_step(monkeypatch):
    # 2 * 3 * 4 = 24 choices fit in the first block: one step of each
    # generator per search, then a join over whole lists
    inst = K.make_instance([[(5, 1), (1, 5)], [(2, 2), (3, 1), (1, 3)],
                            [(4, 0), (0, 4), (2, 2), (3, 3)]], 7, 7)
    assert inst.num_choices() <= K.FIRST_BLOCK
    search = K._Search(oriented(inst.classes)[0], 10 ** 6, 10 ** 6, inst.lam)
    assert search.grow_step()
    assert search.r == search.ell == 24
    assert len(search.gen_l.lists[3]) == len(search.gen_r.lists[3]) == 24
    steps = []
    step = K.PrefixGenerator.step
    monkeypatch.setattr(K.PrefixGenerator, "step",
                        lambda gen, target: steps.append(target) or step(gen, target))
    assert K.reduce_instance(inst).instance.num_choices() == 24
    choice = K.solve(inst)
    assert steps == [K.FIRST_BLOCK, K.FIRST_BLOCK]
    assert K.brute_force(inst) is not None and K.is_feasible(inst, choice)


def test_memory_guard_counts_the_rows_held(monkeypatch):
    # the guard raises at the step whose lists would pass the limit, and
    # at no earlier step: the prefix side counts ell rows, the suffix side r
    inst = subset_sum(random.Random(18), 18)
    rows = oriented(inst.classes)[0]

    def steps_within(limit):
        monkeypatch.setattr(K, "PREFIX_ROW_LIMIT", limit)
        search = K._Search(rows, inst.V, inst.W, inst.lam)
        held = []
        try:
            while True:
                stopped = search.grow_step()
                held.append(search.held)
                if stopped:
                    return held, True
        except CapacityError:
            return held, False

    held, _ = steps_within(1 << 40)
    assert len(held) >= 4 and held == sorted(set(held))
    for i, rows_held in enumerate(held):
        assert steps_within(rows_held - 1) == (held[:i], False)
        assert steps_within(rows_held)[0][: i + 1] == held[: i + 1]


def test_memory_guard_counts_both_searches(monkeypatch):
    # solve holds the value- and weight-oriented searches together, so
    # at the limit that one search alone peaks at, the pair passes it
    inst = subset_sum(random.Random(18), 18)
    assert K.reduce_instance(inst).decided is None
    peaks = []
    for rows, (v, w) in zip(oriented(inst.classes), ((inst.V, inst.W), (inst.W, inst.V))):
        search = K._Search(rows, v, w, inst.lam)
        peak, stopped = 0, False
        while not stopped:
            stopped = search.grow_step()
            peak = max(peak, search.held)
        peaks.append(peak)
    monkeypatch.setattr(K, "PREFIX_ROW_LIMIT", max(peaks))
    with pytest.raises(CapacityError):
        K.solve(inst)
    monkeypatch.setattr(K, "PREFIX_ROW_LIMIT", sum(peaks))
    assert K.is_feasible(inst, K.solve(inst))


def test_solve_k_past_the_guard_falls_back_to_solve(monkeypatch):
    # the guard lowered to the fewest rows `solve` needs on this
    # anti-correlated instance, which the Lagrangian bounds leave: the
    # k = 1 guess searches pass it, so the exact k = 0 search answers
    # with `solve`'s witness; one row less and both raise
    inst = anti_correlated(random.Random(0), 6, 6, 1000)

    def answers(solver, limit):
        monkeypatch.setattr(K, "PREFIX_ROW_LIMIT", limit)
        try:
            return solver(inst)
        except CapacityError:
            return CapacityError

    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if answers(K.solve, mid) is not CapacityError else (mid + 1, hi)
    choice = answers(K.solve, lo)
    assert K.is_feasible(inst, choice)
    ks = []
    search = K.search
    monkeypatch.setattr(K, "search", lambda *a: ks.append(a[-1]) or search(*a))
    assert answers(lambda i: K.solve_k(i, 1), lo) == choice
    assert ks == [1, 0]
    assert answers(K.solve, lo - 1) is CapacityError
    assert answers(lambda i: K.solve_k(i, 1), lo - 1) is CapacityError


@given(st.integers(0, 10 ** 60), st.integers(1, 12))
def test_iroot_is_the_integer_root(x, k):
    t = K._iroot(x, k)
    assert t ** k <= x < (t + 1) ** k


def test_iroot_at_exact_powers():
    for k in range(1, 13):
        for t in (1, 2, 3, 7, 10 ** 5, 2 ** 64 + 1, 3 ** 90):
            assert K._iroot(t ** k, k) == t
            assert K._iroot(t ** k - 1, k) == t - 1
            if k > 1:
                assert K._iroot(t ** k + 1, k) == t
    assert K._iroot(0, 5) == 0


def subset_sum_80():
    """80 classes of (a, 0), (0, a): r**80 outgrows a float long before the guard."""
    rng = random.Random(3)
    nums = [rng.randint(2 ** 20, 2 ** 30) for _ in range(80)]
    V = sum(nums) // 2
    return K.make_instance([[(a, 0), (0, a)] for a in nums], V, sum(nums) - V)


def test_solve_k_rank_budget_past_float_range():
    with pytest.raises(CapacityError):
        K.solve_k(subset_sum_80(), 80)


def test_cli_knapsack_rank_budget_past_float_range(tmp_path):
    path = tmp_path / "i.mck"
    path.write_text(io.serialize_mck(subset_sum_80()))
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["knapsack", "--instance", str(path), "--algo", "k=80"])
    assert rc == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_lagrange_memory_is_bounded_on_one_large_instance():
    # one instance of 16 classes of 2**16 slots: greedy commits the 13
    # with a (0, 0) item, so `_lagrange` builds its arrays over the 3
    # classes left, and runs its 19 pairs in groups of at most 2**20
    # entries (over every class and all pairs at once, its arrays
    # peaked past 300 MiB).  The thresholds are the sums of the (1, 4)
    # minimizers, so the answer is YES from a group after the first,
    # with the slots of the first pair in grid order whose minimizers fit
    rng = np.random.default_rng(36)
    n, slots = 16, 1 << 16
    vw = rng.integers(1, 1 << 20, size=(2, 1, n, slots))
    vw[:, 0, np.arange(13), rng.integers(0, slots, size=13)] = 0
    alive = np.ones((1, n, slots), dtype=bool)
    left = vw[:, 0, 13:]
    at = [(a * left[0] + b * left[1]).argmin(axis=1) for a, b in K.LAGRANGE_PAIRS.tolist()]

    def sums(slots_left):
        return np.take_along_axis(left, slots_left[None, :, None], axis=2)[..., 0].sum(axis=1)

    caps = sums(at[12])[:, None]
    first = next(p for p, slots_left in enumerate(at) if (sums(slots_left) <= caps[:, 0]).all())
    assert 5 <= first <= 12
    tracemalloc.start()
    try:
        state, picks = K.decide(vw, alive, caps, K._CLIP, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.tolist() == [1]
    assert (picks[0, 13:] == at[first]).all()
    assert (vw[:, 0, np.arange(13), picks[0, :13]] == 0).all()
    assert peak < 64 * 2**20
