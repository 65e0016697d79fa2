import contextlib
import io as stdio
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uncertainmatch import cli, io
from uncertainmatch import knapsack as K
from uncertainmatch.errors import CapacityError, DomainError

from conftest import random_knapsack

EXAMPLE = K.make_instance([[(1, 5), (3, 1)], [(2, 2), (4, 0)]], 5, 3)


def value_lists(classes):
    return K.PrefixGenerator(K.oriented_rows(classes)[0])


def full_lists(classes):
    gen = value_lists(classes)
    while not gen.all_complete():
        gen.step()
    return gen


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
    assert gen.lists[2][:, 0].tolist() == [3, 5, 5, 7]
    assert gen.lists[0].tolist() == [[0, 0, -1, -1]]
    single = value_lists(K.make_instance([[(5, 7)]], 0, 0).classes)
    single.step()
    assert single.lists[1][:, :2].tolist() == [[5, 7]]
    assert single.all_complete()
    single.step()  # stepping an exhausted generator leaves its lists alone
    assert len(single.lists[1]) == 1


def test_generator_prefix_of_sorted_enumeration(rng, monkeypatch):
    for trial in range(100):
        block = (1, 2, 3, K.FIRST_BLOCK)[trial % 4]
        monkeypatch.setattr(K, "FIRST_BLOCK", block)
        inst = random_knapsack(rng, max_n=5, max_lam=4)
        gen = value_lists(inst.classes)
        total = inst.num_choices()
        steps = rng.randint(1, max(1, (total // block).bit_length() + 1))
        for _ in range(steps):
            gen.step()
        for j in range(inst.n + 1):
            expect = sorted(
                sum(it.v for it in pick) for pick in itertools.product(*inst.classes[:j])
            )
            got = gen.lists[j][:, 0].tolist()
            assert got == expect[: len(got)]
            assert len(got) == min(block * 2 ** (steps - 1), len(expect))
            seen = set()
            for t, e in enumerate(gen.lists[j].tolist()):
                picks = gen.picks_of(j, t)
                assert [c for c, _ in picks] == list(range(j))
                assert sum(inst.classes[c][i].v for c, i in picks) == e[0]
                assert sum(inst.classes[c][i].w for c, i in picks) == e[1]
                seen.add(tuple(picks))
            assert len(seen) == len(got)  # no partial choice listed twice


def test_weight_orientation_is_the_swapped_instance(rng):
    # the weight-oriented rows are the value-oriented rows of the
    # instance with v and w exchanged, ties kept in item order
    for _ in range(100):
        inst = random_knapsack(rng, max_n=4, max_lam=5, v_hi=4)
        swapped = [[(it.w, it.v) for it in cls] for cls in inst.classes]
        by_w = K.oriented_rows(inst.classes)[1]
        by_v = K.oriented_rows(K.make_instance(swapped, inst.W, inst.V).classes)[0]
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


def test_prune_class_pareto_front_unchanged():
    front = tuple(K.Item(v, 9 - v, ((0, v),)) for v in range(10))
    assert K.prune_class(front) == front
    singleton = (K.Item(4, 4, ((0, 0),)),)
    assert K.prune_class(singleton) == singleton


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
    # a = min(A_V, A_W); a first block of 1 checks the doubling itself
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
            inst = random_knapsack(rng, max_n=6, max_lam=4, v_hi=30, t_hi=120)
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
