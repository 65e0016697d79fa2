"""Acceptance suite: the library's headline guarantees in one place.

Each criterion prints a single PASS/FAIL line (run with `pytest -s`
to see them); a failure also fails the corresponding test.
"""

import functools
import itertools
import math
import random
import time

from uncertainmatch import knapsack as K
from uncertainmatch import neglog, sdwc
from uncertainmatch.consensus import gwpm, gwpm_witness, knapsack_to_wc, weighted_consensus
from uncertainmatch.profile import ScoringMatrix, count_matching_strings, profile_match
from uncertainmatch.profile import heavy_string as profile_heavy
from uncertainmatch.reference import (
    hamming,
    naive_consensus,
    naive_profile_match,
    naive_wpm,
)
from uncertainmatch.weighted import (
    ProbThreshold,
    WeightedSequence,
    from_probabilities,
    match_neglog,
    maximal_solid_prefixes,
    wpm,
)

from conftest import (
    random_dissimilar,
    random_knapsack,
    random_string,
    random_weighted,
)
from test_knapsack import full_lists
from test_sdwc import consensus_decomposes


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {label}")
                raise
            print(f"criterion {num:2d} PASS  {label}")
        return wrapper
    return deco


def seeded(n):
    return random.Random(0xACCE97 + n)


@criterion(1, "profile matching equals the brute-force oracle")
def test_criterion_1():
    rng = seeded(1)
    start = time.perf_counter()
    for _ in range(1000):
        sigma = "acgt"[: rng.randint(1, 4)]
        m = rng.randint(1, 16)
        n = rng.randint(1, 200)
        prof = ScoringMatrix(
            sigma, tuple(tuple(rng.randint(-9, 9) for _ in sigma) for _ in range(m))
        )
        text = random_string(rng, n, sigma)
        threshold = rng.randint(-40, 40)
        assert profile_match(prof, text, threshold) == \
            naive_profile_match(prof, text, threshold)
    assert time.perf_counter() - start < 10.0


@criterion(2, "occurrences stay within floor(log2 M) heavy-string mismatches")
def test_criterion_2():
    rng = seeded(2)
    for _ in range(300):
        sigma = rng.choice(["ab", "acgt"])
        m = rng.randint(1, 24 // int(math.log2(len(sigma))))
        prof = ScoringMatrix(
            sigma, tuple(tuple(rng.randint(-6, 6) for _ in sigma) for _ in range(m))
        )
        threshold = rng.randint(-12, 12)
        count = count_matching_strings(prof, threshold)
        if count < 1:
            continue
        bound = count.bit_length() - 1
        text = random_string(rng, rng.randint(m, 60), sigma)
        h = profile_heavy(prof)
        for p in profile_match(prof, text, threshold):
            assert hamming(h, text[p - 1: p + m - 1]) <= bound


@criterion(3, "wpm equals the brute-force oracle within the mismatch bound")
def test_criterion_3():
    rng = seeded(3)
    for _ in range(1000):
        n = rng.randint(1, 200)
        m = rng.randint(1, 16)
        t = random_weighted(rng, n, allow_empty=True)
        pattern = random_string(rng, m)
        z = ProbThreshold.from_z(2.0 ** rng.randint(1, 10))
        occ = wpm(pattern, t, z) if m <= n else []
        if m <= n:
            assert occ == naive_wpm(pattern, t, z)
        if any(not r for r in t.sorted_rows):
            continue
        h = "".join(r[0][0] for r in t.sorted_rows)
        for p in occ:
            assert hamming(pattern, h[p - 1: p + m - 1]) <= z.log2_floor


@criterion(4, "solid prefix counts never exceed z; the textbook case is exact")
def test_criterion_4():
    rng = seeded(4)
    for _ in range(500):
        z = ProbThreshold.from_z(2.0 ** rng.randint(1, 8))
        x = random_weighted(rng, rng.randint(1, 8), allow_empty=True)
        assert len(maximal_solid_prefixes(x, z)) <= z.display
        x = random_weighted(rng, rng.randint(1, 8))  # light prefixes need heavy letters
        light = sdwc.light_prefixes(x, x, z, z.units)
        assert 1 + sum(len(lst) for lst in light[1:]) <= z.display
    fig = from_probabilities(
        "ab", [{"a": 0.5, "b": 0.5}, {"a": 1.0}, {"a": 0.75, "b": 0.25}, {"b": 1.0}]
    )
    assert sorted(maximal_solid_prefixes(fig, ProbThreshold.from_z(4))) == \
        ["aaab", "baab"]


@criterion(5, "knapsack solvers and reductions agree with brute force")
def test_criterion_5():
    rng = seeded(5)
    for _ in range(1000):
        inst = random_knapsack(rng, max_n=4, max_lam=6)
        bf = K.brute_force(inst)
        feasible = bf is not None
        for choice in (K.solve(inst), K.solve_k(inst, 1), K.solve_k(inst, 2)):
            assert (choice is not None) == feasible
            if choice is not None:
                assert K.is_feasible(inst, choice)
        a_v, a_w = K.count_feasible(inst)
        reduced, fixed = K.greedy_reduce(inst)
        assert (K.brute_force(reduced) is not None) == feasible
        for red in (K.reduce_n_log(inst), K.reduce_instance(inst)):
            if red.decided is not None:
                assert red.decided == feasible
                continue
            assert (K.brute_force(red.instance) is not None) == feasible
            sub_av, sub_aw = K.count_feasible(red.instance)
            assert sub_av <= a_v and sub_aw <= a_w
        for cls in inst.classes:
            kept = K.prune_class(cls)
            assert set(kept) <= set(cls)


@criterion(6, "rank submultiplicativity and the list decomposition law hold")
def test_criterion_6():
    rng = seeded(6)
    for _ in range(500):
        inst = random_knapsack(rng, max_n=4, max_lam=3)
        domain = list(range(inst.n))
        rng.shuffle(domain)
        cut = rng.randint(0, len(domain))
        d1, d2 = tuple(sorted(domain[:cut])), tuple(sorted(domain[cut:]))
        picks = {c: rng.randrange(len(inst.classes[c])) for c in range(inst.n)}
        s1 = K.PartialChoice(d1, tuple(picks[c] for c in d1))
        s2 = K.PartialChoice(d2, tuple(picks[c] for c in d2))
        s = K.PartialChoice(
            tuple(sorted(domain)), tuple(picks[c] for c in sorted(domain))
        )
        assert K.rank_v(s1, inst) * K.rank_v(s2, inst) <= K.rank_v(s, inst)
    for _ in range(25):
        inst = random_knapsack(rng, max_n=8, max_lam=2, v_hi=8, t_hi=30)
        n = inst.n
        gen_l = full_lists(inst.classes)
        gen_r = full_lists(tuple(reversed(inst.classes)))
        lv = gen_l.value_at
        rv = lambda j, r: gen_r.value_at(n - j + 1, r)
        feasible = [
            picks
            for picks in itertools.product(*(range(len(c)) for c in inst.classes))
            if K.is_feasible(inst, dict(enumerate(picks)))
        ]
        longest = max(len(lst) for lst in gen_l.lists)
        for ell in range(2, min(longest, 16) + 2):
            for r in range(2, min(longest, 16) + 2):
                if any(lv(j, ell) + rv(j + 1, r) <= inst.V for j in range(n + 1)):
                    continue
                for picks in feasible:
                    assert any(
                        sum(inst.classes[c][picks[c]].v for c in range(j - 1))
                        < lv(j - 1, ell)
                        and sum(inst.classes[c][picks[c]].v for c in range(j, n))
                        < rv(j + 1, r)
                        for j in range(1, n + 1)
                    )


@criterion(7, "consensus equals the oracle and the inverse reduction round-trips")
def test_criterion_7():
    rng = seeded(7)
    for _ in range(500):
        n = rng.randint(1, 12)
        x = random_weighted(rng, n, allow_empty=True)
        y = random_weighted(rng, n, allow_empty=True)
        z = ProbThreshold.from_z(2.0 ** rng.randint(1, 10))
        got = weighted_consensus(x, y, z)
        assert (got is None) == (naive_consensus(x, y, z) is None)
        if got is not None:
            assert match_neglog(got, x) <= z.units
            assert match_neglog(got, y) <= z.units
    for _ in range(500):
        inst = random_knapsack(rng, max_n=3, max_lam=3, v_hi=6, t_hi=12)
        wc = knapsack_to_wc(inst)
        feasible = K.brute_force(inst) is not None
        assert (naive_consensus(wc.X, wc.Y, wc.z) is not None) == feasible
        prod = math.prod(len(c) for c in inst.classes)
        assert wc.z.display <= 4 * prod * (1 + 1e-9)


@criterion(8, "the dissimilar-consensus solver matches the oracle")
def test_criterion_8():
    rng = seeded(8)
    for _ in range(500):
        z = ProbThreshold.from_z(2.0 ** rng.randint(2, 10))
        n = rng.randint(1, min(8, 2 * z.log2_floor))
        inst = random_dissimilar(rng, n, z)
        got = sdwc.solve(inst)
        assert (got is None) == (naive_consensus(inst.X, inst.Y, inst.z) is None)
        if got is not None:
            assert match_neglog(got, inst.X) <= z.units
            assert match_neglog(got, inst.Y) <= z.units
    for _ in range(20):
        z = ProbThreshold.from_z(rng.choice([16, 256]))
        inst = random_dissimilar(rng, rng.randint(1, 8), z, sigma="ac")
        for letters in itertools.product("ac", repeat=inst.n):
            s = "".join(letters)
            if match_neglog(s, inst.X) <= z.units \
                    and match_neglog(s, inst.Y) <= z.units:
                assert consensus_decomposes(inst, s)
    for _ in range(100):
        z = ProbThreshold.from_z(rng.choice([4, 16]))
        inst = random_dissimilar(rng, rng.randint(1, 2 * z.log2_floor), z)
        base = sdwc.solve(inst)
        for k in (1, 2):
            assert (sdwc.solve_fast(inst, k) is None) == (base is None)


@criterion(9, "gwpm equals per-window consensus with verifying witnesses")
def test_criterion_9():
    rng = seeded(9)
    for _ in range(200):
        n = rng.randint(1, 100)
        m = rng.randint(1, min(12, n))
        p_seq = random_weighted(rng, m, allow_empty=True)
        t_seq = random_weighted(rng, n, allow_empty=True)
        z = ProbThreshold.from_z(2.0 ** rng.randint(2, 8))
        res = gwpm(p_seq, t_seq, z)
        windows = [
            WeightedSequence(t_seq.alphabet, t_seq.rows[p - 1: p + m - 1])
            for p in range(1, n - m + 2)
        ]
        expect = [
            p for p, w in enumerate(windows, start=1)
            if naive_consensus(p_seq, w, z) is not None
        ]
        assert list(res.occurrences) == expect
        for p in res.occurrences:
            witness = gwpm_witness(res, p)
            assert match_neglog(witness, p_seq) <= z.units
            assert match_neglog(witness, windows[p - 1]) <= z.units


@criterion(10, "million-position wpm and a 2^30 knapsack finish fast")
def test_criterion_10():
    rng = seeded(10)
    n, m = 10 ** 6, 50
    z = ProbThreshold.from_z(2.0 ** 20)
    hi = neglog.from_probability(0.9)
    lo = neglog.from_probability(1e-7)  # below 1/z: one mismatch ends a window
    sigma = "acgt"
    rows = []
    heavy = []
    for _ in range(n):
        h = rng.choice(sigma)
        o = rng.choice([s for s in sigma if s != h])
        rows.append({h: hi, o: lo})
        heavy.append(h)
    text = WeightedSequence(sigma, rows)
    start = n // 2
    pattern = "".join(heavy[start: start + m])
    # a first call pays the one-time costs of numpy's first use of each
    # routine; this 64-row call keeps them out of the timing
    wpm("ac", WeightedSequence(sigma, rows[:64]), z)
    t0 = time.perf_counter()
    occ = wpm(pattern, text, z)
    elapsed = time.perf_counter() - t0
    assert start + 1 in occ
    assert elapsed < 5.0, f"wpm took {elapsed:.2f}s"

    nums = [rng.randint(1 << 20, 1 << 30) for _ in range(30)]
    subset = rng.sample(range(30), 8)
    V = sum(nums[i] for i in subset)
    inst = K.make_instance(
        [[(a, 0), (0, a)] for a in nums], V, sum(nums) - V
    )
    t0 = time.perf_counter()
    choice = K.solve(inst)
    elapsed = time.perf_counter() - t0
    assert choice is not None and K.is_feasible(inst, choice)
    assert elapsed < 30.0, f"knapsack took {elapsed:.2f}s"
