import itertools

import pytest

from uncertainmatch import sdwc
from uncertainmatch.errors import DomainError
from uncertainmatch.reference import naive_consensus
from uncertainmatch.sdwc import (
    SdwcInstance,
    SolidFactorRep,
    basic_intervals,
    build_L_R,
    light_prefixes,
    light_suffixes,
    meet,
    star_lists,
)
from uncertainmatch.weighted import (
    ProbThreshold,
    WeightedSequence,
    from_probabilities,
    match_neglog,
)

from conftest import random_dissimilar, random_weighted

SIGMA = "acgt"


def consensus_decomposes(inst, s):
    """True when s splits as L . c . heavy-run . R per the key decomposition."""
    n = inst.n
    zl_units, zr_units = sdwc._thresholds(inst)
    seqs = {"X": inst.X, "Y": inst.Y}
    for U in ("X", "Y"):
        for V in ("X", "Y"):
            u, v = seqs[U], seqs[V]
            for k in range(n):  # |L| = k, c at k + 1
                pre = s[:k]
                if k > 0 and pre[-1] == u.heavy(k):
                    continue  # L must be light in U
                pu = WeightedSequence(u.alphabet, u.rows[:k])
                if k > 0 and match_neglog(pre, pu) > zl_units:
                    continue
                for t in range(k + 1, n + 1):  # heavy run covers k+2..t
                    if any(s[i] != v.heavy(i + 1) for i in range(k + 1, t)):
                        break
                    suf = s[t:]
                    sv = WeightedSequence(v.alphabet, v.rows[t:])
                    if len(suf) == 0 or (
                        suf[0] != v.heavy(t + 1)
                        and match_neglog(suf, sv) <= zr_units
                    ):
                        return True
    return False


def test_instance_invariants():
    z = ProbThreshold.from_z(4)
    a = from_probabilities("ab", [{"a": 0.9, "b": 0.1}])
    b = from_probabilities("ab", [{"b": 0.9, "a": 0.1}])
    SdwcInstance(a, b, z)  # valid
    with pytest.raises(DomainError):
        SdwcInstance(a, from_probabilities("ab", [{"b": 1.0}, {"a": 1.0}]), z)
    with pytest.raises(DomainError):
        SdwcInstance(a, a, z)  # heavy strings agree
    long_a = from_probabilities("ab", [{"a": 0.9, "b": 0.1}] * 5)
    long_b = from_probabilities("ab", [{"b": 0.9, "a": 0.1}] * 5)
    with pytest.raises(DomainError):
        SdwcInstance(long_a, long_b, z)  # 5 > 2 floor(log2 4)


def brute_light_prefixes(x, y, z, zp_units, k):
    out = []
    for letters in itertools.product(x.alphabet, repeat=k):
        if any(s not in x.rows[i] or s not in y.rows[i] for i, s in enumerate(letters)):
            continue
        if letters[-1] == x.heavy(k):
            continue
        p1 = sum(x.letter_units(i + 1, s) for i, s in enumerate(letters))
        p2 = sum(y.letter_units(i + 1, s) for i, s in enumerate(letters))
        if p1 <= zp_units and p2 <= z.units:
            out.append(("".join(letters), p1, p2))
    return out


def test_light_prefixes_equal_brute_force(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        x = random_weighted(rng, n, sigma="ac")
        y = random_weighted(rng, n, sigma="ac")
        z = ProbThreshold.from_z(rng.choice([4, 16, 64]))
        zp = ProbThreshold.from_z(rng.choice([2, 8])).units
        B = light_prefixes(x, y, z, zp)
        assert B[0] == [SolidFactorRep("", 0, 0)]
        for k in range(1, n + 1):
            got = [(r.letters, r.p1, r.p2) for r in B[k]]
            assert sorted(got) == sorted(brute_light_prefixes(x, y, z, zp, k))
            assert [r.p1 for r in B[k]] == sorted(r.p1 for r in B[k])


def test_light_prefix_count_bound(rng):
    # at most z light 1/z-solid prefixes in total
    for _ in range(100):
        n = rng.randint(1, 6)
        x = random_weighted(rng, n)
        y = random_weighted(rng, n)
        z = ProbThreshold.from_z(rng.choice([2, 4, 8, 32]))
        B = light_prefixes(x, y, z, z.units)
        assert sum(len(lst) for lst in B[1:]) <= z.display


def test_light_suffixes_mirror(rng):
    for _ in range(50):
        n = rng.randint(1, 5)
        x = random_weighted(rng, n, sigma="ac")
        y = random_weighted(rng, n, sigma="ac")
        z = ProbThreshold.from_z(8)
        rev = lambda w: WeightedSequence(w.alphabet, list(reversed(w.rows)))
        S = light_suffixes(x, y, z, z.units)
        B = light_prefixes(rev(x), rev(y), z, z.units)
        for k in range(n + 1):
            assert sorted(r.letters for r in S[k]) == \
                sorted(r.letters[::-1] for r in B[k])


def test_basic_intervals_example():
    got = basic_intervals(7)
    layer0 = [(a, a, 0) for a in range(1, 9)]
    assert got[:8] == layer0
    assert [(a, b) for a, b, j in got if j == 1] == [(1, 2), (3, 4), (5, 6), (7, 8)]
    assert [(a, b) for a, b, j in got if j == 2] == [(1, 4), (5, 8)]
    assert [(a, b) for a, b, j in got if j == 3] == [(1, 8)]


def test_meet_uniform_length_required():
    z = ProbThreshold.from_z(4)
    bad = [SolidFactorRep("a", 0, 0), SolidFactorRep("ab", 0, 0)]
    with pytest.raises(DomainError):
        meet(bad, [], z)


def test_meet_equals_exhaustive(rng):
    for _ in range(300):
        z = ProbThreshold.from_z(rng.choice([4, 16]))
        hi = 2 * z.units
        # half the draws take units from a small set, so ties in p1 and
        # dominated entries occur in most lists
        small = [0, z.units // 3, z.units // 2, z.units]
        if rng.random() < 0.5:
            draw = lambda: rng.choice(small)
        else:
            draw = lambda: rng.randint(0, hi)

        def rand_list(length, size):
            lst = [
                SolidFactorRep(
                    "".join(rng.choice("ab") for _ in range(length)),
                    draw(),
                    draw(),
                )
                for _ in range(size)
            ]
            return sorted(lst, key=lambda r: r.p1)

        L = rand_list(rng.randint(1, 3), rng.randint(0, 8))
        R = rand_list(rng.randint(1, 3), rng.randint(0, 8))
        got = meet(L, R, z)
        pairs = [
            (l, r) for l in L for r in R
            if l.p1 + r.p1 <= z.units and l.p2 + r.p2 <= z.units
        ]
        assert (got is not None) == bool(pairs)
        if got is not None:
            assert any(l.letters + r.letters == got for l, r in pairs)


def test_star_lists_are_valid_factors(rng):
    for _ in range(40):
        z = ProbThreshold.from_z(16)
        inst = random_dissimilar(rng, rng.randint(1, 6), z)
        n = inst.n
        for U in ("X", "Y"):
            for V in ("X", "Y"):
                L, R = build_L_R(inst, U, V)
                l_star, r_star = star_lists(inst, L, R, V)
                for (a, b), lst in l_star.items():
                    for r in lst:
                        k = len(r.letters)
                        assert a - 1 <= k <= min(b, n)
                        px = WeightedSequence(inst.X.alphabet, inst.X.rows[:k])
                        py = WeightedSequence(inst.Y.alphabet, inst.Y.rows[:k])
                        assert match_neglog(r.letters, px) == r.p1
                        assert match_neglog(r.letters, py) == r.p2
                for (a, b), lst in r_star.items():
                    for r in lst:
                        k = len(r.letters)
                        assert k == n - a + 1
                        sx = WeightedSequence(inst.X.alphabet, inst.X.rows[a - 1:])
                        sy = WeightedSequence(inst.Y.alphabet, inst.Y.rows[a - 1:])
                        assert match_neglog(r.letters, sx) == r.p1
                        assert match_neglog(r.letters, sy) == r.p2


def test_consensus_string_decomposition(rng):
    # every consensus string decomposes as L . c . heavy-run . R
    for _ in range(40):
        z = ProbThreshold.from_z(rng.choice([4, 16]))
        inst = random_dissimilar(rng, rng.randint(1, min(6, 2 * z.log2_floor)), z)
        for letters in itertools.product(SIGMA, repeat=inst.n):
            s = "".join(letters)
            if match_neglog(s, inst.X) > z.units or match_neglog(s, inst.Y) > z.units:
                continue
            assert consensus_decomposes(inst, s), (inst, s)


def test_solve_equals_naive(rng):
    for _ in range(500):
        z = ProbThreshold.from_z(rng.choice([4, 16, 64, 1024]))
        n = rng.randint(1, min(8, 2 * z.log2_floor))
        inst = random_dissimilar(rng, n, z)
        got = sdwc.solve(inst)
        expect = naive_consensus(inst.X, inst.Y, inst.z)
        assert (got is None) == (expect is None)
        if got is not None:
            assert match_neglog(got, inst.X) <= z.units
            assert match_neglog(got, inst.Y) <= z.units


def test_solve_meets_each_internal_node_once(rng, monkeypatch):
    # per orientation, one meet per internal node (a, b, j) of the basic
    # intervals, j >= 1 and a <= c < b with c = a + 2^(j-1) - 1, of the
    # star lists L*_{a,c} and R*_{c+1,b}, in basic-interval order: a NO
    # instance meets all 4 x |internal nodes|, a YES one stops at its witness
    stars, met = [], []
    star_lists, original = sdwc.star_lists, sdwc.meet
    monkeypatch.setattr(sdwc, "star_lists", lambda *a: stars.append(star_lists(*a)) or stars[-1])
    monkeypatch.setattr(sdwc, "meet", lambda L, R, z: met.append((len(stars) - 1, L, R))
                        or original(L, R, z))
    answers = []
    for _ in range(240):
        z = ProbThreshold.from_z(rng.choice([4, 16, 64]))
        inst = random_dissimilar(rng, rng.randint(1, min(8, 2 * z.log2_floor)), z)
        stars.clear()
        met.clear()
        got = sdwc.solve(inst)
        nodes = [(a, a + 2 ** (j - 1) - 1, b) for a, b, j in basic_intervals(inst.n)
                 if j and a + 2 ** (j - 1) - 1 < b]
        expect = [(o, (a, c), (c + 1, b)) for o in range(4) for a, c, b in nodes]
        keys = [(o, next(k for k, v in stars[o][0].items() if v is L),
                 next(k for k, v in stars[o][1].items() if v is R)) for o, L, R in met]
        assert keys == (expect if got is None else expect[: len(keys)])
        answers.append(got is None)
    assert answers.count(True) > 20 and answers.count(False) > 20


def test_solve_fast_equals_solve(rng):
    for _ in range(150):
        z = ProbThreshold.from_z(rng.choice([4, 16]))
        inst = random_dissimilar(rng, rng.randint(1, 2 * z.log2_floor), z)
        base = sdwc.solve(inst)
        for k in (1, 2):
            got = sdwc.solve_fast(inst, k)
            assert (got is None) == (base is None)
            if got is not None:
                assert match_neglog(got, inst.X) <= z.units
                assert match_neglog(got, inst.Y) <= z.units
