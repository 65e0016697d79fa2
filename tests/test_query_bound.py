"""The paper's per-window bound on lcp queries, for all three matchers.

Every matcher walks its windows through `CrossLcpIndex.cross_lcp_batch`;
the counter below attributes each query to its window by the 0-based
start j - i, and the scalar `cross_lcp` must not be called at all.
"""

import random
from collections import Counter

import numpy as np
import pytest

from uncertainmatch import knapsack
from uncertainmatch.consensus import gwpm
from uncertainmatch.lcp import CrossLcpIndex
from uncertainmatch.profile import (
    ScoringMatrix,
    count_matching_strings,
    heavy_string,
    profile_match,
    score,
)
from uncertainmatch.weighted import ProbThreshold, _heavy_with_filler, from_probabilities, wpm

from conftest import random_rows, random_weighted


@pytest.fixture
def per_window(monkeypatch):
    counts = Counter()
    batch = CrossLcpIndex.cross_lcp_batch

    def counted(index, i, js):
        js = np.asarray(js, dtype=np.int64)
        counts.update((js - i).tolist())
        return batch(index, i, js)

    def scalar(index, i, j):
        raise AssertionError("scalar cross_lcp called by a matcher")

    monkeypatch.setattr(CrossLcpIndex, "cross_lcp_batch", counted)
    monkeypatch.setattr(CrossLcpIndex, "cross_lcp", scalar)
    return counts


def near_copy(rng, s, sigma, changes):
    s = list(s)
    for i in rng.sample(range(len(s)), min(changes, len(s))):
        s[i] = rng.choice(sigma)
    return "".join(s)


def most_queries(counts):
    most = max(counts.values(), default=0)
    counts.clear()
    return most


def test_profile_match_queries_per_window(per_window):
    rng = random.Random(2016)
    walked = 0
    for _ in range(300):
        sigma = rng.choice(["ab", "acgt"])
        m = rng.randint(1, 8)
        prof = ScoringMatrix(sigma, tuple(tuple(rng.randint(-9, 9) for _ in sigma)
                                          for _ in range(m)))
        heavy = heavy_string(prof)
        text = "".join(near_copy(rng, heavy, sigma, rng.randint(0, 3))
                       for _ in range(rng.randint(1, 6)))
        threshold = score(heavy, prof) - rng.randint(0, 25)
        profile_match(prof, text, threshold)
        most = most_queries(per_window)
        assert most <= count_matching_strings(prof, threshold).bit_length()
        walked += most > 1
    assert walked > 100


def test_wpm_queries_per_window(per_window):
    rng = random.Random(2017)
    walked = 0
    for _ in range(300):
        n = rng.randint(1, 60)
        text = random_weighted(rng, n, allow_empty=rng.random() < 0.3)
        heavy, _ = _heavy_with_filler(text)
        m = rng.randint(1, min(8, n))
        start = rng.randrange(n - m + 1)
        pattern = near_copy(rng, heavy[start: start + m].replace("\x01", "a"), "acgt",
                            rng.randint(0, 3))
        z = ProbThreshold.from_z(rng.choice([1, 2, 4, 16, 256, 2 ** 20]))
        wpm(pattern, text, z)
        most = most_queries(per_window)
        assert most <= z.log2_floor + 1
        walked += most > 1
    assert walked > 50


def test_gwpm_queries_per_window(per_window):
    rng = random.Random(2018)
    walked = 0
    for _ in range(200):
        z = ProbThreshold.from_z(rng.choice([2, 4, 16, 256]))
        m = rng.randint(1, 8)
        pat_rows = random_rows(rng, m, "acgt")
        rows = random_rows(rng, rng.randint(m, 40), "acgt")
        at = rng.randrange(len(rows) - m + 1)
        rows[at: at + m] = [dict(r) for r in pat_rows]
        gwpm(from_probabilities("acgt", pat_rows), from_probabilities("acgt", rows), z)
        most = most_queries(per_window)
        assert most <= 2 * z.log2_floor + 1
        walked += most > 1
    assert walked > 20


def test_gwpm_query_bound_is_reached(per_window):
    # the walk's three lower bounds (in P, in the window, and on both
    # together: the (1, 1) Lagrangian NO test of `knapsack.decide`, taken
    # one mismatch at a time) sit at z, z and 2z from the start and never
    # pass them: P's heavy letters cost log2 z bits at its tied rows, the
    # text's log2 z bits at its own, and at each of these 2 log2 z
    # mismatches the tied letter is free on the other side.  The
    # (budget + 1)-th shares no letter, so the window walks until then
    rows = {"p": ({"a": 0.5, "c": 0.5}, {"c": 1.0}),
            "t": ({"g": 1.0}, {"c": 0.5, "g": 0.5}),
            "x": ({"a": 1.0}, {"t": 1.0}),
            "-": ({"a": 1.0}, {"a": 1.0})}
    for log2z in (4, 8):
        z = ProbThreshold.from_z(2 ** log2z)
        budget = 2 * log2z
        kinds = ["p"] * log2z + ["t"] * log2z + ["x"] + ["-"] * 3
        pattern, text = (from_probabilities("acgt", [rows[k][side] for k in kinds])
                         for side in (0, 1))
        assert gwpm(pattern, text, z).occurrences == ()
        assert per_window == {0: budget + 1}
        per_window.clear()


def test_gwpm_sum_bound_stops_swapped_heavy_letters(per_window, monkeypatch):
    # heavy letters swapped at every offset: each swap costs each side's
    # bound only -log2(1 - q) bits, but any letter there costs log2 z
    # bits on one side, so the bound on both sides together passes 2z
    # at the second mismatch, and no window reaches the knapsack layer
    decided = []
    decide = knapsack.decide
    monkeypatch.setattr(knapsack, "decide", lambda vw, *a: decided.append(vw) or decide(vw, *a))
    rng = random.Random(2019)
    for log2z in (4, 8):
        z = ProbThreshold.from_z(2 ** log2z)
        q = 2.0 ** -log2z
        pairs = [rng.sample("acgt", 2) for _ in range(2 * log2z + 4)]
        pattern = from_probabilities("acgt", [{a: 1 - q, b: q} for a, b in pairs])
        text = from_probabilities("acgt", [{b: 1 - q, a: q} for a, b in pairs])
        assert gwpm(pattern, text, z).occurrences == ()
        assert set(per_window) == {0} and per_window[0] <= 2
        per_window.clear()
    assert decided == []
