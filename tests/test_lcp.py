import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertainmatch import lcp
from uncertainmatch.errors import DomainError
from uncertainmatch.lcp import (
    SEPARATOR,
    CrossLcpIndex,
    _lift,
    build_cross_index,
    mismatch_walk,
    naive_lcp,
)

@given(st.text(alphabet="abc", min_size=1, max_size=30),
       st.text(alphabet="abc", min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_cross_lcp_matches_naive(pattern, text):
    idx = build_cross_index(pattern, text)
    for i in range(1, len(pattern) + 1):
        for j in range(1, len(text) + 1):
            assert idx.cross_lcp(i, j) == naive_lcp(pattern[i - 1:], text[j - 1:])


def _fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


TEXTS = {
    "a*2000": "a" * 2000,
    "ab*1000": "ab" * 1000,
    "fibonacci": _fibonacci_word(2000),
    "a": "a",
    "ab": "ab",
    "ba": "ba",
    "aa": "aa",
}


@pytest.mark.parametrize("text", list(TEXTS.values()), ids=list(TEXTS))
def test_lcp_batch_every_doubling_level(text):
    # with the pattern a prefix of a periodic text, names stay tied
    # until the factor length passes m and answers reach m, so the
    # doubling and the lifting use every level, up to 2^10 at m = 2000
    short = text[:300]
    idx = CrossLcpIndex(short, short)
    assert len(idx.levels) == len(short).bit_length()
    i, j = np.meshgrid(np.arange(1, len(short) + 1), np.arange(1, len(short) + 1))
    i, j = i.ravel(), j.ravel()
    assert idx.cross_lcp_batch(i, j).tolist() == \
        [naive_lcp(short[a - 1:], short[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]
    if len(text) > len(short):
        idx = CrossLcpIndex(text, text)
        assert len(idx.levels) == 11
        i, j = np.random.default_rng(11).integers(1, len(text) + 1, size=(2, 20_000))
        assert idx.cross_lcp_batch(i, j).tolist() == \
            [naive_lcp(text[a - 1:], text[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_cross_lcp_batch_at_the_level_cap(m):
    # a cross index keeps floor(log2 m) + 1 levels; periodic patterns
    # reach the longest answers, m itself, at every power-of-two edge
    rng = random.Random(m)
    texts = ["a" * 80, "ab" * 40, "".join(rng.choice("ab") for _ in range(80))]
    for pattern in ("a" * m, ("ab" * m)[:m]):
        for text in texts:
            idx = CrossLcpIndex(pattern, text)
            i, j = np.meshgrid(np.arange(1, m + 1), np.arange(1, len(text) + 1))
            i, j = i.ravel(), j.ravel()
            assert idx.cross_lcp_batch(i, j).tolist() == \
                [naive_lcp(pattern[a - 1:], text[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]


def test_cross_index_levels_are_capped_at_the_pattern_length():
    m, n = 10, 100_000
    idx = CrossLcpIndex("a" * m, "a" * n)
    held = idx.levels if idx.levels.base is None else idx.levels.base
    assert len(idx.levels) <= held.shape[0] <= m.bit_length()
    js = np.arange(1, n + 1)
    assert idx.cross_lcp_batch(1, js).tolist() == np.minimum(m, n + 1 - js).tolist()


def test_dense_letter_ids_keep_high_code_points_apart():
    # raw code points packed into bit_length(N) = 6 bits per name would
    # merge the pairs (1000, 100) and (1001, 36) at N = 43
    pattern, text = "\u03e8d" + "a" * 8, "\u03e9$" + "a" * 30
    idx = CrossLcpIndex(pattern, text)
    assert idx.cross_lcp(1, 1) == 0
    i, j = np.meshgrid(np.arange(1, len(pattern) + 1), np.arange(1, len(text) + 1))
    i, j = i.ravel(), j.ravel()
    assert idx.cross_lcp_batch(i, j).tolist() == \
        [naive_lcp(pattern[a - 1:], text[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]


# letters around 2^15, 2^16 and the last code point, U+10FFFF
WIDE = "ab\u03e8\u03e9\u7fff\u8000\uffff\U00010000\U0001d11e\U0010fffe\U0010ffff"


@st.composite
def wide_pairs(draw):
    letters = draw(st.lists(st.sampled_from(WIDE), min_size=1, max_size=4, unique=True))
    period = draw(st.text(alphabet=letters, min_size=1, max_size=5))
    n = draw(st.integers(1, 40))
    text = draw(st.one_of(st.text(alphabet=letters, min_size=n, max_size=n),
                          st.just((period * n)[:n])))
    # m = n, m > n, and pattern letters absent from the text
    m = draw(st.sampled_from([n, n + draw(st.integers(1, 5)), draw(st.integers(1, n))]))
    pattern = draw(st.text(alphabet=WIDE, min_size=m, max_size=m))
    if draw(st.booleans()):
        pattern = (text + pattern)[:m]
    return pattern, text


@given(wide_pairs())
@settings(max_examples=200, deadline=None)
def test_cross_lcp_over_wide_alphabets(pair):
    pattern, text = pair
    idx = build_cross_index(pattern, text)
    i, j = np.meshgrid(np.arange(1, len(pattern) + 1), np.arange(1, len(text) + 1))
    i, j = i.ravel(), j.ravel()
    want = [naive_lcp(pattern[a - 1:], text[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]
    assert idx.cross_lcp_batch(i, j).tolist() == want
    assert [idx.cross_lcp(a, b) for a, b in zip(i.tolist(), j.tolist())] == want


@pytest.mark.parametrize("past", [False, True], ids=["packed", "argsort"])
def test_both_order_paths(past, monkeypatch):
    # 4 letters and the separator take w = 3 bits, so rounds 0-2 pack
    # the pair with no sort and round 3 sorts a 48-bit pair key: packed
    # with the index while 48 + bit_length(N) <= 63, that is N < 2^15,
    # argsorted from N = 2^15 on; N = m + 1 + n letters.  A periodic
    # text keeps names tied, so round 4 packs again and all 6 levels stay
    m = 32
    n = ((1 << 15) if past else (1 << 15) - 1) - m - 1
    text = ("aacgt" * (n // 5 + 1))[:n]
    pattern = text[7:7 + m - 1] + "g"
    calls, ranked = [], []
    argsort, cumsum = np.argsort, np.cumsum

    def spy(*args, **kwargs):
        if not past:
            raise AssertionError("argsort below the packing bound")
        calls.append(1)
        return argsort(*args, **kwargs)

    def count(*args, **kwargs):
        ranked.append(1)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(lcp.np, "argsort", spy)
    monkeypatch.setattr(lcp.np, "cumsum", count)
    idx = CrossLcpIndex(pattern, text)
    monkeypatch.undo()
    assert (m + 1 + n).bit_length() == (16 if past else 15)
    assert len(idx.levels) == 6 and len(calls) == past
    # the letter ids, then the one sort round's dense names
    assert len(ranked) == 2
    rng = np.random.default_rng(21)
    i, j = rng.integers(1, m + 1, size=300), rng.integers(1, n + 1, size=300)
    # an answer never exceeds m letters of the text
    assert idx.cross_lcp_batch(i, j).tolist() == \
        [naive_lcp(pattern[a - 1:], text[b - 1:b - 1 + m]) for a, b in zip(i.tolist(), j.tolist())]


# 1, 3, 4, 20 and 300 letters, past the BMP among them: with the
# separator, level 0 takes w = 2, 3, 3, 5 and 9 bits, so the first
# sort round comes after 4, 3, 3, 2 and 1 packing rounds, and a short
# or periodic text leaves few enough names that the next round packs
ALPHABETS = {
    "1": "a",
    "3": "a\u00e9\U0001d11e",
    "4": "acgt",
    "20": "ACDEFGHIKLMNPQRSTVWY",
    "300": "".join(chr(0x10000 + 7 * c) for c in range(300)),
}


@pytest.mark.parametrize("letters", list(ALPHABETS.values()), ids=list(ALPHABETS))
def test_levels_name_the_factors(letters):
    # by definition: at every level t kept, two positions share a name
    # exactly when their length-2^t factors, cut at the text end, are
    # equal, and no factor's name is the empty suffix's, at index N
    rng = random.Random(len(letters))
    for m in range(1, 65):
        n = rng.randint(1, 100)
        period = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        for text in ("".join(rng.choice(letters) for _ in range(n)), (period * n)[:n]):
            start = rng.randrange(n)
            pattern = (text[start:] + "".join(rng.choice(letters) for _ in range(m)))[:m]
            idx = CrossLcpIndex(pattern, text)
            assert 1 <= len(idx.levels) <= m.bit_length()
            s = pattern + SEPARATOR + text
            for t, level in enumerate(idx.levels.tolist()):
                assert level[len(s)] == 0 and min(level[:-1]) >= 1
                factors = [s[p:p + (1 << t)] for p in range(len(s))]
                assert len(set(zip(factors, level))) == len(set(factors)) == len(set(level[:-1]))
            i = np.array([rng.randint(1, m) for _ in range(200)])
            j = np.array([rng.randint(1, n) for _ in range(200)])
            assert idx.cross_lcp_batch(i, j).tolist() == \
                [naive_lcp(pattern[a - 1:], text[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]


def test_repetitive_text():
    # the text end, not the pattern end, cuts this answer short
    assert build_cross_index("aaaa", "aaaa").cross_lcp(1, 3) == 2


def test_rejects_empty_and_out_of_range():
    idx = build_cross_index("ab", "")
    with pytest.raises(DomainError):
        idx.cross_lcp(1, 1)
    assert idx.cross_lcp_batch(1, np.empty(0, dtype=np.int64)).tolist() == []
    idx = build_cross_index("ab", "abab")
    for i, j in ((0, 1), (3, 1), (1, 0), (1, 5)):
        with pytest.raises(DomainError):
            idx.cross_lcp(i, j)


def test_cross_index_rejects_separator():
    for pattern, text in (("a" + SEPARATOR + "b", "ab"), ("ab", SEPARATOR + "ab")):
        with pytest.raises(DomainError):
            CrossLcpIndex(pattern, text)


def test_cross_lcp_truncates_at_pattern_end():
    # pattern is a prefix of the text; lcp must stop at the pattern end
    idx = build_cross_index("abc", "abcabc")
    assert idx.cross_lcp(1, 1) == 3
    assert idx.cross_lcp(2, 2) == 2


@given(st.text(alphabet="abc", min_size=1, max_size=30),
       st.text(alphabet="abc", min_size=1, max_size=30), st.data())
@settings(max_examples=200, deadline=None)
def test_cross_lcp_batch_pairwise(pattern, text, data):
    idx = build_cross_index(pattern, text)
    size = data.draw(st.integers(0, 20))
    i = np.array(data.draw(st.lists(st.integers(1, len(pattern)), min_size=size, max_size=size)))
    j = np.array(data.draw(st.lists(st.integers(1, len(text)), min_size=size, max_size=size)))
    want = [naive_lcp(pattern[a - 1:], text[b - 1:]) for a, b in zip(i.tolist(), j.tolist())]
    assert idx.cross_lcp_batch(i, j).tolist() == want
    if size:
        assert idx.cross_lcp_batch(int(i[0]), j).tolist() == \
            [naive_lcp(pattern[i[0] - 1:], text[b - 1:]) for b in j.tolist()]


def test_cross_lcp_batch_range_checks():
    idx = build_cross_index("ab", "abab")
    # out of range, then an array `i` of another length than `js`
    for i, j in (([0], [1]), ([3], [1]), ([1], [0]), ([1], [5]), ([1, 2], [1, 4 + 1]),
                 ([1, 2], [1]), ([1], [1, 2]), ([], [1])):
        with pytest.raises(DomainError):
            idx.cross_lcp_batch(np.array(i), np.array(j))
    with pytest.raises(DomainError):
        idx.cross_lcp_batch(3, np.array([1]))


@given(st.text(alphabet="ab", min_size=1, max_size=8),
       st.text(alphabet="ab", min_size=1, max_size=40), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_mismatch_walk_finds_every_mismatch_within_budget(pattern, text, budget):
    m, n = len(pattern), len(text)
    starts = np.arange(max(n - m + 1, 0))
    if not len(starts):
        return
    found = [[] for _ in starts]

    def step(w, f):
        for a, b in zip(w.tolist(), f.tolist()):
            found[a].append(b)
        return np.array([len(found[a]) <= budget for a in w.tolist()], dtype=bool)

    ended = mismatch_walk(build_cross_index(pattern, text), starts, step)
    for p in starts.tolist():
        want = [i for i in range(m) if pattern[i] != text[p + i]]
        assert found[p] == want[: budget + 1]
    assert ended.tolist() == [p for p in starts.tolist() if len(found[p]) <= budget]


def _lift_by_definition(levels, a, b):
    """The lift with no first-letter test: every pair, top level down."""
    out = np.zeros(len(b), dtype=np.int64)
    for t in range(len(levels) - 1, -1, -1):
        level = levels[t]
        out += (level[a + out] == level[b + out]) << t
    return out


def test_lift_equals_its_definition():
    # seeded batches over 2, 300 and past-the-BMP letters, random and
    # periodic texts, scalar and array `i`, and empty batches: the
    # first-letter test, the lift of the pairs that pass it and the
    # scatter back give the top-down lift over every pair, and the
    # lcp by definition
    rng = random.Random(29)
    alphabets = {"2": "ab", "300": "".join(chr(0x100 + c) for c in range(300)),
                 "astral": "\U00010000\U0001d11e\U0010ffff"}
    cases = ["differ", "agree", "past level 0", "pattern end"]
    seen = dict.fromkeys([(name, case) for name in alphabets for case in cases]
                         + ["scalar i", "array i", "empty", "periodic"], 0)
    for name, letters in alphabets.items():
        for trial in range(24):
            n = rng.randint(1, 120)
            periodic = trial % 2 == 1
            if periodic:
                period = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                text = (period * n)[:n]
            else:
                text = "".join(rng.choice(letters) for _ in range(n))
            m = rng.randint(1, 40)
            start = rng.randrange(n)
            # a pattern read off the text, so that first letters agree
            # and answers run to the pattern end, with random letters past it
            pattern = (text[start:start + rng.randint(0, m)]
                       + "".join(rng.choice(letters) for _ in range(m)))[:m]
            idx = CrossLcpIndex(pattern, text)

            def text_position(p):
                # half the pairs at the text position pattern[p] was read from
                q = start + p
                return q if q <= n and rng.random() < 0.5 else rng.randint(1, n)

            for size in (0, rng.randint(1, 300)):
                scalar, first = rng.random() < 0.5, rng.randint(1, m)
                ps = [first if scalar else rng.randint(1, m) for _ in range(size)]
                pairs = [(p, text_position(p)) for p in ps]
                i = first if scalar else np.array(ps, dtype=np.int64)
                js = np.array([q for _, q in pairs], dtype=np.int64)
                a = i - 1
                want = [naive_lcp(pattern[p - 1:], text[q - 1:]) for p, q in pairs]
                b = js + m
                assert _lift(idx.levels, a, b).tolist() == want
                assert _lift_by_definition(idx.levels, a, b).tolist() == want
                assert idx.cross_lcp_batch(i, js).tolist() == want
                seen["periodic"] += periodic
                seen["empty"] += size == 0
                seen["scalar i" if scalar else "array i"] += 1
                for (p, q), k in zip(pairs, want):
                    seen[name, "differ"] += k == 0
                    seen[name, "agree"] += k >= 1
                    seen[name, "past level 0"] += k >= 2
                    # stopped by the separator, not by a letter or the text end
                    seen[name, "pattern end"] += p + k - 1 == m and q + k - 1 < n
    assert all(seen.values()), seen
