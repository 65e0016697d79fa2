import tracemalloc

import numpy as np
import pytest

from uncertainmatch.errors import CapacityError, DomainError
from uncertainmatch.profile import (
    ScoringMatrix,
    _columns,
    count_matching_strings,
    heavy_string,
    profile_match,
    score,
)
from uncertainmatch.reference import hamming, naive_profile_match

from conftest import random_string

TOY = ScoringMatrix("ab", ((3, 0), (2, 5)))


def test_score_examples():
    assert score("ab", TOY) == 8
    assert score("ba", TOY) == 2
    zero = ScoringMatrix("ab", ((0, 0), (0, 0)))
    assert score("ba", zero) == 0


def test_score_rejects_bad_input():
    with pytest.raises(DomainError):
        score("a", TOY)
    with pytest.raises(DomainError):
        score("ax", TOY)


def test_heavy_string():
    assert heavy_string(TOY) == "ab"
    assert heavy_string(ScoringMatrix("ab", ((1, 1),))) == "a"  # tie
    assert heavy_string(ScoringMatrix("ab", ((-1, -2),))) == "a"
    ties = ScoringMatrix("tgca", ((0, 2, 2, 1), (3, 3, 3, 3), (-2, -1, -2, -1)))
    assert heavy_string(ties) == "gtg"


def test_heavy_string_maximizes_score(rng):
    for _ in range(50):
        m = rng.randint(1, 5)
        prof = ScoringMatrix(
            "ab", tuple(tuple(rng.randint(-9, 9) for _ in "ab") for _ in range(m))
        )
        h = heavy_string(prof)
        best = score(h, prof)
        for mask in range(2 ** m):
            s = "".join("ab"[(mask >> i) & 1] for i in range(m))
            assert score(s, prof) <= best


def test_profile_match_window_example():
    # window scores over "abba" are 8, 5, 2
    assert profile_match(TOY, "abba", 7) == [1]
    assert profile_match(TOY, "abba", -100) == [1, 2, 3]
    assert profile_match(TOY, "abba", score(heavy_string(TOY), TOY) + 1) == []


def test_profile_match_short_text():
    assert profile_match(TOY, "a", 0) == []


def test_profile_match_equals_naive(rng):
    for _ in range(300):
        sigma = rng.choice(["ab", "acgt"])
        m = rng.randint(1, 6)
        n = rng.randint(1, 40)
        prof = ScoringMatrix(
            sigma, tuple(tuple(rng.randint(-9, 9) for _ in sigma) for _ in range(m))
        )
        text = random_string(rng, n, sigma)
        threshold = rng.randint(-30, 30)
        assert profile_match(prof, text, threshold) == \
            naive_profile_match(prof, text, threshold)


def test_count_matching_strings():
    assert count_matching_strings(TOY, 7) == 1  # only "ab"
    assert count_matching_strings(TOY, -100) == 4
    assert count_matching_strings(TOY, 100) == 0


def test_count_matching_strings_guard():
    big = ScoringMatrix("acgt", tuple((0, 0, 0, 0) for _ in range(14)))
    with pytest.raises(CapacityError):
        count_matching_strings(big, 0)


def test_mismatch_bound(rng):
    # occurrences stay within floor(log2 M) mismatches of the heavy string
    for _ in range(100):
        m = rng.randint(1, 6)
        prof = ScoringMatrix(
            "ab", tuple(tuple(rng.randint(-5, 5) for _ in "ab") for _ in range(m))
        )
        text = random_string(rng, rng.randint(m, 30), "ab")
        threshold = rng.randint(-10, 10)
        count = count_matching_strings(prof, threshold)
        if count == 0:
            assert profile_match(prof, text, threshold) == []
            continue
        h = heavy_string(prof)
        bound = count.bit_length() - 1  # floor(log2 count)
        for p in profile_match(prof, text, threshold):
            assert hamming(h, text[p - 1: p + m - 1]) <= bound


def fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def random_profile(rng, sigma, m, lo=-9, hi=9):
    return ScoringMatrix(sigma, tuple(tuple(rng.randint(lo, hi) for _ in sigma)
                                      for _ in range(m)))


def test_profile_match_equals_naive_on_adversarial_texts(rng):
    # periodic texts, a single window (m == n), heavy letters absent
    # from the text, and thresholds at the heavy score and beyond it
    texts = ["a" * 40, "ab" * 20, fibonacci_word(40), "abab", "b"]
    for _ in range(200):
        text = rng.choice(texts)
        sigma = rng.choice(["ab", "abc", "cab"])
        m = rng.choice([1, 2, 3, 5, len(text)])
        if m > len(text):
            continue
        prof = random_profile(rng, sigma, m)
        top = score(heavy_string(prof), prof)
        for threshold in (top, top + 1, top - 1, top - 7, rng.randint(-30, 30),
                          10 ** 30, -10 ** 30):
            assert profile_match(prof, text, threshold) == \
                naive_profile_match(prof, text, threshold)


def test_profile_match_heavy_letters_outside_text(rng):
    # "c" scores best everywhere but never occurs in the text: every
    # window mismatches the heavy string at every position
    prof = ScoringMatrix("abc", tuple((rng.randint(-3, 3), rng.randint(-3, 3), 9)
                                      for _ in range(4)))
    text = "".join(rng.choice("ab") for _ in range(30))
    for threshold in range(-12, 37, 3):
        assert profile_match(prof, text, threshold) == \
            naive_profile_match(prof, text, threshold)


def test_profile_match_threshold_above_heavy_score():
    # an exact heavy match still scores below the threshold
    heavy = heavy_string(TOY)
    top = score(heavy, TOY)
    assert profile_match(TOY, heavy * 3, top + 1) == []
    assert profile_match(TOY, heavy * 3, 10 ** 30) == []
    assert profile_match(TOY, heavy * 3, -10 ** 30) == list(range(1, 6))


def test_profile_match_rejects_letter_outside_alphabet():
    with pytest.raises(DomainError, match=r"text letter 'x' not in alphabet 'ab'"):
        profile_match(TOY, "abxab", 0)


@pytest.mark.parametrize("alphabet, text", [
    # letters below the smallest code point and above the largest
    ("cgt", "acgtzcg\u00e9\U0010ffff!"),
    ("\u00e9z\u8000", "\u00e9\u7fff\u8000\u8001za\U0001d11e"),
    # non-BMP letters
    ("a\U0001d11e\u00e9", "\U0001d11e\U0001d11d\U0001d11fa\u00e9e"),
    # an alphabet that holds U+10FFFF
    ("b\U0010ffff", "ab\U0010fffe\U0010ffff\uffffb"),
])
def test_columns_equal_alphabet_find(alphabet, text):
    tracemalloc.start()
    try:
        col = _columns(alphabet, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.dtype == np.int32
    assert col.tolist() == [alphabet.find(c) for c in text]
    # the lookup table spans the code points up to the alphabet's largest
    assert peak < 5_000_000


def test_scores_are_one_read_only_int64_matrix():
    prof = ScoringMatrix("ab", ((3, 0), (2, 5)))
    assert prof.scores.dtype == np.int64 and prof.scores.shape == (2, 2)
    assert prof.scores.tolist() == [[3, 0], [2, 5]]
    with pytest.raises(ValueError):
        prof.scores[0, 0] = 1
    assert prof == TOY == ScoringMatrix("ab", np.array([[3, 0], [2, 5]]))
    assert prof != ScoringMatrix("ba", ((3, 0), (2, 5)))
    assert prof != ScoringMatrix("ab", ((3, 0), (2, 4)))


def test_scoring_matrix_rejects_non_integer_scores():
    # int64 would truncate 1.5 to 1: profile_match would then miss
    # window 1, which the naive scorer reads as 1.5 + 1.5 = 3
    for rows in (((1.5, 0), (0, 1.5)), ((1.0, 0), (0, 1)), (("1", 0), (0, 1)),
                 ((None, 0), (0, 1)), np.array([[1.5, 0.0], [0.0, 1.5]])):
        with pytest.raises(DomainError, match="scores must be integers"):
            ScoringMatrix("ab", rows)


def test_scoring_matrix_rejects_scores_beyond_32_bits():
    for s in (2 ** 31, -2 ** 31, 2 ** 63, -2 ** 63, 2 ** 64, -2 ** 70, 10 ** 30):
        for rows in (((1, s), (0, 1)), ((-1, 0), (s, 1))):
            with pytest.raises(DomainError, match=f"score out of 32-bit range: {s}$"):
                ScoringMatrix("ab", rows)
    for table in (np.array([[1, 2 ** 63]], dtype=np.uint64),
                  np.array([[1, -2 ** 63]], dtype=np.int64)):
        with pytest.raises(DomainError, match="score out of 32-bit range"):
            ScoringMatrix("ab", table)
    edge = ScoringMatrix("ab", ((2 ** 31 - 1, 1 - 2 ** 31),))
    assert edge.scores.tolist() == [[2 ** 31 - 1, 1 - 2 ** 31]]


def test_scoring_matrix_rejects_bad_shapes():
    for rows in ((), ((1, 2), (3,)), ((1, 2, 3),), ((1,),), (1, 2)):
        with pytest.raises(DomainError):
            ScoringMatrix("ab", rows)



def test_profile_match_equals_naive_at_extreme_scores(rng):
    # scores at +-(2^31 - 1), so a loss in the flat penalty table is up
    # to 2^32 - 2; negative, huge and edge thresholds Z; 1-, 2- and
    # 300-letter alphabets, texts read off the heavy string so windows
    # mismatch it in few places
    top = (1 << 31) - 1
    alphabets = {"1": "a", "2": "ab", "300": "".join(chr(0x100 + c) for c in range(300))}
    seen = dict.fromkeys(["all", "some", "none"] + list(alphabets), 0)
    for name, sigma in alphabets.items():
        for _ in range(40):
            m = rng.randint(1, 6)
            rows = tuple(tuple(rng.choice((top, -top, 0, rng.randint(-9, 9))) for _ in sigma)
                         for _ in range(m))
            prof = ScoringMatrix(sigma, rows)
            heavy = heavy_string(prof)
            text = "".join(c if rng.random() < 0.7 else rng.choice(sigma)
                           for c in heavy * rng.randint(1, 8))
            best = score(heavy, prof)
            windows = len(text) - m + 1
            for threshold in (best, best + 1, best - top, best - 2 * top, best - (top << 1) - 1,
                              -top * m, -top * m - 1, -1, 0, 10 ** 30, -10 ** 30):
                got = profile_match(prof, text, threshold)
                assert got == naive_profile_match(prof, text, threshold)
                seen[name] += 1
                seen["all" if len(got) == windows else "none" if not got else "some"] += 1
    assert all(seen.values()), seen
