import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertainmatch import io, neglog
from uncertainmatch.errors import CapacityError, DomainError
from uncertainmatch.profile import ScoringMatrix
from uncertainmatch.profile import heavy_string as profile_heavy_string
from uncertainmatch.reference import enumerate_solid_strings, hamming, naive_wpm
from uncertainmatch.weighted import (
    ProbThreshold,
    WeightedSequence,
    _heavy_with_filler,
    from_probabilities,
    heavy_string,
    match_neglog,
    maximal_solid_prefixes,
    prune,
    wpm,
)

from conftest import random_string, random_weighted


def fig_sequence():
    """The running four-position example: many strings, two of them maximal."""
    return from_probabilities(
        "ab", [{"a": 0.5, "b": 0.5}, {"a": 1.0}, {"a": 0.75, "b": 0.25}, {"b": 1.0}]
    )


def test_neglog_dyadic_exact():
    assert neglog.from_probability(1.0) == 0
    assert neglog.from_probability(0.5) == 1 << 32
    assert neglog.from_probability(0.25) == 2 << 32
    assert neglog.from_probability(0.75) == round(-math.log2(0.75) * (1 << 32))
    assert neglog.from_probability(0.0) == neglog.INF


def definition_units(p: float) -> int:
    """-log2(p) * 2**32 rounded half to even, in Python floats; INF for 0."""
    return neglog.INF if p == 0.0 else max(round(-math.log2(p) * neglog.SCALE), 0)


def test_conversion_bit_exact_on_a_million_probabilities():
    rng = np.random.default_rng(20261018)
    probs = np.concatenate([
        rng.random(400_000),  # uniform in [0, 1)
        rng.integers(0, 1_000_001, 400_000) / 1e6,  # the generator's 1e-6 grid
        np.ldexp(rng.integers(1, 1 << 20, 200_000), -20),  # dyadic
        np.ldexp(1.0, -np.arange(1075)),  # every power of two down to 5e-324
        [1e-300, 5e-324, 0.0, 1.0, 0.5, 0.75],
    ])
    assert len(probs) >= 1_000_000
    got = neglog.from_probabilities(probs)
    assert got.dtype == np.int64
    assert got.tolist() == [definition_units(p) for p in probs.tolist()]
    for p in (1e-300, 5e-324, 0.0, 1.0, 0.375):
        assert neglog.from_probability(p) == definition_units(p)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=1000, deadline=None)
def test_conversion_scalar_equals_vector(p):
    want = definition_units(p)
    assert neglog.from_probability(p) == want
    assert neglog.from_probabilities(np.array([p, 1.0, 0.0])).tolist() == [want, 0, neglog.INF]


def test_conversion_rejects_out_of_range():
    for bad in (-1e-9, 1.0000001, math.nan, math.inf):
        with pytest.raises(ValueError):
            neglog.from_probability(bad)
        with pytest.raises(ValueError):
            neglog.from_probabilities(np.array([0.5, bad]))


def noisy_pwm_text(rng: random.Random, n: int, sigma: str) -> tuple[str, list[list[float]]]:
    """A PWM text with comments, blank lines, all-zero rows, zero entries
    and equal-probability ties; also returns its probability rows."""
    rows = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            row = [0.0] * len(sigma)
        elif kind < 0.3:  # a tie between two or more letters
            k = rng.randint(2, len(sigma))
            chosen = set(rng.sample(range(len(sigma)), k))
            row = [round(1.0 / k, 6) if c in chosen else 0.0 for c in range(len(sigma))]
        else:
            raw = [rng.random() if rng.random() < 0.7 else 0.0 for _ in sigma]
            total = sum(raw) or 1.0
            row = [math.floor(x / total * 1e6) / 1e6 for x in raw]
        rows.append(row)
    lines = ["# a generated PWM", "", f"PWM {n} {sigma}"]
    for row in rows:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment", "   "]))
        lines.append(" ".join(repr(p) for p in row))
    return "\n".join(lines) + "\n", rows


def test_parsed_matrix_equals_dict_built_sequence():
    rng = random.Random(1729)
    for trial in range(40):
        sigma = rng.choice(["ab", "acgt", "xyzw1"])
        text, rows = noisy_pwm_text(rng, rng.randint(1, 60), sigma)
        parsed = io.parse_pwm(text)
        dict_rows = [{c: neglog.from_probability(p) for c, p in zip(sigma, row) if p > 0}
                     for row in rows]
        built = WeightedSequence(sigma, dict_rows)
        order = {c: k for k, c in enumerate(sigma)}
        assert parsed == built
        assert parsed.rows == built.rows == tuple(dict_rows)
        want_sorted = tuple(
            tuple(sorted(r.items(), key=lambda kv: (kv[1], order[kv[0]]))) for r in dict_rows
        )
        assert parsed.sorted_rows == built.sorted_rows == want_sorted
        assert parsed.lam == built.lam == max(len(r) for r in dict_rows)
        assert parsed.total_size == built.total_size == sum(len(r) for r in dict_rows)
        heavy = "".join(r[0][0] if r else "\x01" for r in want_sorted)
        assert _heavy_with_filler(parsed)[0] == heavy
        if all(dict_rows):
            assert heavy_string(parsed) == heavy_string(built) == heavy
        else:
            with pytest.raises(DomainError):
                heavy_string(parsed)
        for z in (1, 2, 3, 16, 2 ** 20, math.inf):
            zt = ProbThreshold.from_z(z)
            pruned = prune(parsed, zt)
            assert pruned == prune(built, zt)
            assert pruned.rows == tuple(
                {c: u for c, u in r.items() if u <= zt.units} for r in dict_rows
            )
        assert io.serialize_pwm(parsed) == io.serialize_pwm(from_probabilities(sigma, rows))


def test_units_matrix_is_read_only():
    x = fig_sequence()
    with pytest.raises(ValueError):
        x.units[0, 0] = 0
    with pytest.raises(ValueError):
        x.probs[0, 0] = 0.0
    assert x.units.dtype == np.int64 and x.units.shape == (4, 2)
    assert x.units[1].tolist() == [0, neglog.INF]


def test_serialize_falls_back_without_probabilities():
    x = fig_sequence()
    assert x.probs is not None
    for derived in (prune(x, ProbThreshold.from_z(2)), x.factor(2, 3)):
        assert derived.probs is None
        want = [[neglog.to_probability(derived.letter_units(i, c)) for c in "ab"]
                for i in range(1, derived.n + 1)]
        lines = io.serialize_pwm(derived).splitlines()
        assert lines[0] == f"PWM {derived.n} ab"
        assert [[float(t) for t in line.split()] for line in lines[1:]] == want


def test_from_probabilities_shape():
    x = fig_sequence()
    assert x.n == 4
    assert x.lam == 2
    assert x.total_size == 6


def test_from_probabilities_rejects():
    with pytest.raises(DomainError):
        from_probabilities("ab", [{"a": -0.1}])
    with pytest.raises(DomainError):
        from_probabilities("ab", [{"a": 0.7, "b": 0.7}])


def test_prune():
    x = fig_sequence()
    z2 = ProbThreshold.from_z(2)
    pruned = prune(x, z2)
    assert "b" not in pruned.rows[2]  # 1/4 < 1/2
    assert "a" in pruned.rows[2]
    z1 = ProbThreshold.from_z(1)
    assert [set(r) for r in prune(x, z1).rows] == [set(), {"a"}, set(), {"b"}]
    zinf = ProbThreshold.from_z(math.inf)
    assert prune(x, zinf) == x


def test_heavy_string_tie_break():
    assert heavy_string(fig_sequence()) == "aaab"


@pytest.mark.parametrize("alphabet", ["acgt", "aé𝄞", "\U000dbfce一z", "a\ud800"])
def test_heavy_strings_equal_the_joined_letters(alphabet):
    # one decode of the UCS-4 letter array gives what joining one string
    # per position gave: letters past the BMP, a lone surrogate, and the
    # filler letter of an empty row
    rng = np.random.default_rng(len(alphabet))
    units = rng.integers(0, 40, (300, len(alphabet)))
    units[rng.random(units.shape) < 0.3] = neglog.INF
    units[::7] = neglog.INF  # every 7th row is empty
    x = WeightedSequence.from_units(alphabet, units)
    letters = np.array(list(alphabet + "\x01"))
    cols = np.where(units.min(axis=1) >= neglog.INF, len(alphabet), units.argmin(axis=1))
    heavy = _heavy_with_filler(x)[0]
    assert heavy == "".join(letters[cols].tolist())
    assert "\x01" in heavy and len(heavy) == 300
    scores = rng.integers(-50, 50, (300, len(alphabet)))
    assert profile_heavy_string(ScoringMatrix(alphabet, scores)) == \
        "".join(letters[scores.argmax(axis=1)].tolist())


def test_match_neglog_values():
    x = fig_sequence()
    assert match_neglog("aaab", x) == neglog.from_probability(0.375)
    assert match_neglog("abab", x) == neglog.INF
    ones = from_probabilities("ab", [{"a": 1.0}, {"b": 1.0}])
    assert match_neglog("ab", ones) == 0
    with pytest.raises(DomainError):
        match_neglog("a", x)


def test_wpm_fig_examples():
    x = fig_sequence()
    assert wpm("aa", x, ProbThreshold.from_z(2)) == [1, 2]
    assert wpm("b", x, ProbThreshold.from_z(4)) == [1, 3, 4]
    assert wpm("c", from_probabilities("abc", [{"a": 1.0}]), ProbThreshold.from_z(4)) == []
    assert wpm("aaaaa", x, ProbThreshold.from_z(4)) == []  # longer than the text


def test_wpm_equals_naive(rng):
    for _ in range(300):
        n = rng.randint(1, 40)
        m = rng.randint(1, min(6, n))
        t = random_weighted(rng, n, allow_empty=True)
        pattern = random_string(rng, m)
        z = ProbThreshold.from_z(rng.choice([2, 4, 16, 256, 1024]))
        assert wpm(pattern, t, z) == naive_wpm(pattern, t, z)


def test_wpm_mismatch_bound(rng):
    for _ in range(100):
        n = rng.randint(2, 30)
        m = rng.randint(1, min(6, n))
        z = ProbThreshold.from_z(rng.choice([4, 16, 64]))
        t = prune(random_weighted(rng, n), z)
        pattern = random_string(rng, m)
        try:
            h = heavy_string(t)
        except DomainError:
            continue  # a row lost all letters; no occurrences possible anyway
        for p in wpm(pattern, t, z):
            assert hamming(pattern, h[p - 1: p + m - 1]) <= z.log2_floor


def test_maximal_solid_prefixes_fig():
    got = maximal_solid_prefixes(fig_sequence(), ProbThreshold.from_z(4))
    assert sorted(got) == ["aaab", "baab"]


def test_maximal_solid_prefixes_forced():
    x = from_probabilities("ab", [{"a": 1.0}, {"b": 1.0}])
    assert maximal_solid_prefixes(x, ProbThreshold.from_z(1)) == ["ab"]


def test_maximal_solid_prefixes_deep():
    # one solid string of 3,000 letters: the enumeration must not recurse per position
    x = from_probabilities("a", [{"a": 1.0}] * 3000)
    assert maximal_solid_prefixes(x, ProbThreshold.from_z(1)) == ["a" * 3000]
    assert enumerate_solid_strings(x, ProbThreshold.from_z(1)) == [("a" * 3000, 0)]


def test_maximal_solid_prefix_count_bound(rng):
    for _ in range(200):
        z = ProbThreshold.from_z(rng.choice([2, 4, 8, 32, 128]))
        x = random_weighted(rng, rng.randint(1, 8), allow_empty=True)
        assert len(maximal_solid_prefixes(x, z)) <= z.display


def test_solid_prefix_guard():
    x = fig_sequence()
    with pytest.raises(CapacityError):
        maximal_solid_prefixes(x, ProbThreshold.from_z(2.0 ** 40))


def tied_weighted(rng, n, alphabet):
    """A sequence whose rows often tie (small integer weights) and are sometimes empty."""
    rows = []
    for _ in range(n):
        letters = rng.sample(alphabet, rng.randint(rng.random() >= 0.2, len(alphabet)))
        weights = [rng.choice([1, 1, 2, 3]) for _ in letters]
        total = sum(weights) * rng.choice([1, 1, 1.5])
        rows.append({c: w / total for c, w in zip(letters, weights)})
    return from_probabilities(alphabet, rows)


def test_solid_enumerations_equal_their_definitions():
    # strings in lexicographic order of each position's letters by
    # `sorted_rows`, filtered by their matching units; maximal prefixes
    # are the solid ones with no solid one-letter extension
    rng = random.Random(20261020)
    zs = [ProbThreshold.from_z(z) for z in (1, 2, 8, 64)]
    for _ in range(150):
        n = rng.randint(0, 6)
        x = tied_weighted(rng, n, rng.choice(["ab", "ba", "acgt", "gtac", "tcag"]))
        ranked = [[c for c, _ in row] for row in x.sorted_rows]
        strings = ["".join(s) for s in itertools.product(*ranked)]
        units = {s: match_neglog(s, x) for s in strings}
        prefixes = [p for k in range(n + 1) for p in itertools.product(*ranked[:k])]
        prefix_units = {p: neglog.clamp(sum(x.rows[i][c] for i, c in enumerate(p)))
                        for p in prefixes}
        for z in zs:
            assert enumerate_solid_strings(x, z) == \
                [(s, units[s]) for s in strings if units[s] <= z.units]
            solid = {p for p in prefixes if prefix_units[p] <= z.units}
            maximal = [p for p in prefixes if p in solid and (
                len(p) == n or not any(p + (c,) in solid for c in ranked[len(p)]))]
            maximal.sort(key=lambda p: [ranked[i].index(c) for i, c in enumerate(p)])
            assert maximal_solid_prefixes(x, z) == ["".join(p) for p in maximal]


def test_enumerate_solid_strings_fig():
    got = dict(enumerate_solid_strings(fig_sequence(), ProbThreshold.from_z(4)))
    assert set(got) == {"aaab", "baab"}
    assert got["aaab"] == neglog.from_probability(0.375)
    assert got["baab"] == neglog.from_probability(0.375)


def fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def rows_with_heavy(rng, heavy, sigma):
    """Rows whose most probable letter follows `heavy`; some rows are
    certain (probability 1) and some empty (every letter 0)."""
    rows = []
    for h in heavy:
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3:
            rows.append({h: 1.0})
        else:
            p = rng.uniform(0.5, 0.95)
            others = [c for c in sigma if c != h]
            rows.append({h: p, rng.choice(others): 1.0 - p})
    return rows


def test_wpm_equals_naive_on_adversarial_texts(rng):
    # periodic heavy strings, a single window (m == n), z = inf, empty
    # rows and pattern letters outside the text alphabet
    zs = [ProbThreshold.from_z(z) for z in (1, 2, 16, 2 ** 10, 2.0 ** 40, math.inf)]
    for heavy in ("a" * 30, "ab" * 15, fibonacci_word(30), "ab", "a"):
        for _ in range(40):
            t = from_probabilities("abc", rows_with_heavy(rng, heavy, "abc"))
            n = len(heavy)
            m = rng.choice([1, 2, 3, 5, n])
            if m > n:
                continue
            start = rng.randrange(n - m + 1)
            pattern = rng.choice([heavy[start: start + m], random_string(rng, m, "abc"),
                                  random_string(rng, m, "abx")])
            for z in zs:
                assert wpm(pattern, t, z) == naive_wpm(pattern, t, z)


def test_wpm_infinite_threshold_with_empty_rows():
    # at z = inf (1/z = 0) every window matches, empty rows included
    t = from_probabilities("ab", [{"a": 1.0}, {}, {"a": 1.0}, {"a": 0.5, "b": 0.5}, {}, {}])
    z = ProbThreshold.from_z(math.inf)
    assert wpm("aa", t, z) == naive_wpm("aa", t, z) == [1, 2, 3, 4, 5]
    assert wpm("ab", t, z) == naive_wpm("ab", t, z)
    assert wpm("a", t, z) == naive_wpm("a", t, z) == [1, 2, 3, 4, 5, 6]
    assert wpm("aaa", t, z) == naive_wpm("aaa", t, z) == [1, 2, 3, 4]
    empty = from_probabilities("ab", [{}] * 8)
    assert wpm("aa", empty, z) == naive_wpm("aa", empty, z) == list(range(1, 8))
    assert wpm("x", empty, z) == naive_wpm("x", empty, z) == list(range(1, 9))


def test_positions_outside_one_to_n_refused():
    # position 0 and negative positions must not wrap to rows from the end
    profile = ScoringMatrix("ab", ((3, 0), (2, 5)))
    x = from_probabilities("ab", [{"a": 0.75, "b": 0.25}, {"b": 1.0}])
    assert [profile.entry(i, "b") for i in (1, 2)] == [0, 5]
    assert [x.heavy(i) for i in (1, 2)] == ["a", "b"]
    assert x.letter_units(2, "a") == neglog.INF
    for i in (0, -1, -2, 3, 10):
        with pytest.raises(DomainError, match="outside 1..2"):
            profile.entry(i, "a")
        with pytest.raises(DomainError, match="outside 1..2"):
            x.heavy(i)
        for letter in "ab?":
            with pytest.raises(DomainError, match="outside 1..2"):
                x.letter_units(i, letter)
    # nor may a factor be an empty or an overlong slice
    assert x.factor(1, 2) == x and x.factor(2, 2).heavy(1) == "b"
    for i, j in ((0, 1), (2, 1), (1, 3), (0, 0), (-1, 2), (3, 3), (2, 10)):
        with pytest.raises(DomainError, match="outside 1..2"):
            x.factor(i, j)
