"""Weighted sequences (PWMs) under fixed-point log-probabilities.

A weighted sequence of length n over an alphabet of sigma letters is
one read-only n x sigma int64 matrix `units`: entry [i, c] holds the
NegLog units of letter `alphabet[c]` at 0-based position i, and
`neglog.INF` marks a letter of probability 0.  A string matches a
weighted fragment when its per-position units sum to at most the
threshold's units.  All arithmetic is exact integer addition, so the
matchers and their brute-force oracles agree bit for bit.

Pruning, the heavy string and the matchers' penalty lookups are numpy
operations on that matrix.  `rows` (per position, a letter -> units
dict of the letters present, in alphabet order) and `sorted_rows` (the
same pairs by units, ties in alphabet order) are views derived on
first use, for the small-instance solvers and oracles.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import neglog
from .capacity import check_enumeration
from .errors import DomainError
from .lcp import EMPTY_ROW_FILLER, build_cross_index, mismatch_walk
from .profile import _columns, _read_only, _row, check_alphabet

ROW_SUM_SLACK = 1e-6


@dataclass(frozen=True)
class ProbThreshold:
    """Threshold probability 1/z stored as units of log2(z)."""

    units: int
    display: float

    @classmethod
    def from_z(cls, z: float) -> "ProbThreshold":
        if z != z or z < 1:
            raise DomainError(f"threshold z must be >= 1, got {z}")
        if math.isinf(z):
            return cls(units=neglog.INF, display=math.inf)
        return cls(units=neglog.from_z(z), display=float(z))

    @property
    def log2_floor(self) -> int:
        """floor(log2 z), the mismatch budget of the lookahead matchers."""
        if math.isinf(self.display):
            raise DomainError("floor(log2 z) undefined for the infinite threshold")
        return self.units >> neglog.FRACTION_BITS


class WeightedSequence:
    """Immutable n x sigma matrix of NegLog units, one column per letter.

    Built from per-position letter -> units mappings; `from_units` wraps
    a matrix directly.  `probs`, when not None, is the n x sigma matrix
    of decimal probabilities the sequence was converted from (see
    `from_probabilities`), kept for lossless serialization.
    """

    def __init__(self, alphabet: str, rows):
        check_alphabet(alphabet)
        units = np.array(_table(alphabet, rows, neglog.INF), dtype=np.int64)
        units = units.reshape(-1, len(alphabet))
        self._set(alphabet, np.where(neglog.is_inf(units), neglog.INF, units), None)

    @classmethod
    def from_units(cls, alphabet: str, units: np.ndarray, probs: np.ndarray | None = None):
        """Wrap an n x len(alphabet) int64 units matrix.

        An absent letter must hold exactly `neglog.INF`; `probs`, if
        given, is the probability matrix the units were converted from.
        """
        check_alphabet(alphabet)
        units = np.asarray(units, dtype=np.int64)
        if units.ndim != 2 or units.shape[1] != len(alphabet):
            raise DomainError(f"units matrix of shape {units.shape} for alphabet {alphabet!r}")
        x = cls.__new__(cls)
        x._set(alphabet, units, probs)
        return x

    def _set(self, alphabet, units, probs):
        self.alphabet = alphabet
        self.units = _read_only(units)
        self.probs = None if probs is None else _read_only(probs)

    @property
    def n(self) -> int:
        return self.units.shape[0]

    @cached_property
    def rows(self) -> tuple[dict[str, int], ...]:
        """Per position, letter -> units of the letters present."""
        alphabet, inf = self.alphabet, neglog.INF
        return tuple(
            {alphabet[k]: u for k, u in enumerate(line) if u < inf}
            for line in self.units.tolist()
        )

    @cached_property
    def sorted_rows(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        """Per position, (letter, units) pairs by units, ties in alphabet order."""
        return tuple(tuple(sorted(row.items(), key=lambda kv: kv[1])) for row in self.rows)

    @property
    def lam(self) -> int:
        """Maximum number of letters at a single position."""
        return int((self.units < neglog.INF).sum(axis=1).max(initial=0))

    @property
    def total_size(self) -> int:
        """Total list-representation size (R)."""
        return int((self.units < neglog.INF).sum())

    def letter_units(self, i: int, letter: str) -> int:
        """NegLog units of `letter` at 1-based position `i` (INF if absent)."""
        row = _row(self.units, i)
        k = self.alphabet.find(letter) if len(letter) == 1 else -1
        return neglog.INF if k < 0 else int(row[k])

    def heavy(self, i: int) -> str:
        """Most probable letter at 1-based position `i`; ties by alphabet order."""
        row = _row(self.units, i)
        k = int(row.argmin())
        if row[k] >= neglog.INF:
            raise DomainError(f"position {i} has no letters with nonzero probability")
        return self.alphabet[k]

    def factor(self, i: int, j: int) -> "WeightedSequence":
        """The weighted factor spanning 1-based positions i..j, 1 <= i <= j <= n."""
        if not 1 <= i <= j <= self.n:
            raise DomainError(f"factor {i}..{j} outside 1..{self.n}")
        return WeightedSequence.from_units(self.alphabet, self.units[i - 1: j])

    def __eq__(self, other):
        return isinstance(other, WeightedSequence) and self.alphabet == other.alphabet \
            and np.array_equal(self.units, other.units)

    def __repr__(self):
        return f"WeightedSequence(n={self.n}, alphabet={self.alphabet!r})"


def _table(alphabet: str, rows, absent) -> list:
    """Rows as lists in alphabet order.  A mapping row (letter -> value)
    leaves its missing letters at `absent`; any other row must already
    list one value per letter."""
    column = {c: k for k, c in enumerate(alphabet)}
    table = []
    for idx, row in enumerate(rows, start=1):
        if isinstance(row, Mapping):
            line = [absent] * len(alphabet)
            for letter, value in row.items():
                k = column.get(letter)
                if k is None:
                    raise DomainError(f"letter {letter!r} not in alphabet {alphabet!r}")
                line[k] = value
            row = line
        elif len(row) != len(alphabet):
            raise DomainError(f"row {idx}: expected {len(alphabet)} values, got {len(row)}")
        table.append(row)
    return table


def first_invalid_row(probs: np.ndarray) -> tuple[int, str] | None:
    """The first 0-based row of an n x sigma probability matrix that is
    not a sub-distribution, and why; None when every row is one.

    A row is one when every entry lies in [0, 1] and the entries, added
    left to right, sum to at most 1 (plus rounding slack).
    """
    entry_bad = ~((probs >= 0.0) & (probs <= 1.0))
    total = np.zeros(len(probs))
    for c in range(probs.shape[1]):
        total += probs[:, c]
    bad = entry_bad.any(axis=1) | (total > 1.0 + ROW_SUM_SLACK)
    if not bad.any():
        return None
    r = int(bad.argmax())
    if entry_bad[r].any():
        p = float(probs[r, entry_bad[r].argmax()])
        return r, f"probability {p} outside [0, 1]"
    return r, f"probabilities sum to {float(total[r])} > 1"


def from_probabilities(alphabet: str, rows) -> WeightedSequence:
    """Build a weighted sequence from decimal probability rows.

    `rows` is an n x sigma array, or a sequence of rows each either a
    mapping letter -> probability or a sequence of probabilities in
    alphabet order.  Zero entries mean absent letters; rows must sum to
    at most 1 (plus rounding slack).  The whole matrix goes through one
    `neglog.from_probabilities` call.
    """
    check_alphabet(alphabet)
    sigma = len(alphabet)
    if not isinstance(rows, np.ndarray):
        rows = np.array(_table(alphabet, rows, 0.0), dtype=np.float64).reshape(-1, sigma)
    probs = np.asarray(rows, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != sigma:
        raise DomainError(f"probability matrix of shape {probs.shape} for alphabet {alphabet!r}")
    bad = first_invalid_row(probs)
    if bad is not None:
        raise DomainError(f"row {bad[0] + 1}: {bad[1]}")
    return WeightedSequence.from_units(alphabet, neglog.from_probabilities(probs), probs)


def prune(x: WeightedSequence, z: ProbThreshold) -> WeightedSequence:
    """Drop letters with probability below 1/z; guarantees lambda <= z."""
    return WeightedSequence.from_units(
        x.alphabet, np.where(x.units <= z.units, x.units, neglog.INF)
    )


def heavy_string(x: WeightedSequence) -> str:
    """Per-position most probable letter (requires every row nonempty)."""
    heavy, units = _heavy_with_filler(x)
    empty = np.nonzero(units >= neglog.INF)[0]
    if len(empty):
        raise DomainError(f"position {empty[0] + 1} has no letters with nonzero probability")
    return heavy


def match_neglog(s: str, x: WeightedSequence) -> int:
    """NegLog units of the matching probability of `s` with `x`."""
    if len(s) != x.n:
        raise DomainError(f"string length {len(s)} != sequence length {x.n}")
    total = 0
    for i, c in enumerate(s, start=1):
        total += x.letter_units(i, c)
    return neglog.clamp(total)


def _heavy_with_filler(t: WeightedSequence) -> tuple[str, np.ndarray]:
    """Heavy string and its units; empty rows get an unmatchable filler
    letter and INF.  Ties go to the first letter in alphabet order."""
    cols = t.units.argmin(axis=1)
    units = np.take_along_axis(t.units, cols[:, None], axis=1)[:, 0]
    cols[units >= neglog.INF] = len(t.alphabet)
    # one decode of the letters' UCS-4 bytes, a lone surrogate letter included
    letters = np.array(list(t.alphabet + EMPTY_ROW_FILLER), dtype="<U1")
    return letters[cols].tobytes().decode("utf-32-le", "surrogatepass"), units


def wpm(pattern: str, text: WeightedSequence, z: ProbThreshold) -> list[int]:
    """Occurrences of a solid pattern in a weighted text above 1/z.

    Lookahead scan over the text's heavy string: a window's units start
    at its heavy units and grow only at its mismatches with the
    pattern.  Windows already below 1/z are dropped at once; the rest
    walk together in batched kangaroo rounds (`mismatch_walk`): each
    round finds every live window's next mismatch with one lcp query,
    adds its penalty in one gather and drops the windows that fell
    below 1/z, so each window takes at most floor(log2 z) + 1 queries.
    At z = inf every window matches.
    """
    m, n = len(pattern), text.n
    if m == 0:
        raise DomainError("empty pattern")
    if m > n:
        return []
    z_units = z.units
    if z_units >= neglog.INF:
        # 1/z = 0: every string matches every window
        return list(range(1, n - m + 2))
    heavy, hu = _heavy_with_filler(text)
    inf = neglog.INF
    # every sum is saturated at cap: a sum past z stays past z, and an
    # empty (INF) heavy row sinks its window
    cap = z_units + 1
    c = np.concatenate(([0], np.cumsum(np.minimum(hu, cap))))
    alphas = np.minimum(c[m:] - c[:-m], cap)
    cand = np.nonzero(alphas <= z_units)[0]
    if not len(cand):
        return []
    ap = alphas[cand]
    # column of each pattern letter; -1 (read as INF) if not in the alphabet
    cols = _columns(text.alphabet, pattern)

    def step(w, f):
        j = cand[w] + f
        pen = np.where(cols[f] >= 0, text.units[j, cols[f]], inf) - hu[j]
        ap[w] += np.minimum(pen, cap - ap[w])
        return ap[w] <= z_units

    idx = build_cross_index(pattern, heavy)
    return (cand[mismatch_walk(idx, cand, step)] + 1).tolist()


def solid_prefix_walk(x: WeightedSequence, z: ProbThreshold) -> Iterator[tuple[str, int]]:
    """Yield each maximal 1/z-solid prefix of `x` with its units.

    A prefix is maximal when no single-letter extension keeps the
    matching probability at or above 1/z, so the full-length ones are
    exactly the strings that match `x`.  Depth first, letters in
    `sorted_rows` order at each position; the stack holds one letter
    iterator per position, so any length runs without recursion.  The
    caller bounds z by the enumeration guard.
    """
    n, rows, limit = x.n, x.sorted_rows, z.units
    prefix: list[str] = []
    units = [0]  # units[i]: the units of prefix[:i]
    extended = [False]  # extended[i]: prefix[:i] has a solid extension
    stack = [iter(rows[0] if n else ())]
    while stack:
        i = len(stack) - 1
        for letter, u in stack[-1]:
            if units[i] + u <= limit:
                break
        else:  # position i is exhausted: yield a maximal prefix, step back
            stack.pop()
            if not extended.pop():
                yield "".join(prefix), units[i]
            if prefix:
                prefix.pop()
                units.pop()
            continue
        extended[i] = True
        if i + 1 == n:
            yield "".join(prefix) + letter, units[i] + u
        else:
            prefix.append(letter)
            units.append(units[i] + u)
            extended.append(False)
            stack.append(iter(rows[i + 1]))


def maximal_solid_prefixes(x: WeightedSequence, z: ProbThreshold) -> list[str]:
    """All maximal 1/z-solid prefixes, in `solid_prefix_walk` order.

    There are at most z of them; z past the enumeration guard is refused.
    """
    check_enumeration(z.display, "maximal_solid_prefixes")
    return [s for s, _ in solid_prefix_walk(x, z)]
