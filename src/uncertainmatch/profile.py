"""Scoring-matrix (profile) model and the lookahead-scoring matcher.

A profile assigns an integer score to every letter at every position;
a window of text matches when its score sum reaches the threshold.
The matcher starts every window at the heavy string's score and walks
all windows together through their mismatches with the heavy string,
one batched lcp query per live window and round, abandoning a window
as soon as its running score falls below the threshold.

A `ScoringMatrix` is one read-only m x sigma int64 array, the table
model `WeightedSequence` shares.  The one alphabet rule of both models
(`check_alphabet`) and their one letter -> column lookup (`_columns`)
live here.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import CapacityError, DomainError
from .lcp import EMPTY_ROW_FILLER, SEPARATOR, _encode, build_cross_index, mismatch_walk

_SCORE_LIMIT = 1 << 31  # per-entry scores are 32-bit; window sums fit in 64
# letters no alphabet may hold besides whitespace: the file formats'
# comment mark, the text index's separator and the empty-row filler
RESERVED = "#" + SEPARATOR + EMPTY_ROW_FILLER


def check_alphabet(alphabet: str) -> None:
    """The one alphabet rule of profiles, weighted sequences, their file
    formats and `um gen`: nonempty, distinct letters, none of them
    whitespace or `RESERVED`.  DomainError otherwise."""
    if not alphabet:
        raise DomainError("alphabet is empty")
    if len(set(alphabet)) != len(alphabet):
        raise DomainError(f"alphabet has repeated letters: {alphabet!r}")
    if any(c.isspace() or c in RESERVED for c in alphabet):
        raise DomainError("alphabet contains a reserved character")


def _columns(alphabet: str, text: str) -> np.ndarray:
    """int32 column in `alphabet` of every letter of `text`; -1 for a letter not in it."""
    letters = _encode(alphabet)
    # one table over the code points up to the alphabet's largest, plus
    # a -1 sentinel for every larger one; int32, not int64: on a
    # 30k-letter text the wider array raised the peak RSS of `um pm` by 0.6 MB
    top = int(letters.max()) + 1
    table = np.full(top + 1, -1, dtype=np.int32)
    table[letters] = np.arange(len(letters), dtype=np.int32)
    return table[np.minimum(_encode(text), top)]


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _row(table: np.ndarray, i: int) -> np.ndarray:
    """Row `i` (1-based) of `table`; DomainError outside 1..len(table)."""
    if not 1 <= i <= len(table):
        raise DomainError(f"position {i} outside 1..{len(table)}")
    return table[i - 1]


class ScoringMatrix:
    """m x sigma table of signed 32-bit integer scores.

    `scores` is one read-only int64 array: entry [i, c] is the score of
    letter `alphabet[c]` at 0-based position i.  Built from an integer
    array, or from m rows of sigma integers in alphabet order.
    """

    def __init__(self, alphabet: str, scores):
        if len(scores) == 0:
            raise DomainError("scoring matrix must have at least one row")
        check_alphabet(alphabet)
        # Python ints past int64 stay exact as objects until checked
        table = scores if isinstance(scores, np.ndarray) else np.array(scores, dtype=object)
        if table.ndim != 2 or table.shape[1] != len(alphabet):
            raise DomainError("every row must have one score per alphabet letter")
        if table.dtype.kind not in "iu" and not all(isinstance(s, Integral) for s in table.flat):
            raise DomainError("scores must be integers")
        bad = first_out_of_range(table)
        if bad is not None:
            raise DomainError(bad[1])
        self.alphabet = alphabet
        self.scores = _read_only(table.astype(np.int64))

    @property
    def m(self) -> int:
        return self.scores.shape[0]

    def entry(self, i: int, letter: str) -> int:
        """Score of `letter` at 1-based position `i`."""
        k = self.alphabet.find(letter) if len(letter) == 1 else -1
        if k < 0:
            raise DomainError(f"letter {letter!r} not in alphabet {self.alphabet!r}")
        return int(_row(self.scores, i)[k])

    def __eq__(self, other):
        return isinstance(other, ScoringMatrix) and self.alphabet == other.alphabet \
            and np.array_equal(self.scores, other.scores)

    def __repr__(self):
        return f"ScoringMatrix(m={self.m}, alphabet={self.alphabet!r})"


def first_out_of_range(scores: np.ndarray) -> tuple[int, str] | None:
    """The first 0-based row of an integer score table holding an entry
    outside the 32-bit range, and why; None when no row does."""
    bad = (scores >= _SCORE_LIMIT) | (scores <= -_SCORE_LIMIT)
    rows = bad.any(axis=1)
    if not rows.any():
        return None
    r = int(rows.argmax())
    return r, f"score out of 32-bit range: {scores[r][bad[r]][0]}"


def score(s: str, profile: ScoringMatrix) -> int:
    """Sum of per-position scores of the string under the profile."""
    if len(s) != profile.m:
        raise DomainError(f"string length {len(s)} != profile length {profile.m}")
    return sum(profile.entry(i, c) for i, c in enumerate(s, start=1))


def heavy_string(profile: ScoringMatrix) -> str:
    """Per-position highest-scoring letter; ties go to the smallest alphabet index."""
    letters = np.array(list(profile.alphabet))
    return "".join(letters[profile.scores.argmax(axis=1)].tolist())


def profile_match(profile: ScoringMatrix, text: str, threshold: int) -> list[int]:
    """All 1-based positions whose window scores at least `threshold`.

    Lookahead scan: every window starts at the heavy string's score and
    loses score only at its mismatches with it.  In batched kangaroo
    rounds (`mismatch_walk`) every live window finds its next mismatch
    with one lcp query, loses its score there in one gather from a flat
    penalty table (heavy score minus score, per offset and letter), and is
    dropped below the threshold: at most floor(log2 M) + 1 queries per
    window, M = `count_matching_strings`.
    """
    m, n = profile.m, len(text)
    if m > n:
        return []
    col = _columns(profile.alphabet, text)
    if (col < 0).any():
        c = text[int((col < 0).argmax())]
        raise DomainError(f"text letter {c!r} not in alphabet {profile.alphabet!r}")
    scores = profile.scores
    best = scores.max(axis=1)
    # window score = heavy score - losses; a loss sum stays below
    # m * 2^32, so capping the slack keeps a huge threshold exact
    slack = int(best.sum()) - threshold
    if slack < 0:
        return []
    slack = min(slack, 1 << 62)
    idx = build_cross_index(heavy_string(profile), text)
    loss = np.zeros(n - m + 1, dtype=np.int64)
    # the loss of letter c at offset f, flat at f * sigma + c
    penalty = (best[:, None] - scores).ravel()
    sigma = scores.shape[1]

    def step(w, f):
        lost = loss[w] + penalty[f * sigma + col[w + f]]
        loss[w] = lost
        return lost <= slack

    return (mismatch_walk(idx, np.arange(n - m + 1), step) + 1).tolist()


def count_matching_strings(profile: ScoringMatrix, threshold: int) -> int:
    """Exact number of strings scoring at least `threshold` (NumStrings)."""
    m, sigma = profile.m, len(profile.alphabet)
    limit = 1 << 24
    if sigma ** m > limit:
        raise CapacityError(
            f"count_matching_strings: {sigma}**{m} strings exceed the "
            f"enumeration guard of {limit}"
        )
    # exact DP over achievable score sums; equivalent to full enumeration
    counts: dict[int, int] = {0: 1}
    for row in profile.scores.tolist():
        nxt: dict[int, int] = {}
        for total, cnt in counts.items():
            for sc in row:
                key = total + sc
                nxt[key] = nxt.get(key, 0) + cnt
        counts = nxt
    return sum(cnt for total, cnt in counts.items() if total >= threshold)
