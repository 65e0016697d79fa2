"""Scoring-matrix (profile) model and the lookahead-scoring matcher.

A profile assigns an integer score to every letter at every position;
a window of text matches when its score sum reaches the threshold.
The matcher starts every window at the heavy string's score and walks
all windows together through their mismatches with the heavy string,
one batched lcp query per live window and round, abandoning a window
as soon as its running score falls below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
from .lcp import _encode, build_cross_index, mismatch_walk

_SCORE_LIMIT = 1 << 31  # per-entry scores are 32-bit; window sums fit in 64


@dataclass(frozen=True)
class ScoringMatrix:
    """m x sigma table of signed integer scores."""

    alphabet: str
    scores: tuple[tuple[int, ...], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.scores) == 0:
            raise DomainError("scoring matrix must have at least one row")
        sigma = len(self.alphabet)
        if len(set(self.alphabet)) != sigma or sigma == 0:
            raise DomainError("alphabet must be a nonempty set of distinct letters")
        for row in self.scores:
            if len(row) != sigma:
                raise DomainError("every row must have one score per alphabet letter")
            for s in row:
                if abs(s) >= _SCORE_LIMIT:
                    raise DomainError(f"score out of 32-bit range: {s}")
        object.__setattr__(self, "_index", {c: k for k, c in enumerate(self.alphabet)})

    @property
    def m(self) -> int:
        return len(self.scores)

    def entry(self, i: int, letter: str) -> int:
        """Score of `letter` at 1-based position `i`."""
        try:
            return self.scores[i - 1][self._index[letter]]
        except KeyError:
            raise DomainError(f"letter {letter!r} not in alphabet {self.alphabet!r}") from None


def score(s: str, profile: ScoringMatrix) -> int:
    """Sum of per-position scores of the string under the profile."""
    if len(s) != profile.m:
        raise DomainError(f"string length {len(s)} != profile length {profile.m}")
    return sum(profile.entry(i, c) for i, c in enumerate(s, start=1))


def heavy_string(profile: ScoringMatrix) -> str:
    """Per-position highest-scoring letter; ties go to the smallest alphabet index."""
    out = []
    for row in profile.scores:
        best = max(range(len(row)), key=lambda k: (row[k], -k))
        out.append(profile.alphabet[best])
    return "".join(out)


def profile_match(profile: ScoringMatrix, text: str, threshold: int) -> list[int]:
    """All 1-based positions whose window scores at least `threshold`.

    Lookahead scan: every window starts at the heavy string's score and
    loses score only at its mismatches with it.  In batched kangaroo
    rounds (`mismatch_walk`) every live window finds its next mismatch
    with one lcp query, loses its score there in one gather, and is
    dropped below the threshold: at most floor(log2 M) + 1 queries per
    window, M = `count_matching_strings`.
    """
    m, n = profile.m, len(text)
    if m > n:
        return []
    col = _columns(profile.alphabet, text)
    scores = np.array(profile.scores, dtype=np.int64)
    best = scores.max(axis=1)
    # window score = heavy score - losses; a loss sum stays below
    # m * 2^32, so capping the slack keeps a huge threshold exact
    slack = int(best.sum()) - threshold
    if slack < 0:
        return []
    slack = min(slack, 1 << 62)
    idx = build_cross_index(heavy_string(profile), text)
    loss = np.zeros(n - m + 1, dtype=np.int64)

    def step(w, f):
        loss[w] += best[f] - scores[f, col[w + f]]
        return loss[w] <= slack

    return (mismatch_walk(idx, np.arange(n - m + 1), step) + 1).tolist()


def _columns(alphabet: str, text: str) -> np.ndarray:
    """int32 column in `alphabet` of every letter of `text`."""
    codes = _encode(text)
    letters = _encode(alphabet)
    order = np.argsort(letters)
    col = order[np.minimum(np.searchsorted(letters, codes, sorter=order), len(letters) - 1)]
    bad = letters[col] != codes
    if bad.any():
        c = text[int(bad.argmax())]
        raise DomainError(f"text letter {c!r} not in alphabet {alphabet!r}")
    return col.astype(np.int32)


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
    for row in profile.scores:
        nxt: dict[int, int] = {}
        for total, cnt in counts.items():
            for sc in row:
                key = total + sc
                nxt[key] = nxt.get(key, 0) + cnt
        counts = nxt
    return sum(cnt for total, cnt in counts.items() if total >= threshold)
