"""Definition-level brute-force oracles.

Each function is a direct transcription of the matching definition,
kept deliberately naive; the optimized solvers are tested against
these, and `um --algo naive` runs them.  They call no fast matcher,
index or solver, so a fault there cannot show up in both; their solid
strings come from `weighted.solid_prefix_walk`, which reads only
`sorted_rows` and calls none either.  All probability arithmetic stays
in the shared NegLog fixed-point domain so comparisons are bit-exact.
"""

from __future__ import annotations

from . import neglog
from .capacity import check_enumeration
from .profile import ScoringMatrix, score
from .weighted import ProbThreshold, WeightedSequence, solid_prefix_walk


def naive_profile_match(profile: ScoringMatrix, text: str, threshold: int) -> list[int]:
    """Per-window score summation, O(nm)."""
    m, n = profile.m, len(text)
    return [
        p for p in range(1, n - m + 2)
        if score(text[p - 1: p + m - 1], profile) >= threshold
    ]


def naive_wpm(pattern: str, text: WeightedSequence, z: ProbThreshold) -> list[int]:
    """Per-window NegLog summation against the occurrence definition.

    Sums are clamped as in `match_neglog`, so at z = inf (1/z = 0) every
    window matches, and at finite z a probability-0 letter never does.
    """
    m, n = len(pattern), text.n
    occ = []
    for p in range(1, n - m + 2):
        total = 0
        for i, c in enumerate(pattern, start=1):
            total += text.letter_units(p + i - 1, c)
        if neglog.clamp(total) <= z.units:
            occ.append(p)
    return occ


def enumerate_solid_strings(x: WeightedSequence, z: ProbThreshold) -> list[tuple[str, int]]:
    """All strings matching `x` with probability >= 1/z, with their units:
    the full-length maximal prefixes of `solid_prefix_walk`, in its order."""
    check_enumeration(z.display, "enumerate_solid_strings")
    n = x.n
    return [(s, u) for s, u in solid_prefix_walk(x, z) if len(s) == n]


def naive_consensus(x: WeightedSequence, y: WeightedSequence, z: ProbThreshold) -> str | None:
    """First string (in enumeration order) solid in both sequences, or None."""
    solid_in_y = {s for s, _ in enumerate_solid_strings(y, z)}
    for s, _ in enumerate_solid_strings(x, z):
        if s in solid_in_y:
            return s
    return None


def naive_gwpm(pattern: WeightedSequence, text: WeightedSequence,
               z: ProbThreshold) -> dict[int, str]:
    """Per-window consensus against the general matching definition.

    Position p (1-based) occurs when some string matches both the
    pattern and the window text[p..p+m-1]; it maps to that window's
    `naive_consensus`, in position order.  z past the enumeration guard
    is refused before any window, so also where there is none.
    """
    check_enumeration(z.display, "naive_gwpm")
    m = pattern.n
    occ = {}
    for p in range(1, text.n - m + 2):
        witness = naive_consensus(pattern, text.factor(p, p + m - 1), z)
        if witness is not None:
            occ[p] = witness
    return occ


def hamming(a: str, b: str) -> int:
    if len(a) != len(b):
        raise ValueError("hamming distance needs equal lengths")
    return sum(1 for x, y in zip(a, b) if x != y)
