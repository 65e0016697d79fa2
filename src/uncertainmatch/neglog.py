"""Fixed-point negative-log-probability arithmetic.

Probabilities are stored as integer counts of 2**-32 units of
-log2(p).  Multiplying probabilities becomes exact integer addition,
so every solver and every brute-force oracle in this package computes
in the same domain and equivalence checks are bit-exact.

Probability 0 is the sentinel ``INF``.  Sums involving ``INF`` stay
astronomically large compared to any threshold reachable at desk
scale, so plain integer addition is safe; ``is_inf`` draws the line.
"""

from __future__ import annotations

import math

import numpy as np

FRACTION_BITS = 32
SCALE = 1 << FRACTION_BITS

# Probability-0 sentinel.  Any sum that includes it stays far above
# every representable threshold (thresholds fit well below 2**56).
INF = 1 << 62

# Values at or above this are treated as "probability 0" when
# clamping results for display; intermediate sums may exceed INF.
_INF_FLOOR = 1 << 61


def from_probabilities(p) -> np.ndarray:
    """Convert an array of probabilities in [0, 1] to NegLog units.

    The package's one conversion: -log2(p) * 2**32 rounded half to
    even (``np.rint``), so dyadic probabilities (1, 1/2, 3/4, ...)
    convert without any rounding error; probability 0 becomes ``INF``.
    Returns an int64 array of the same shape.
    """
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"probability out of range: {p[bad].flat[0]}")
    alive = p > 0.0
    units = np.rint(-np.log2(np.where(alive, p, 1.0)) * SCALE)
    return np.where(alive, units.astype(np.int64), INF)


def from_probability(p: float) -> int:
    """NegLog units of one probability, by :func:`from_probabilities`."""
    return int(from_probabilities(p))


def to_probability(units: int) -> float:
    """Inverse of :func:`from_probability` (up to rounding)."""
    if is_inf(units):
        return 0.0
    return 2.0 ** (-units / SCALE)


def from_z(z: float) -> int:
    """Units of log2(z) for a threshold probability 1/z (z >= 1)."""
    if z < 1:
        raise ValueError(f"threshold z must be >= 1, got {z}")
    return round(math.log2(z) * SCALE)


def is_inf(units: int) -> bool:
    return units >= _INF_FLOOR


def clamp(units: int) -> int:
    """Normalize any probability-0 representation to the INF sentinel."""
    return INF if is_inf(units) else units
