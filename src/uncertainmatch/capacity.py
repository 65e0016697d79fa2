"""Explicit enumeration and magnitude guards.

Brute-force oracles refuse instances whose search space exceeds
``ENUMERATION_LIMIT`` choices, and parsers reject magnitudes that
could make 64-bit window sums overflow.
"""

from __future__ import annotations

from .errors import CapacityError

ENUMERATION_LIMIT = 1 << 20

# Magnitude bounds enforced at parse time: sums of up to 2**20 items
# of absolute value below 2**40 stay within 64 bits.
MAX_ABS_MAGNITUDE = 1 << 40
MAX_ITEMS = 1 << 20


def check_enumeration(size: int, what: str) -> None:
    if size > ENUMERATION_LIMIT:
        raise CapacityError(
            f"{what}: search space of {size} exceeds the enumeration "
            f"guard of {ENUMERATION_LIMIT}"
        )
