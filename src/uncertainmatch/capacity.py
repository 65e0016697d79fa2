"""Explicit enumeration, memory and magnitude guards.

Brute-force oracles refuse instances whose search space exceeds
``ENUMERATION_LIMIT`` choices, a meet-in-the-middle search refuses to
grow its prefix lists past ``PREFIX_ROW_LIMIT`` rows, and parsers
reject magnitudes that could make 64-bit window sums overflow.
"""

from __future__ import annotations

from .errors import CapacityError

ENUMERATION_LIMIT = 1 << 20

# Rows of 32 bytes that the prefix lists of one knapsack search may
# hold (128 MiB).  The test suite peaks near 3 * 10**5 rows and the
# mck-solve benchmark jobs below 10**5.
PREFIX_ROW_LIMIT = 1 << 22

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
