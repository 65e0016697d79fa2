"""Explicit enumeration, memory and magnitude guards.

Brute-force oracles refuse instances whose search space exceeds
``ENUMERATION_LIMIT`` choices, a meet-in-the-middle search refuses to
grow its lists, both orientations together, past ``PREFIX_ROW_LIMIT``
rows, and parsers reject magnitudes that could make 64-bit window sums
overflow.
"""

from __future__ import annotations

from .errors import CapacityError

ENUMERATION_LIMIT = 1 << 20

# Rows that the prefix and suffix lists of a knapsack search may hold,
# counting both oriented searches, which run in lock-step.  A row takes
# 16 bytes while the lists grow (a value and its position in the step's
# candidate array: 64 MiB at the limit) and 8 more at the join, which
# builds the weights (96 MiB in all).  Each step's candidate arrays come
# on top: growing a list to `target` rows from a class of lambda items
# takes about H(lambda) * target entries (H the harmonic number) for
# item ranks, rows of the previous list, values and their order.
# `um knapsack` on 10-12 anti-correlated classes of 30-60 items
# (x, 2**20 - x), x distinct, with V the x sum of a planted choice and
# W = n 2**20 - V, and on their NO twins (items doubled, thresholds
# 2V + 1 and 2W - 1), runs into this guard (exit 2) at a peak of
# 153-188 MB RSS under `mim` and `k=1` (CPython 3.11, numpy 2.4, x86-64
# Linux; `anti_correlated` in tests/conftest.py builds them).  The
# Lagrangian bounds of `knapsack.decide` leave these instances; they
# answer `um gen --kind mck` ones of the same sizes before any search.
# Apart from the tests that run a search into this guard, the test
# suite peaks near 3.6 * 10**5 rows and the mck-solve benchmark jobs
# near 9 * 10**4.
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
