"""Shared random-instance builders for the test suite."""

import random

import pytest

from uncertainmatch import knapsack as K
from uncertainmatch.weighted import from_probabilities


def random_knapsack(rng, max_n=4, max_lam=4, v_hi=20, t_hi=40):
    n = rng.randint(1, max_n)
    classes = [
        [(rng.randint(0, v_hi), rng.randint(0, v_hi)) for _ in range(rng.randint(1, max_lam))]
        for _ in range(n)
    ]
    return K.make_instance(classes, rng.randint(0, t_hi), rng.randint(0, t_hi))


def random_rows(rng, n, sigma, allow_empty=False, deficit=False):
    rows = []
    for _ in range(n):
        k = rng.randint(0 if allow_empty else 1, len(sigma))
        letters = rng.sample(sigma, k)
        raw = [rng.random() for _ in letters]
        total = sum(raw) or 1.0
        if deficit:
            total /= min(1.0, rng.uniform(0.5, 1.0))
        rows.append({s: x / total for s, x in zip(letters, raw)})
    return rows


def random_weighted(rng, n, sigma="acgt", allow_empty=False, deficit=False):
    return from_probabilities(sigma, random_rows(rng, n, sigma, allow_empty, deficit))


def random_dissimilar(rng, n, z, sigma="acgt"):
    """An SDWC instance whose heavy strings differ everywhere."""
    from uncertainmatch.sdwc import SdwcInstance

    x = from_probabilities(sigma, random_rows(rng, n, sigma))
    rows_y = []
    for i in range(1, n + 1):
        hx = x.heavy(i)
        b = rng.choice([s for s in sigma if s != hx])
        others = [s for s in sigma if s != b and rng.random() < 0.7]
        weights = [rng.uniform(0.0, 0.4) for _ in others]
        total = 0.6 + sum(weights)
        row = {b: 0.6 / total}
        row.update({s: w / total for s, w in zip(others, weights)})
        rows_y.append(row)
    y = from_probabilities(sigma, rows_y)
    return SdwcInstance(x, y, z)


def random_string(rng, n, sigma="acgt"):
    return "".join(rng.choice(sigma) for _ in range(n))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def anti_correlated(rng, n, lam, top, twin=False):
    """n classes of lam items (x, top - x), x distinct and rising by slot, and a planted choice.

    V sums the planted x and W = n top - V, so exactly the choices whose
    x sum to V fit: no item holds both minima of its class, and the
    (1, 1) Lagrangian bound is tight.  Class 0 plants a middle item when
    lam >= 3, so the planted sum is neither the sum of the class minima
    (the first slots) nor of the maxima.  The NO twin doubles every item
    and takes 2V + 1 and 2W - 1, so a choice would need its x to sum to
    V + 1/2.
    """
    xs = [sorted(rng.sample(range(top), lam)) for _ in range(n)]
    V = xs[0][rng.randint(1, lam - 2) if lam >= 3 else 0] + sum(rng.choice(row) for row in xs[1:])
    f = 1 + twin
    return K.make_instance([[(f * x, f * (top - x)) for x in row] for row in xs],
                           f * V + twin, f * (n * top - V) - twin)


def large_class_instance(rng, kind):
    """One class of 730-800 items and 2-3 classes {(a, 0), (0, a)}.

    No item holds both minima of its class, so greedy commits nothing
    and lambda >= MERGE_LAMBDA_FLOOR is left, and the Lagrangian bounds
    leave every kind:
    - "yes": the large class holds items (x, C - x), and the thresholds
      sum the items of a planted choice, so every choice has v + w = V
      + W and exactly those of value V fit;
    - "no": its parity twin (items doubled, thresholds 2V + 1 and
      2W - 1);
    - "tight": the large class is five items (i, 1000 - i) and a row
      (10**6 + 3j, 990 - j), with thresholds just below its 10th value
      and 10th weight, where merging's rank test answers NO: a choice
      fits neither through the five items (too heavy) nor through the
      row (too costly), but a fractional mix of the two fits every
      Lagrangian bound.
    """
    size, nums = rng.randint(730, 800), rng.sample(range(1, 100), rng.randint(2, 3))
    small = [[(a, 0), (0, a)] for a in nums]
    if kind == "tight":
        big = [(i, 1000 - i) for i in range(5)] + [(10 ** 6 + 3 * j, 990 - j)
                                                   for j in range(size - 5)]
        rng.shuffle(big)
        classes = [big] + small
        rng.shuffle(classes)
        return K.make_instance(classes, 10 ** 6 - rng.randint(1, 200),
                               996 - size + rng.randint(0, 8))
    C = 10 ** 5
    classes = [[(v, C - v) for v in rng.sample(range(C), size)]] + small
    rng.shuffle(classes)
    picked = [rng.choice(c) for c in classes]
    V, W = (sum(it[i] for it in picked) for i in (0, 1))
    if kind == "no":
        return K.make_instance([[(2 * v, 2 * w) for v, w in c] for c in classes],
                               2 * V + 1, 2 * W - 1)
    return K.make_instance(classes, V, W)
