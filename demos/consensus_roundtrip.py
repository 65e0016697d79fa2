"""Find a consensus string of two weighted sequences.

Shows the consensus solver on a small pair of PWMs, the equivalent
multichoice-knapsack view of the same question, and the reverse
direction: turning a knapsack instance into a consensus instance.

    python demos/consensus_roundtrip.py
"""

import random

from uncertainmatch import (
    ProbThreshold,
    brute_force,
    from_probabilities,
    make_instance,
    match_neglog,
    weighted_consensus,
)
from uncertainmatch.consensus import knapsack_to_wc, wc_to_knapsack
from uncertainmatch.reference import naive_consensus

rng = random.Random(7)
SIGMA = "acgt"


def random_pwm(n):
    rows = []
    for _ in range(n):
        raw = [rng.expovariate(1.0) for _ in SIGMA]
        total = sum(raw)
        rows.append({s: x / total for s, x in zip(SIGMA, raw)})
    return from_probabilities(SIGMA, rows)


x = random_pwm(8)
y = random_pwm(8)

# The two PWMs disagree enough that no string matches both at 1/1024;
# at 1/2^14 and 1/2^16 one does.
found = 0
for z_val in (1024, 2 ** 14, 2 ** 16):
    z = ProbThreshold.from_z(z_val)
    witness = weighted_consensus(x, y, z)
    if witness is None:
        print(f"z = {z_val}: no string matches both at 1/{z_val}")
        continue
    print(f"z = {z_val}: consensus {witness!r}")
    assert match_neglog(witness, x) <= z.units
    assert match_neglog(witness, y) <= z.units
    found += 1
assert found, "no z gave a consensus"

# Under the hood the question is a knapsack: one class per position,
# one item per letter alive in both rows, value = -log2 p in x,
# weight = -log2 p in y, both capped by log2 z.
z = ProbThreshold.from_z(64)
inst, letters = wc_to_knapsack(x, y, z)
print("knapsack view:", inst.n, "classes, sizes", [len(c) for c in inst.classes])

# And back: any knapsack instance embeds into a consensus instance
# whose threshold stays within 4x the choice count.
small = make_instance([[(3, 1), (1, 4)], [(2, 2), (5, 0)]], 5, 5)
wc = knapsack_to_wc(small)
print("embedded threshold z =", round(wc.z.display, 3))
same = (brute_force(small) is not None) == \
    (naive_consensus(wc.X, wc.Y, wc.z) is not None)
print("feasibility preserved:", same)
assert same
