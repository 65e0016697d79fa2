"""Meet-in-the-middle knapsack on a subset-sum style instance.

Thirty classes of two items each span a 2^30 search space; direct
enumeration is hopeless, but the rank-bounded meet-in-the-middle
solver only ever materializes the cheap ends of the choice lists.

    python demos/subset_sum_knapsack.py
"""

import random
import time

from uncertainmatch import is_feasible, make_instance, solve

rng = random.Random(1234)

nums = [rng.randint(1 << 20, 1 << 30) for _ in range(30)]
picked = rng.sample(range(30), 8)
target = sum(nums[i] for i in picked)

# Class i is {(a_i, 0), (0, a_i)}: choosing the first item spends a_i
# of the value budget, the second spends it on the weight side. The
# instance is feasible exactly when some subset sums to the target.
inst = make_instance(
    [[(a, 0), (0, a)] for a in nums], target, sum(nums) - target
)

t0 = time.perf_counter()
choice = solve(inst)
elapsed = time.perf_counter() - t0
assert choice is not None and is_feasible(inst, choice)
subset = sorted(i for i, item in choice.items() if item == 0)
print(f"solved 2^30 search space in {elapsed:.2f}s")
print("subset found:", subset)
sums = sum(nums[i] for i in subset) == target
print("sums to target:", sums)
assert sums

# An infeasible twin: after doubling every number both sums are even,
# but the odd budgets now jointly fall two short of the grand total.
odd = make_instance(
    [[(2 * a, 0), (0, 2 * a)] for a in nums], 2 * target - 1,
    2 * (sum(nums) - target) - 1
)
odd_feasible = solve(odd) is not None
print("perturbed instance feasible:", odd_feasible)
assert not odd_feasible
