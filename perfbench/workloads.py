"""Seeded input generation for the `um` benchmark.

Run as its own process, so that building inputs never inflates the
peak memory of the process that runs the jobs:

    python3 perfbench/workloads.py --workload wpm-pwm --seed 1 --out DIR

It writes the input files into DIR plus `manifest.json`, which lists
every job of one cycle: its `um` argument vector and what the output
checks need to know (planted positions, expected answers, the
paper's per-window query bound).  Inputs depend only on the workload
name and the seed.

Every workload's jobs have the same size and statistics whatever the
seed, so the per-job median is comparable across seeds.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import numpy as np

SIGMA = "acgt"
WORKLOADS = ("wpm-pwm", "pm-repeats", "gwpm-short", "mck-solve")

# wpm-pwm: generated PWM texts against solid patterns.
WPM_TEXTS, WPM_ROWS, WPM_PATTERNS, WPM_M, WPM_LOG2Z = 4, 20_000, 2, 24, 14
WPM_PLANTS = 24

# pm-repeats: repeat-rich solid texts against integer profiles.
PM_TEXTS, PM_LETTERS, PM_PROFILES, PM_MS, PM_SLACK = 4, 30_000, 4, (14, 24), 12
PM_BLOCKS, PM_MUTATION, PM_PLANT_SHARE = 8, 0.03, 0.3

# gwpm-short: weighted pattern against short weighted texts (SDWC path).
GWPM_TEXTS, GWPM_WINDOWS, GWPM_PATTERNS, GWPM_M, GWPM_LOG2Z = 4, 150, 2, 12, 8
GWPM_PLANTS = 6

# mck-solve: subset-sum pairs, random MCK and noisy-copy consensus pairs;
# each *_RANK is the number of choices under the value threshold.
SUBSET_PAIRS, SUBSET_CLASSES, SUBSET_RANK = 4, 28, 1 << 21
MCK_RANDOM, MCK_CLASSES, MCK_LAM, MCK_RANK = 2, 10, 8, 1 << 22
CONSENSUS_PAIRS, CONSENSUS_LEN, CONSENSUS_CONTESTED, CONSENSUS_RANK = 2, 16, 0.5, 1 << 12


def _pwm_rows(rng: np.random.Generator, n: int, heavy: np.ndarray | None = None,
              lo: float = 0.55, hi: float = 0.95) -> np.ndarray:
    """n x 4 probability rows on a 1e-6 grid, each with one heavy letter."""
    if heavy is None:
        heavy = rng.integers(0, len(SIGMA), n)
    p_heavy = rng.uniform(lo, hi, n)
    rest = rng.dirichlet(np.ones(len(SIGMA) - 1), n) * (1.0 - p_heavy)[:, None]
    rows = np.empty((n, len(SIGMA)))
    for r in range(n):
        others = [c for c in range(len(SIGMA)) if c != heavy[r]]
        rows[r, heavy[r]] = p_heavy[r]
        rows[r, others] = rest[r]
    # flooring on the grid keeps every row sum at most 1
    return np.floor(rows * 1e6) / 1e6


def _write_pwm(path: Path, rows: np.ndarray) -> None:
    lines = [f"PWM {len(rows)} {SIGMA}"]
    lines.extend(" ".join(f"{p:.6f}" for p in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _second_letter(row: np.ndarray) -> int:
    return int(np.argsort(-row, kind="stable")[1])


def _wpm(rng: np.random.Generator, pyrng: random.Random, out: Path) -> list[dict]:
    jobs = []
    for t in range(WPM_TEXTS):
        patterns = ["".join(pyrng.choice(SIGMA) for _ in range(WPM_M))
                    for _ in range(WPM_PATTERNS)]
        heavy = rng.integers(0, len(SIGMA), WPM_ROWS)
        plants: dict[int, list[int]] = {k: [] for k in range(WPM_PATTERNS)}
        starts = sorted(pyrng.sample(range(WPM_ROWS // WPM_M), WPM_PLANTS))
        for q, slot in enumerate(starts):
            k, start = q % WPM_PATTERNS, slot * WPM_M
            heavy[start: start + WPM_M] = [SIGMA.index(c) for c in patterns[k]]
            plants[k].append(start + 1)
        rows = _pwm_rows(rng, WPM_ROWS, heavy)
        for k, starts_k in plants.items():
            # a third of the plants carry one or two pattern letters
            # that are only second-best, so those windows walk
            for q, start in enumerate(starts_k):
                for off in pyrng.sample(range(WPM_M), q % 3):
                    row = rows[start - 1 + off]
                    a, b = SIGMA.index(patterns[k][off]), _second_letter(row)
                    row[[a, b]] = row[[b, a]]
        text = out / f"wpm-text{t}.pwm"
        _write_pwm(text, rows)
        for k, pattern in enumerate(patterns):
            pat = out / f"wpm-text{t}-pat{k}.txt"
            pat.write_text(pattern + "\n")
            jobs.append({
                "id": f"wpm-t{t}-p{k}",
                "argv": ["wpm", "--pattern", str(pat), "--text", str(text),
                         "--z", f"2^{WPM_LOG2Z}"],
                "kind": "wpm", "pattern": pattern, "text": str(text),
                "z": f"2^{WPM_LOG2Z}", "planted": plants[k],
                "query_bound": WPM_LOG2Z + 1, "expect_exit": 0,
            })
    return jobs


def _count_at_least(scores: list[list[int]], threshold: int) -> int:
    """Number of strings whose profile score reaches `threshold` (exact DP)."""
    counts = {0: 1}
    for row in scores:
        nxt: dict[int, int] = {}
        for total, cnt in counts.items():
            for s in row:
                nxt[total + s] = nxt.get(total + s, 0) + cnt
        counts = nxt
    return sum(c for total, c in counts.items() if total >= threshold)


def _mutate(pyrng: random.Random, s: str, rate: float) -> str:
    return "".join(pyrng.choice(SIGMA) if pyrng.random() < rate else c for c in s)


def _pm(rng: np.random.Generator, pyrng: random.Random, out: Path) -> list[dict]:
    jobs = []
    for t in range(PM_TEXTS):
        profiles = []
        for k in range(PM_PROFILES):
            m = PM_MS[k % len(PM_MS)]
            scores = [[pyrng.randint(-10, 4) for _ in SIGMA] for _ in range(m)]
            for row in scores:
                row[pyrng.randrange(len(SIGMA))] = pyrng.randint(6, 10)
            heavy = "".join(SIGMA[max(range(len(SIGMA)), key=lambda c: (row[c], -c))]
                            for row in scores)
            best = sum(max(row) for row in scores)
            profiles.append((scores, heavy, best - PM_SLACK))
        # repeat-rich text: mutated copies of a few blocks, with the
        # profiles' heavy strings (lightly mutated) planted between them
        blocks = ["".join(pyrng.choice(SIGMA) for _ in range(pyrng.randint(200, 600)))
                  for _ in range(PM_BLOCKS)]
        parts, length = [], 0
        while length < PM_LETTERS:
            if pyrng.random() < PM_PLANT_SHARE:
                piece = _mutate(pyrng, pyrng.choice(profiles)[1], 0.1)
            else:
                piece = _mutate(pyrng, pyrng.choice(blocks), PM_MUTATION)
            parts.append(piece)
            length += len(piece)
        text_str = "".join(parts)[:PM_LETTERS]
        text = out / f"pm-text{t}.txt"
        text.write_text("\n".join(text_str[i: i + 80] for i in range(0, len(text_str), 80)) + "\n")
        for k, (scores, heavy, threshold) in enumerate(profiles):
            prof = out / f"pm-text{t}-prof{k}.txt"
            prof.write_text(f"PROFILE {len(scores)} {SIGMA}\n"
                            + "".join(" ".join(map(str, row)) + "\n" for row in scores))
            num = _count_at_least(scores, threshold)
            jobs.append({
                "id": f"pm-t{t}-p{k}",
                "argv": ["pm", "--profile", str(prof), "--text", str(text),
                         "--Z", str(threshold)],
                "kind": "pm", "profile": str(prof), "text": str(text),
                "threshold": threshold, "planted": [],
                "query_bound": num.bit_length(),  # floor(log2 NumStrings) + 1
                "expect_exit": 0,
            })
    return jobs


def _gwpm(rng: np.random.Generator, pyrng: random.Random, out: Path) -> list[dict]:
    jobs = []
    n = GWPM_WINDOWS + GWPM_M - 1
    for t in range(GWPM_TEXTS):
        pats = [_pwm_rows(rng, GWPM_M, lo=0.75, hi=0.97) for _ in range(GWPM_PATTERNS)]
        rows = _pwm_rows(rng, n, lo=0.4, hi=0.9)
        plants: dict[int, list[int]] = {k: [] for k in range(GWPM_PATTERNS)}
        slots = sorted(pyrng.sample(range(n // GWPM_M), GWPM_PLANTS))
        for q, slot in enumerate(slots):
            # a noisy copy of the pattern, so the window goes to a solver
            k, start = q % GWPM_PATTERNS, slot * GWPM_M
            noise = _pwm_rows(rng, GWPM_M, lo=0.4, hi=0.9)
            mix = 0.65 * pats[k] + 0.35 * noise
            rows[start: start + GWPM_M] = np.floor(mix * 1e6) / 1e6
            plants[k].append(start + 1)
        text = out / f"gwpm-text{t}.pwm"
        _write_pwm(text, rows)
        for k, pat_rows in enumerate(pats):
            pat = out / f"gwpm-text{t}-pat{k}.pwm"
            _write_pwm(pat, pat_rows)
            jobs.append({
                "id": f"gwpm-t{t}-p{k}",
                "argv": ["gwpm", "--pattern", str(pat), "--text", str(text),
                         "--z", f"2^{GWPM_LOG2Z}", "--witness"],
                "kind": "gwpm", "pattern": str(pat), "text": str(text),
                "z": f"2^{GWPM_LOG2Z}", "planted": plants[k],
                "query_bound": 2 * GWPM_LOG2Z + 1, "expect_exit": 0,
            })
    return jobs


def _write_mck(path: Path, classes: list[list[tuple[int, int]]], V: int, W: int) -> None:
    lines = [f"MCK {len(classes)} {V} {W}"]
    for cls in classes:
        lines.append(str(len(cls)))
        lines.extend(f"{v} {w}" for v, w in cls)
    path.write_text("\n".join(lines) + "\n")


def _half_sums(classes: list[list[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray]:
    """Value and weight sums of every choice over `classes`."""
    v = w = np.zeros(1, dtype=np.int64)
    for cls in classes:
        cv = np.array([it[0] for it in cls], dtype=np.int64)
        cw = np.array([it[1] for it in cls], dtype=np.int64)
        v = (v[:, None] + cv[None, :]).ravel()
        w = (w[:, None] + cw[None, :]).ravel()
    return v, w


def _kth_value(classes: list[list[tuple[int, int]]], rank: int) -> int:
    """The rank-th smallest choice value sum (meet in the middle)."""
    h = len(classes) // 2
    left = _half_sums(classes[:h])[0]
    right = np.sort(_half_sums(classes[h:])[0])
    lo, hi = int(left.min() + right[0]), int(left.max() + right[-1])
    while lo < hi:
        mid = (lo + hi) // 2
        if np.searchsorted(right, mid - left, side="right").sum() >= rank:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _feasible(classes: list[list[tuple[int, int]]], V: int, W: int) -> bool:
    """Exact multichoice-knapsack feasibility (meet in the middle)."""
    h = len(classes) // 2
    lv, lw = _half_sums(classes[:h])
    rv, rw = _half_sums(classes[h:])
    order = np.argsort(rv, kind="stable")
    rv, best_w = rv[order], np.minimum.accumulate(rw[order])
    idx = np.searchsorted(rv, V - lv, side="right")
    ok = idx > 0
    return bool(np.any(lw[ok] + best_w[idx[ok] - 1] <= W))


def _swapped(classes):
    return [[(w, v) for v, w in cls] for cls in classes]


def _mck(rng: np.random.Generator, pyrng: random.Random, out: Path) -> list[dict]:
    """Knapsack instances whose solver cost is set by construction.

    The meet-in-the-middle search grows with the number `a` of choices
    under the value threshold, so every threshold below is the value of
    the `rank`-th cheapest choice: instances of one kind then cost about
    the same whatever the seed.
    """
    from uncertainmatch import neglog
    from uncertainmatch.cli import parse_z

    jobs = []

    def knapsack_job(name, classes, V, W):
        path = out / f"{name}.mck"
        _write_mck(path, classes, V, W)
        jobs.append({"id": name, "argv": ["knapsack", "--instance", str(path)],
                     "kind": "knapsack", "instance": str(path),
                     "expect_exit": 0 if _feasible(classes, V, W) else 1})

    for q in range(SUBSET_PAIRS):
        # class i is {(a_i, 0), (0, a_i)}: feasible iff a subset hits V
        nums = [pyrng.randint(1 << 20, 1 << 30) for _ in range(SUBSET_CLASSES)]
        V = _kth_value([[(a, 0), (0, a)] for a in nums], SUBSET_RANK)
        W = sum(nums) - V
        knapsack_job(f"subset{q}-yes", [[(a, 0), (0, a)] for a in nums], V, W)
        # parity twin: doubled numbers and odd budgets leave no subset
        knapsack_job(f"subset{q}-no", [[(2 * a, 0), (0, 2 * a)] for a in nums],
                     2 * V - 1, 2 * W - 1)
    for q in range(MCK_RANDOM):
        classes = [[(pyrng.randint(0, 10_000), pyrng.randint(0, 10_000))
                    for _ in range(MCK_LAM)] for _ in range(MCK_CLASSES)]
        knapsack_job(f"mck{q}", classes, _kth_value(classes, MCK_RANK),
                     _kth_value(_swapped(classes), MCK_RANK))
    for q in range(CONSENSUS_PAIRS):
        # Y is a noisy copy of X whose heavy letter moves to X's second
        # letter at some positions, so the reduction cannot decide it
        x = _pwm_rows(rng, CONSENSUS_LEN, lo=0.5, hi=0.95)
        y = np.floor((0.8 * x + 0.2 * _pwm_rows(rng, CONSENSUS_LEN)) * 1e6) / 1e6
        for r in np.nonzero(rng.random(CONSENSUS_LEN) < CONSENSUS_CONTESTED)[0]:
            a, b = int(y[r].argmax()), _second_letter(y[r])
            y[r, [a, b]] = y[r, [b, a]]
        xp, yp = out / f"consensus{q}-x.pwm", out / f"consensus{q}-y.pwm"
        _write_pwm(xp, x)
        _write_pwm(yp, y)
        units = [[(neglog.from_probability(float(f"{px:.6f}")),
                   neglog.from_probability(float(f"{py:.6f}")))
                  for px, py in zip(rx, ry) if px > 0 and py > 0]
                 for rx, ry in zip(x, y)]
        target = _kth_value(units, CONSENSUS_RANK) / neglog.SCALE
        z = repr(2.0 ** target)
        z_units = parse_z(z).units
        jobs.append({"id": f"consensus{q}",
                     "argv": ["consensus", "--x", str(xp), "--y", str(yp),
                              "--z", z, "--algo", "mim"],
                     "kind": "consensus", "x": str(xp), "y": str(yp), "z": z,
                     "expect_exit": 0 if _feasible(units, z_units, z_units) else 1})
    return jobs


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of `workload` for `seed` into `out`; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pyrng = random.Random(f"{workload}:{seed}")
    make = {"wpm-pwm": _wpm, "pm-repeats": _pm, "gwpm-short": _gwpm, "mck-solve": _mck}
    manifest = {"workload": workload, "seed": seed, "jobs": make[workload](rng, pyrng, out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
