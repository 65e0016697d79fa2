"""Output checks for the `um` benchmark, run after the timed loop.

Each distinct (job, exit code, output) seen in a run is checked once
against the program's own scoring functions, never against the
matcher under test:

- `wpm` / `pm`: every reported occurrence is re-scored with
  `match_neglog` / `score`, and so is a seeded sample of the windows
  not reported (planted windows always among them).
- `gwpm`: every witness must match both the pattern and the text
  window; sampled non-occurrences must have no consensus
  (`reference.naive_consensus`).
- `knapsack` / `consensus`: YES choices must pass `is_feasible`,
  witnesses must match both X and Y, and YES/NO must be what the
  generator built (exit 0 for an answer, 1 only where NO is expected).
"""

from __future__ import annotations

import random
from functools import lru_cache

from uncertainmatch import io as um_io
from uncertainmatch.cli import parse_z
from uncertainmatch.knapsack import is_feasible
from uncertainmatch.profile import score
from uncertainmatch.reference import naive_consensus
from uncertainmatch.weighted import from_probabilities, match_neglog

NON_OCCURRENCE_SAMPLE = 24


@lru_cache(maxsize=None)
def _lines(path: str) -> tuple[str, ...]:
    with open(path) as fh:
        return tuple(fh.read().splitlines())


def _window(path: str, p: int, m: int):
    """Rows p..p+m-1 (1-based) of a generated PWM file as a weighted sequence."""
    lines = _lines(path)
    alphabet = lines[0].split()[2]
    return from_probabilities(alphabet, [[float(t) for t in lines[r].split()]
                                         for r in range(p, p + m)])


@lru_cache(maxsize=None)
def _pwm(path: str):
    return um_io.parse_pwm("\n".join(_lines(path)))


def _positions(stdout: str, count: int) -> list[int]:
    pos = [int(line.split("\t")[0]) for line in stdout.splitlines()]
    if pos != sorted(set(pos)) or any(not (1 <= p <= count) for p in pos):
        raise ValueError("positions not increasing or out of range")
    return pos


def _sample(job: dict, reported: list[int], count: int) -> list[int]:
    """Planted windows plus a seeded sample of windows not reported."""
    rng = random.Random(job["id"])
    hits = set(reported)
    others = [p for p in rng.sample(range(1, count + 1), min(count, 4 * NON_OCCURRENCE_SAMPLE))
              if p not in hits][:NON_OCCURRENCE_SAMPLE]
    return sorted(set(others) | {p for p in job.get("planted", []) if p not in hits})


def _check_wpm(job, stdout):
    z, pattern, m = parse_z(job["z"]), job["pattern"], len(job["pattern"])
    count = len(_lines(job["text"])) - 1 - m + 1
    reported = _positions(stdout, count)
    for p in reported:
        if match_neglog(pattern, _window(job["text"], p, m)) > z.units:
            return f"reported position {p} is not an occurrence"
    for p in _sample(job, reported, count):
        if match_neglog(pattern, _window(job["text"], p, m)) <= z.units:
            return f"missed occurrence at {p}"
    return None


def _check_pm(job, stdout):
    profile = um_io.parse_profile("\n".join(_lines(job["profile"])))
    text = "".join(line.strip() for line in _lines(job["text"]))
    m, threshold = profile.m, job["threshold"]
    count = len(text) - m + 1
    reported = _positions(stdout, count)
    for p in reported:
        if score(text[p - 1: p - 1 + m], profile) < threshold:
            return f"reported position {p} is not an occurrence"
    for p in _sample(job, reported, count):
        if score(text[p - 1: p - 1 + m], profile) >= threshold:
            return f"missed occurrence at {p}"
    return None


def _check_gwpm(job, stdout):
    z, pattern = parse_z(job["z"]), _pwm(job["pattern"])
    m = pattern.n
    count = len(_lines(job["text"])) - 1 - m + 1
    reported = _positions(stdout, count)
    for line in stdout.splitlines():
        p, witness = line.split("\t")
        window = _window(job["text"], int(p), m)
        if len(witness) != m or match_neglog(witness, pattern) > z.units \
                or match_neglog(witness, window) > z.units:
            return f"witness at {p} does not match both pattern and window"
    for p in _sample(job, reported, count)[: NON_OCCURRENCE_SAMPLE // 4]:
        if naive_consensus(pattern, _window(job["text"], p, m), z) is not None:
            return f"missed occurrence at {p}"
    return None


def _check_knapsack(job, stdout):
    lines = stdout.split()
    if not lines or lines[0] not in ("YES", "NO"):
        return "no YES/NO answer"
    if (lines[0] == "YES") != (job["expect_exit"] == 0):
        return f"answered {lines[0]} on an instance built the other way"
    if lines[0] == "YES":
        inst = um_io.parse_mck("\n".join(_lines(job["instance"])))
        choice = {int(c) - 1: int(i) - 1 for c, i in zip(lines[1::2], lines[2::2])}
        if not is_feasible(inst, choice):
            return "YES choice is not feasible"
    return None


def _check_consensus(job, stdout):
    witness = stdout.strip()
    if (witness != "NONE") != (job["expect_exit"] == 0):
        return f"answered {witness[:8]!r} on an instance built the other way"
    if witness != "NONE":
        z = parse_z(job["z"])
        if match_neglog(witness, _pwm(job["x"])) > z.units \
                or match_neglog(witness, _pwm(job["y"])) > z.units:
            return "consensus witness does not match both X and Y"
    return None


CHECKS = {"wpm": _check_wpm, "pm": _check_pm, "gwpm": _check_gwpm,
          "knapsack": _check_knapsack, "consensus": _check_consensus}


def check(job: dict, rc, stdout: str, stderr: str) -> str | None:
    """None when the output of one run of `job` is correct, else why not."""
    if rc != job["expect_exit"]:
        return f"exit code {rc!r}, expected {job['expect_exit']}: {stderr.strip()[:200]}"
    try:
        return CHECKS[job["kind"]](job, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
