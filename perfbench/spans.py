"""Layer tracing for the `um` benchmark, from outside the program.

Each traced function is replaced, for the duration of one traced job,
by a wrapper at the module (or class) attribute its caller resolves at
call time.  A wrapper records a span (name, start, end, parent, job)
or only bumps a counter, for the hot lcp queries and knapsack growth
steps.  Spans stay in memory; `Tracer.dump` writes them at the end.

`layer_metrics` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

import numpy as np

# Matchers whose lcp queries are attributed to windows: (module, attr,
# span name, function giving (text length n, pattern length m) from
# the call arguments).
MATCHERS = (
    ("weighted", "wpm", "weighted.wpm", lambda a: (a[1].n, len(a[0]))),
    ("profile", "profile_match", "profile.match", lambda a: (len(a[1]), a[0].m)),
    ("consensus", "gwpm", "consensus.gwpm", lambda a: (a[1].n, a[0].n)),
)

# Plain spans: (module, attr, span name).  Every attribute a caller in
# the cli, io, weighted, profile, consensus, sdwc or knapsack module
# resolves for these functions is listed, so each call is seen once.
SPANS = (
    ("io", "parse_pwm", "io.parse"),
    ("io", "parse_profile", "io.parse"),
    ("io", "parse_mck", "io.parse"),
    ("io", "from_probabilities", "weighted.build"),
    ("weighted", "prune", "weighted.prune"),
    ("consensus", "prune", "weighted.prune"),
    ("weighted", "build_cross_index", "lcp.build"),
    ("profile", "build_cross_index", "lcp.build"),
    ("consensus", "build_cross_index", "lcp.build"),
    ("consensus", "weighted_consensus", "consensus.weighted_consensus"),
    ("consensus", "wc_to_knapsack", "consensus.wc_to_knapsack"),
    ("sdwc", "solve", "sdwc.solve"),
    ("sdwc", "solve_fast", "sdwc.solve"),
    ("knapsack", "solve", "knapsack.solve"),
    ("knapsack", "solve_k", "knapsack.solve"),
    ("knapsack", "reduce_instance", "knapsack.reduce"),
)

# Counted calls: (module, class or None, attr, counter name).
COUNTERS = (
    ("lcp", "CrossLcpIndex", "cross_lcp", "lcp.queries"),
    ("lcp", "CrossLcpIndex", "cross_lcp_batch", "lcp.batch_queries"),
    ("knapsack", "PrefixGenerator", "step", "knapsack.prefix_steps"),
    ("knapsack", None, "solve_two_class", "knapsack.two_class_sweeps"),
)

SOLVERS = ("sdwc.solve", "consensus.weighted_consensus")


def _array_bytes(obj, depth: int = 0) -> int:
    """Bytes held in numpy arrays reachable from an index object."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 4:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, depth + 1) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(x, depth + 1) for x in vars(obj).values())
    return 0


class _Windows:
    """lcp queries per window of one matcher call."""

    def __init__(self, n: int, m: int):
        self.count = max(n - m + 1, 0)
        self.scalar = [0] * self.count
        self.batch = np.zeros(self.count, dtype=np.int64)


class Tracer:
    """Records spans and counts for the jobs run between install/uninstall."""

    def __init__(self):
        self.mods = {name: importlib.import_module(f"uncertainmatch.{name}")
                     for name in ("io", "weighted", "profile", "consensus", "sdwc",
                                  "knapsack", "lcp")}
        # span: [name, start, end, parent index, job, extra]
        self.spans: list[list] = []
        self.job_counts: dict[int, list[dict]] = {}
        self._stack: list[int] = []
        self._job = None
        self._counts: Counter = Counter()
        self._windows: _Windows | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _open(self, name: str, extra=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job, extra])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job: int, fn, *args):
        """Run `fn(*args)` as job `job` under a root `cli.main` span."""
        self._job = job
        self._counts = Counter()
        idx = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.job_counts.setdefault(job, []).append(dict(self._counts))
            self._job = None

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name):
        def wrapped(*args, **kwargs):
            extra = {}
            if name == "io.parse":
                extra["chars"] = len(args[0])
            idx = self._open(name, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "lcp.build":
                extra["letters"] = len(args[0]) + 1 + len(args[1])
                extra["bytes"] = _array_bytes(result)
            elif name in SOLVERS:
                extra["hit"] = result is not None
            return result

        return wrapped

    def _matcher_wrapper(self, fn, name, dims):
        def wrapped(*args, **kwargs):
            outer = self._windows
            win = self._windows = _Windows(*dims(args))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._windows = outer
                per = np.asarray(win.scalar, dtype=np.int64) + win.batch
                self.spans[idx][5] = {
                    "windows": win.count,
                    "queries": int(per.sum()),
                    "max_queries": int(per.max()) if win.count else 0,
                }

        return wrapped

    def _counter_wrapper(self, fn, name):
        if name == "lcp.queries":
            def cross_lcp(index, i, j):
                self._counts[name] += 1
                win = self._windows
                if win is not None and 0 <= j - i < win.count:
                    win.scalar[j - i] += 1
                return fn(index, i, j)

            return cross_lcp
        if name == "lcp.batch_queries":
            def cross_lcp_batch(index, i, js):
                js = np.asarray(js, dtype=np.int64)
                self._counts[name] += len(js)
                win = self._windows
                if win is not None and len(js):
                    p = js - i
                    np.add.at(win.batch, p[(p >= 0) & (p < win.count)], 1)
                return fn(index, i, js)

            return cross_lcp_batch

        def counted(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for mod, attr, name, dims in MATCHERS:
            self._patch(self.mods[mod], attr, lambda fn: self._matcher_wrapper(fn, name, dims))
        for mod, attr, name in SPANS:
            self._patch(self.mods[mod], attr, lambda fn: self._span_wrapper(fn, name))
        for mod, cls, attr, name in COUNTERS:
            owner = getattr(self.mods[mod], cls) if cls else self.mods[mod]
            self._patch(owner, attr, lambda fn: self._counter_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "job_counts": self.job_counts}, fh)


# -- aggregation -------------------------------------------------------------

MATCHER_PREFIX = {"weighted.wpm": ("weighted", "weighted.wpm_self_s"),
                  "profile.match": ("profile", "profile.match_self_s"),
                  "consensus.gwpm": ("consensus", "consensus.gwpm_self_s")}
INCLUSIVE = {"weighted.build": "weighted.build_s", "weighted.prune": "weighted.prune_s",
             "lcp.build": "lcp.build_s", "consensus.wc_to_knapsack": "consensus.wc_to_knapsack_s",
             "sdwc.solve": "sdwc.solve_s", "knapsack.solve": "knapsack.solve_s",
             "knapsack.reduce": "knapsack.reduce_s"}
CALLS = {"sdwc.solve": "sdwc.calls", "knapsack.solve": "knapsack.calls"}
TIMES = ("io.parse_s", "cli.self_s", *INCLUSIVE.values(),
         *(key for _, key in MATCHER_PREFIX.values()))


def _execution(spans: list[list], lo: int, hi: int) -> Counter:
    """Per-layer quantities of the job execution whose spans are spans[lo:hi]."""
    dur = {k: spans[k][2] - spans[k][1] for k in range(lo, hi)}
    covered: Counter = Counter()
    for k in range(lo + 1, hi):
        covered[spans[k][3]] += dur[k]
    v: Counter = Counter()
    in_gwpm = set()
    for k in range(lo, hi):
        name, _, _, parent, _, extra = spans[k]
        extra = extra or {}
        self_s = dur[k] - covered[k]
        if name == "cli.main":
            v["cli.self_s"] += self_s
        elif name == "io.parse":
            v["io.parse_s"] += self_s
            v["io.input_chars"] += extra["chars"]
        if name in INCLUSIVE:
            v[INCLUSIVE[name]] += dur[k]
        if name in CALLS:
            v[CALLS[name]] += 1
        if name == "lcp.build":
            v["lcp.indexed_letters"] += extra["letters"]
            v["lcp.index_bytes"] += extra["bytes"]
        if name in MATCHER_PREFIX:
            prefix, key = MATCHER_PREFIX[name]
            v[key] += self_s
            v[f"{prefix}.windows"] += extra["windows"]
            v[f"{prefix}.queries"] += extra["queries"]
            v[f"{prefix}.max_queries"] = max(v[f"{prefix}.max_queries"], extra["max_queries"])
        if name == "consensus.gwpm" or parent in in_gwpm:
            in_gwpm.add(k)
        if name in SOLVERS and parent in in_gwpm:
            v["consensus.solver_calls"] += 1
            v["consensus.solver_hits"] += int(extra["hit"])
    return v


def layer_metrics(spans: list[list], job_counts: dict, output_bytes: dict,
                  jobs: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether counts repeated.

    Times are the per-job median over a job's traced executions; counts
    come from a job's first execution.  Both are then averaged over the
    workload's job cycle, so they do not depend on how many cycles ran.
    """
    roots = [k for k, s in enumerate(spans) if s[3] == -1]
    per_job: dict[int, list[Counter]] = {}
    for lo, hi in zip(roots, roots[1:] + [len(spans)]):
        per_job.setdefault(spans[lo][4], []).append(_execution(spans, lo, hi))
    repeat = True
    rows = []
    for job, execs in sorted(per_job.items()):
        counts = [Counter({**e, **c}) for e, c in zip(execs, job_counts[job])]
        first = counts[0]
        keys = [k for k in first if k not in TIMES]
        repeat &= all(all(c[k] == first[k] for k in keys) for c in counts[1:])
        row = Counter({k: first[k] for k in keys})
        for key in TIMES:
            row[key] = statistics.median(c[key] for c in counts)
        row["cli.output_bytes"] = output_bytes[job]
        row["query_bound"] = jobs[job].get("query_bound", 0)
        rows.append(row)
    n = len(rows)

    def mean(key):
        return sum(r[key] for r in rows) / n

    def ratio(num, den):
        d = sum(r[den] for r in rows)
        return sum(r[num] for r in rows) / d if d else 0.0

    out = {key: mean(key) for key in TIMES}
    out["io.input_mb"] = mean("io.input_chars") / 1e6
    out["lcp.index_mb"] = mean("lcp.index_bytes") / 1e6
    for key in ("lcp.indexed_letters", "lcp.queries", "lcp.batch_queries", "sdwc.calls",
                "knapsack.calls", "knapsack.prefix_steps", "knapsack.two_class_sweeps",
                "consensus.solver_calls", "consensus.solver_hits", "cli.output_bytes"):
        out[key] = mean(key)
    out["consensus.solver_hit_ratio"] = ratio("consensus.solver_hits", "consensus.solver_calls")
    for prefix in ("weighted", "profile", "consensus"):
        used = [r for r in rows if r[f"{prefix}.windows"]]
        out[f"{prefix}.windows"] = mean(f"{prefix}.windows")
        out[f"{prefix}.queries_per_window"] = ratio(f"{prefix}.queries", f"{prefix}.windows")
        out[f"{prefix}.queries_max_window"] = max((r[f"{prefix}.max_queries"] for r in used),
                                                  default=0)
        out[f"{prefix}.query_bound"] = min((r["query_bound"] for r in used), default=0)
        out[f"{prefix}.query_bound_slack"] = min(
            (r["query_bound"] - r[f"{prefix}.max_queries"] for r in used), default=0)
    return out, repeat
