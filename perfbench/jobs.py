"""The job process of the `um` benchmark.

    python3 perfbench/jobs.py --manifest M --seconds S --trace 0|1 --out R

Runs the manifest's jobs as a closed loop with one client: each job
is one in-process call of `uncertainmatch.cli.main(argv)`, and the
next starts when the previous one has finished.  Whole cycles over the
job list run until `--seconds` have passed.  The process runs nothing
but the jobs, so its peak RSS is theirs.

A host speed probe is timed right before every job (outside the job's
timed region), so that run.py can rescale job times to a reference
host speed.

With `--trace 1` every job runs twice per cycle, once plain and once
traced, alternating which goes first, so that the tracing overhead is
measured under the same host conditions.  Results (times, probes, exit
codes, distinct outputs) go to R as JSON; spans go next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import time

import numpy as np

from spans import Tracer


def probe() -> float:
    """Wall time of a fixed mix of interpreter and numpy work (host speed probe).

    The mix (dict/str/float churn, a loop of numpy scalar indexing and
    one vector pass) slows down with the host about as much as the jobs
    do, so it is timed right before every job.
    """
    t0 = time.perf_counter()
    acc = 0
    table = {f"{i}": float(f"{i}.25") for i in range(5_000)}
    sorted(table.items(), key=lambda kv: -kv[1])
    x = np.arange(1_000, dtype=np.int64)
    for i in range(7_000):
        acc += int(x[i % 1_000])
    np.cumsum(np.arange(200_000, dtype=np.int64) % 7)
    return time.perf_counter() - t0


class Loop:
    def __init__(self, cli, jobs: list[dict]):
        self.cli = cli
        self.jobs = jobs
        # [mode, job, seconds, output key, output bytes, probe seconds before]
        self.samples: list[list] = []
        self.outputs: dict[str, dict] = {}

    def run(self, k: int, mode: str | None, tracer: Tracer | None = None) -> None:
        """Run job k once; record it under `mode` (None: a warm-up, not recorded)."""
        argv = self.jobs[k]["argv"]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        host = probe()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = tracer.run_job(k, self.cli.main, argv) if tracer else self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                rc = f"exception: {exc!r}"
            elapsed = time.perf_counter() - t0
        if mode is None:
            return
        text = out.getvalue()
        key = hashlib.sha1(json.dumps([k, rc, text, err.getvalue()]).encode()).hexdigest()
        self.outputs.setdefault(key, {"job": k, "rc": rc, "stdout": text,
                                      "stderr": err.getvalue(), "count": 0})["count"] += 1
        self.samples.append([mode, k, elapsed, key, len(text.encode()), host])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from uncertainmatch import cli

    with open(args.manifest) as fh:
        jobs = json.load(fh)["jobs"]
    loop = Loop(cli, jobs)
    tracer = Tracer() if args.trace else None
    loop.run(0, None)  # first-call costs (lazy imports inside numpy, caches)
    cycles = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        # whole cycles; stop when the next one would mostly overrun
        now = time.perf_counter()
        if now >= deadline or (cycles and now + (now - start) / cycles / 2 > deadline):
            break
        for k in range(len(jobs)):
            if tracer is None:
                loop.run(k, "plain")
                continue
            for traced in ((False, True) if cycles % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        loop.run(k, "traced", tracer)
                    finally:
                        tracer.uninstall()
                else:
                    loop.run(k, "plain")
        cycles += 1
    result = {
        "cycles": cycles,
        "samples": loop.samples,
        "outputs": loop.outputs,
        "final_probe_s": probe(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.dump(args.out + ".trace.json")
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
