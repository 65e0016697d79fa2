"""Benchmark of the `um` command, end to end and layer by layer.

    python3 perfbench/run.py --workload wpm-pwm --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload wpm-pwm --seed 1 --seconds 24 --trace 1
    python3 perfbench/run.py --self-test

The checkout that holds this directory must also hold `src/uncertainmatch`.
One run generates the workload's inputs from the seed in a separate
process, times fresh-interpreter imports (set-up), runs the jobs in a
third process (`jobs.py`), checks every distinct output, and prints a
summary followed by one JSON line: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics untraced, the per-layer metrics
traced).  Work files go to `.perfbench/` at the checkout root.

`--self-test` makes two traced runs per workload with one seed and
fails unless every count metric repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("wpm-pwm", "pm-repeats", "gwpm-short", "mck-solve")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
GEN_TIMEOUT_S = 60
JOB_TIMEOUT_SLACK_S = 60
SELF_TEST_SEED, SELF_TEST_SECONDS = 7, 1
# About the median time of jobs.probe on the reference machine (a 2-core
# VM, CPython 3.11, numpy 2.4, no numba).  Job times are reported at
# the host speed where the probe takes this long; see _host_adjusted.
PROBE_REF_S = 0.0100

END_TO_END = {"job_s.p50": "s", "job_s.tail": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "io.parse_s": "s", "io.input_mb": "MB",
    "weighted.build_s": "s", "weighted.prune_s": "s", "weighted.wpm_self_s": "s",
    "weighted.windows": "count", "weighted.queries_per_window": "count",
    "weighted.queries_max_window": "count", "weighted.query_bound": "count",
    "weighted.query_bound_slack": "count",
    "lcp.build_s": "s", "lcp.indexed_letters": "count", "lcp.index_mb": "MB",
    "lcp.queries": "count", "lcp.batch_queries": "count",
    "profile.match_self_s": "s", "profile.windows": "count",
    "profile.queries_per_window": "count", "profile.queries_max_window": "count",
    "profile.query_bound": "count", "profile.query_bound_slack": "count",
    "consensus.gwpm_self_s": "s", "consensus.windows": "count",
    "consensus.queries_per_window": "count", "consensus.queries_max_window": "count",
    "consensus.query_bound": "count", "consensus.query_bound_slack": "count",
    "consensus.solver_calls": "count", "consensus.solver_hits": "count",
    "consensus.solver_hit_ratio": "frac", "consensus.wc_to_knapsack_s": "s",
    "sdwc.solve_s": "s", "sdwc.calls": "count",
    "knapsack.solve_s": "s", "knapsack.reduce_s": "s", "knapsack.calls": "count",
    "knapsack.prefix_steps": "count", "knapsack.two_class_sweeps": "count",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "frac", "host.calib_s": "s",
}
# metrics that must repeat exactly between two traced runs of one seed
REPEATING = [k for k, unit in PER_LAYER.items() if unit not in ("s", "frac")] + [
    "consensus.solver_hit_ratio"]


def _env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _steal_ticks() -> int | None:
    """Ticks the hypervisor took from this machine's CPUs, if the OS reports them."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _setup_seconds(env: dict) -> tuple[float, float]:
    """Interpreter start plus `import uncertainmatch.cli` in a fresh process.

    Returns (raw, at reference host speed).  The child reads the
    system-wide monotonic clock once the import is done, so the
    parent's wake-up latency is not counted.  It then times the host
    probe twice (the first call warms it up) to rescale the import the
    way job times are rescaled.
    """
    code = ("import time, uncertainmatch.cli; t = time.monotonic(); "
            "from jobs import probe; probe(); print(t, probe())")
    child_env = {**env, "PYTHONPATH": env["PYTHONPATH"] + os.pathsep + str(HERE)}
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                          capture_output=True, text=True, timeout=GEN_TIMEOUT_S)
    t_end, probe_s = map(float, done.stdout.split())
    return t_end - t0, (t_end - t0) * PROBE_REF_S / probe_s


def _tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(xs)
    k = len(s) - 1 - TAIL_BEYOND
    if k < 0:  # too few samples: report the maximum
        k = len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def _host_adjusted(samples: list[list], final_probe: float) -> list[float]:
    """Job wall times rescaled to the reference host speed.

    This host's speed moves by up to 1.5x within seconds (other tenants
    share the physical cores).  Each job is bracketed by the probe timed
    before it and the one timed before the next job; its wall time is
    multiplied by PROBE_REF_S over the mean of the two.
    """
    probes = [s[5] for s in samples] + [final_probe]
    return [s[2] * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, s in enumerate(samples)]


def _stamp() -> dict:
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": has_numba, "nproc": os.cpu_count()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line plus diagnostics."""
    from checks import check
    from spans import layer_metrics

    work = WORK / f"{workload}-{seed}-{'traced' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _env()
    subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(work)],
                   env=env, check=True, timeout=GEN_TIMEOUT_S)
    jobs = json.loads((work / "manifest.json").read_text())["jobs"]
    setup = [] if trace else [_setup_seconds(env) for _ in range(SETUP_REPEATS)]
    steal0 = _steal_ticks()
    subprocess.run([sys.executable, str(HERE / "jobs.py"), "--manifest",
                    str(work / "manifest.json"), "--seconds", str(seconds),
                    "--trace", str(int(trace)), "--out", str(work / "result.json")],
                   env=env, check=True, timeout=seconds + JOB_TIMEOUT_SLACK_S)
    steal1 = _steal_ticks()
    res = json.loads((work / "result.json").read_text())

    failures = {}
    for key, out in res["outputs"].items():
        reason = check(jobs[out["job"]], out["rc"], out["stdout"], out["stderr"])
        if reason is not None:
            failures[key] = f"{jobs[out['job']]['id']}: {reason}"
    samples = res["samples"]
    adjusted = _host_adjusted(samples, res["final_probe_s"])
    plain = [a for s, a in zip(samples, adjusted) if s[0] == "plain"]
    traced = [a for s, a in zip(samples, adjusted) if s[0] == "traced"]
    raw = [s[2] for s in samples if s[0] == "plain"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s[3] in failures)
    info = {"workload": workload, "seed": seed, "cycles": res["cycles"], "jobs": len(plain),
            "failed_frac": failed / attempted, "failures": sorted(set(failures.values())),
            "host.calib_s": statistics.median(s[5] for s in samples), "probe_n": len(samples),
            "raw_job_s.p50": statistics.median(raw), "raw_job_s.tail": _tail(raw)[0],
            "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
            **_stamp()}
    if trace:
        dump = json.loads((work / "result.json.trace.json").read_text())
        job_counts = {int(k): v for k, v in dump["job_counts"].items()}
        output_bytes = {}
        for s in samples:
            if s[0] == "traced":
                output_bytes.setdefault(s[1], s[4])
        values, repeat = layer_metrics(dump["spans"], job_counts, output_bytes, jobs)
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        values["host.calib_s"] = info["host.calib_s"]
        info["counts_repeat_within_run"] = repeat
        info["traced_jobs"] = len(traced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        tail, pct = _tail(plain)
        info["tail_percentile"] = pct
        info["setup_n"] = len(setup)
        info["raw_setup_s"] = statistics.median(r for r, _ in setup)
        metrics = {
            "job_s.p50": {"value": statistics.median(plain), "unit": "s"},
            "job_s.tail": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
        }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    (work / "summary.json").write_text(json.dumps({"result": line, "info": info}, indent=1))
    return {"line": line, "info": info}


def _print_summary(result: dict, trace: bool) -> None:
    info, metrics = result["info"], result["line"]["metrics"]
    print(f"workload={info['workload']} seed={info['seed']} "
          f"{'traced' if trace else 'untraced'} cycles={info['cycles']} jobs={info['jobs']}")
    n = info["jobs"]
    notes = {"job_s.p50": f"median, n={n}, at reference host speed",
             "job_s.tail": f"p{info.get('tail_percentile', 0):.1f}, "
                           f"{TAIL_BEYOND} beyond, n={n}, at reference host speed",
             "peak_rss_mb": "ru_maxrss of the job process",
             "setup_s": f"median of {info.get('setup_n')} fresh imports, "
                        "at reference host speed"}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    attempted = result["line"]["attempted"]
    print(f"  {'failed_frac':32s} {info['failed_frac']:14.6g} {'frac':6s} "
          f"{result['line']['failed']}/{attempted} jobs")
    for reason in info["failures"][:10]:
        print(f"  FAILED {reason}")
    raw_setup = f" setup={info['raw_setup_s']:.6f} s" if "raw_setup_s" in info else ""
    print(f"  raw wall time (diagnostic): p50={info['raw_job_s.p50']:.6f} s "
          f"tail={info['raw_job_s.tail']:.6f} s{raw_setup}")
    print(f"  host.calib_s={info['host.calib_s']:.6f} (n={info['probe_n']}, diagnostic) "
          f"python={info['python']} numpy={info['numpy']} numba={info['numba']} "
          f"nproc={info['nproc']} steal_ticks={info['steal_ticks']}")
    if trace:
        print(f"  traced_jobs={info['traced_jobs']} "
              f"counts_repeat_within_run={info['counts_repeat_within_run']}")


def self_test() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["end_to_end"]} | {m["name"] for m in declared["per_layer"]}
    ok = names == set(END_TO_END) | set(PER_LAYER)
    print(f"BENCHMARK.json metric names match run.py: {ok}")
    for workload in WORKLOADS:
        a, b = (run(workload, SELF_TEST_SEED, SELF_TEST_SECONDS, True) for _ in range(2))
        diff = [k for k in REPEATING
                if a["line"]["metrics"][k]["value"] != b["line"]["metrics"][k]["value"]]
        good = not diff and a["line"]["correct"] and b["line"]["correct"] \
            and a["info"]["counts_repeat_within_run"] and b["info"]["counts_repeat_within_run"]
        print(f"{workload}: {'PASS' if good else 'FAIL'} "
              f"({len(REPEATING)} count metrics compared; differing: {diff})")
        ok &= good
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (SRC / "uncertainmatch" / "cli.py").is_file():
        print(f"error: no uncertainmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(result, bool(args.trace))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
