#!/usr/bin/env python3
"""Benchmark of the cosetrep package: three workloads, end to end and per layer.

Run from the root of a checkout (the package is taken from its ``src``):

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 10 --trace 0

Workloads (inputs are generated from --seed; the package receives only them):

* ``gauge-section``: ``flow_section`` over a 1000-node m=3 vector section and
  a 200-node m=5 spinor section.  The bulk path: series, brackets and
  coefficient weights do the work, the factorization never runs.
* ``point-queries``: one caller in a closed loop over a fixed list of 994
  single-point calls (``realize`` at orders 11 and 61, ``so1m_closed_field``,
  ``factor_boost_rotation``, ``induced_action`` with a rep built per call),
  one in 20 from the failure-prone tail.  Per-call fixed costs dominate.
* ``verify-cold``: ``cosetrep verify all --seed <seed>`` as fresh processes.
  Clifford products, algebra construction, exact tables and the
  finite-difference oracle carry weight, and every cache starts cold.

Every output is checked against an independent reference (see oracles.py);
a request that raises or misses its reference is a failed operation.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``setup_s`` (median time of fresh interpreters that import the package
and build the workload's algebras and reps), ``peak_rss_mb`` (of the
measuring process, or the largest ``verify`` process), ``ops_per_s``,
``op_p50_ms`` and ``op_tail_ms``.  ``ops_per_s`` is units of work completed
per second spent inside the library: node-steps of the gauge flow, point
queries, or ``verify all`` processes.  ``op_p50_ms`` and ``op_tail_ms`` are
percentiles of the time of one pass of gauge-section (both sections flowed
once), of one point query, or of one ``verify all`` process.  On
point-queries they are taken over each pass of the request list (about a
thousand queries, as in the workload's definition), and the median of those
over the passes is reported.
``op_tail_ms`` is the 90th percentile, or with fewer than 100 samples the
highest percentile that has ten samples beyond it, or below 20 samples the
median.  So on gauge-section and verify-cold, with a handful of passes or
processes in a run, ``op_p50_ms`` and ``op_tail_ms`` are the same number
and ``ops_per_s`` carries the same information.

Every time in these metrics is in reference seconds (see refclock.py): wall
time with the probes taken out, rescaled to a fixed CPU speed measured by a
probe that runs alongside, in the same process, every 15 ms of CPU time.
The host's vCPUs change speed by up to 2x from second to second, which
raw wall time would report as changes of the package.
The line before it is a report under the workload's own metric names
(``gauge_node_steps_per_s``, ``point_p50_ms``, ``verify_wall_s``, ...), with
sample counts, the same figures from raw wall time (suffix ``_raw``),
``ref_speed`` (reference seconds per wall second), ``fail_share``, the
environment and ``verify.digest_match`` (whether ``verify all --seed 0``
reproduces the recorded sha256).

With ``--trace 1`` a fresh process runs set-up plus one pass untraced and
another runs it with every layer traced; the last line holds per-layer
calls, self time and waste ratios, ``trace.overhead_s`` (traced minus
untraced wall time) and ``verify.digest_match``.

Exit codes: 0 with a result, 1 when a check could not run or the package
could not be loaded, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DIGEST_FILE = HERE / "verify_seed0.sha256"

WORKLOADS = ("gauge-section", "point-queries", "verify-cold")
SETUP_PROBES = 9
DEADLINE_S = 170

# numpy links an OpenBLAS built for 64 threads; the workloads are one
# single-threaded caller, so every process is pinned to one thread
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


class BenchError(Exception):
    """A check could not run; the benchmark exits without a result."""


def _deadline(signum, frame):
    raise BenchError(f"benchmark did not finish within {DEADLINE_S} s")


def _terminated(signum, frame):
    raise BenchError("terminated")


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str]) -> tuple[str, float, float]:
    """Run a fresh interpreter; return (stdout, wall seconds, peak RSS in MB).

    A non-zero exit is a BenchError.
    """
    cmd = [sys.executable, *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}")
    return out, wall, usage.ru_maxrss / 1024.0


def run_verify(seed: int, out_path: Path, clocked: bool = False) -> tuple[str | None, float, float, float, float]:
    """One cold ``cosetrep verify all`` process.

    Returns (problem or None, reference s, wall s, CPU s, peak RSS MB).
    With `clocked` the process is child.py's launcher, which runs
    ``cosetrep.cli.main`` under the reference clock; otherwise it is
    ``python -m cosetrep.cli`` and the reference time is the wall time.
    Any report left at `out_path` by an earlier run is removed first.
    """
    from common import verify_args, verify_problem

    out_path.unlink(missing_ok=True)
    if clocked:
        cmd = [sys.executable, *child("verify", seed, out_path)]
    else:
        cmd = [sys.executable, "-m", "cosetrep.cli", *verify_args(seed, out_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):
        raise BenchError(f"verify all --seed {seed} exited with {proc.returncode}")
    cpu = usage.ru_utime + usage.ru_stime
    ref = rescale(out, wall) if clocked else wall
    return verify_problem(out_path, proc.returncode), ref, wall, cpu, usage.ru_maxrss / 1024.0


def rescale(child_out: str, wall: float) -> float:
    """Reference seconds of a child's wall time, from the clock figures it printed last."""
    try:
        clock = json.loads(child_out.strip().splitlines()[-1])
        return (wall - clock["probe_s"]) * clock["factor"]
    except (IndexError, ValueError, KeyError) as exc:
        raise BenchError(f"a child printed no reference clock figures: {exc!r}") from exc


def child(*args) -> list[str]:
    return [str(HERE / "child.py"), *map(str, args)]


def digest_match() -> int:
    """1 when ``verify all --seed 0`` passes and reproduces the recorded report bytes."""
    report = OUT / "verify-seed0.json"
    if run_verify(0, report)[0] is not None:
        return 0
    want = DIGEST_FILE.read_text().split()[0]
    return int(hashlib.sha256(report.read_bytes()).hexdigest() == want)


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(workload: str) -> tuple[float, float, int]:
    """Median reference and wall seconds of fresh set-up processes, after one warm-up."""
    spawn(child("setup", workload))
    refs, walls = [], []
    for _ in range(SETUP_PROBES):
        out, wall, _ = spawn(child("setup", workload))
        refs.append(rescale(out, wall))
        walls.append(wall)
    return statistics.median(refs), statistics.median(walls), len(refs)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced run: (final-line metrics, report metrics, check summary)."""
    from common import p50_tail

    setup_s, setup_wall, n_setup = setup_seconds(workload)
    if workload == "verify-cold":
        refs, walls, cpus, rss, problems = [], [], [], 0.0, []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            problem, ref, wall, cpu, mb = run_verify(seed, OUT / f"verify-seed{seed}.json", clocked=True)
            refs.append(ref)
            walls.append(wall)
            cpus.append(cpu)
            rss = max(rss, mb)
            if problem:
                problems.append(problem)
        n = len(walls)
        p50, tail = p50_tail([r * 1e3 for r in refs])
        ops_per_s = n / sum(refs)
        speed = sum(refs) / sum(walls)
        checks = {"attempted": n, "failed": len(problems), "failed_in_domain": len(problems), "problems": problems}
    else:
        out, _, rss = spawn(child("run", workload, seed, seconds))
        res = json.loads(out.strip().splitlines()[-1])
        p50, tail, ops_per_s, n, speed = (res.pop(k) for k in ("p50_ms", "tail_ms", "ops_per_s", "samples", "speed"))
        raw = {k: res.pop(f"raw_{k}") for k in ("p50_ms", "tail_ms", "ops_per_s")}
        checks = res
    final = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
    }
    report = {
        "setup_s": (setup_s, "s", n_setup),
        "setup_s_raw": (setup_wall, "s", n_setup),
        "peak_rss_mb": (rss, "MB", 1),
        "ref_speed": (speed, "ratio", n),
    }
    if workload == "gauge-section":
        report["gauge_node_steps_per_s"] = (ops_per_s, "1/s", n)
        report["gauge_node_steps_per_s_raw"] = (raw["ops_per_s"], "1/s", n)
    elif workload == "point-queries":
        report["point_ops_per_s"] = (ops_per_s, "1/s", n)
        report["point_p50_ms"] = (p50, "ms", n)
        report["point_p90_ms"] = (tail, "ms", n)
        report["point_ops_per_s_raw"] = (raw["ops_per_s"], "1/s", n)
        report["point_p50_ms_raw"] = (raw["p50_ms"], "ms", n)
        report["point_p90_ms_raw"] = (raw["tail_ms"], "ms", n)
    else:
        report["verify_wall_s"] = (statistics.median(refs), "s", n)
        report["verify_wall_s_raw"] = (statistics.median(walls), "s", n)
        report["verify_cpu_s"] = (statistics.median(cpus), "s", n)
    return final, report, checks


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """Untraced and traced set-up plus one pass: (per-layer metrics, checks)."""
    plain = json.loads(spawn(child("once", workload, seed, OUT, 0))[0].strip().splitlines()[-1])
    res = json.loads(spawn(child("once", workload, seed, OUT, 1))[0].strip().splitlines()[-1])
    per_layer = res.pop("per_layer")
    per_layer["trace.overhead_s"] = res["wall_s"] - plain["wall_s"]
    return per_layer, res


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".builds"):
        return "count"
    if name.endswith(".distinct_ratio"):
        return "ratio"
    if name == "verify.digest_match":
        return "flag"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cosetrep" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 1
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(HERE))
    OUT.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            metrics, checks = traced(args.workload, args.seed)
            report_metrics = {}
        else:
            metrics, report_metrics, checks = measure(args.workload, args.seed, args.seconds)
        match = digest_match()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if args.trace:
        metrics["verify.digest_match"] = match
        units = {name: layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS

    attempted, failed = int(checks["attempted"]), int(checks["failed"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report_metrics.items()},
        "fail_share": failed / attempted,
        "checks": checks,
        "verify.digest_match": match,
    }
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": checks["failed_in_domain"] == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
