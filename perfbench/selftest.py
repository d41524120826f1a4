#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:

* the reference clock takes probes and converts an interval;
* each oracle accepts the package's in-domain outputs and rejects the same
  outputs nudged just past its tolerance;
* a short run of every workload, untraced and traced, prints every metric
  that BENCHMARK.json declares with its declared unit, reports ``correct``,
  and the report line carries the workload's own metrics with units and
  sample counts;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles as orc  # noqa: E402
import refclock  # noqa: E402
import workloads as wl  # noqa: E402

COMMON_REPORT = {"setup_s", "setup_s_raw", "peak_rss_mb", "ref_speed"}
REPORT_METRICS = {
    "gauge-section": COMMON_REPORT | {"gauge_node_steps_per_s", "gauge_node_steps_per_s_raw"},
    "point-queries": COMMON_REPORT
    | {"point_ops_per_s", "point_p50_ms", "point_p90_ms", "point_ops_per_s_raw", "point_p50_ms_raw", "point_p90_ms_raw"},
    "verify-cold": COMMON_REPORT | {"verify_wall_s", "verify_wall_s_raw", "verify_cpu_s"},
}


class SelfTestError(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestError(what)


def check_point_oracles() -> None:
    pq = wl.PointQueries(seed=5)
    seen = set()
    for op, ref in zip(pq.ops, pq.refs):
        if op["tail"] or op["kind"] in seen:
            continue
        seen.add(op["kind"])
        out = wl._call(op)
        expect(wl._error(op, ref, out) <= 1.0, f"{op['kind']}: in-domain output rejected")
        if op["kind"] == "factor":
            bad = (out[0], out[1] + 1e-6)
        elif op["kind"] == "closed_field":
            bad = (out[0] + 1e-8, out[1])
        elif op["kind"].startswith("induced"):
            bad = (out[0], out[1] + 1e-10 * np.abs(op["g"]).max() ** 2)
        else:
            bad = (out[0] + 1e-5, out[1])
        expect(wl._error(op, ref, bad) > 1.0, f"{op['kind']}: nudged output accepted")
    expect(len(seen) == 6, f"op kinds covered: {sorted(seen)}")


def check_gauge_oracle() -> None:
    import cosetrep as cr

    rng = np.random.default_rng(0)
    m, n = 3, 20
    sigma = rng.uniform(-0.4, 0.4, (n, m))
    v = rng.uniform(-1.0, 1.0, (n, m))
    xi = rng.uniform(-0.5, 0.5, (n, 2 * m))
    s_ref, v_ref, radius = orc.euler_flow_ref(sigma, v, xi, 1.0, 2, orc.vector_generators(m))
    out = cr.flow_section(cr.so1m_algebra(m), cr.CompositeSection(sigma, v), xi, 1.0, 2, cr.vector_hrep(m))
    tol = orc.gauge_tol(radius)
    expect(np.all(np.abs(out.sigma - s_ref).max(axis=1) <= tol), "gauge reference rejects the flow")
    expect(np.all(np.abs(out.v - v_ref).max(axis=1) <= tol), "gauge reference rejects the flow")
    expect(np.all(np.abs(out.v + 3.0 * tol[:, None] - v_ref).max(axis=1) > tol), "nudged flow accepted")


def check_refclock() -> None:
    clock = refclock.RefClock()
    clock.start()
    a = clock.mark()
    while clock.mark()[0] - a[0] < 0.5:
        refclock.probe_work()
    b = clock.mark()
    clock.stop()
    expect(len(clock.times) >= 10, f"reference clock took {len(clock.times)} probes in 0.5 s")
    raw = b[0] - a[0] - (b[1] - a[1])
    expect(0.2 < clock.reference(a, b) / raw < 5.0, "reference time far from wall time")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{workload} trace={trace}: {report['checks']}")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            expect(report["checks"]["failed_in_domain"] == 0, f"{workload}: in-domain failures {report['checks']}")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{workload} trace={trace}: {sorted(set(got) ^ set(units))}")
            if trace == 0:
                names = set(report["metrics"])
                expect(names == REPORT_METRICS[workload], f"{workload}: report has {sorted(names)}")
                expect(all(v["unit"] and v["samples"] >= 1 for v in report["metrics"].values()), f"{workload}: report metric without unit or samples")
                expect("fail_share" in report and report["verify.digest_match"] in (0, 1), f"{workload}: report lacks fail_share or digest")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, attempted {result['attempted']}, failed {result['failed']}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("point-queries", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "benchmark succeeded without the package sources")
    expect(not proc.stdout.strip(), "benchmark printed a result without the package sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_point_oracles()
    check_gauge_oracle()
    print("ok  oracles accept in-domain outputs and reject nudged ones")
    check_refclock()
    print("ok  reference clock probes and converts")
    check_bare_directory()
    print("ok  no result without the package sources")
    check_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
