"""One fresh interpreter of the benchmark; started by run.py, never by hand.

    child.py setup WORKLOAD
        import the package and build what the workload uses, then exit
    child.py run WORKLOAD SEED SECONDS
        measure gauge-section or point-queries for SECONDS
    child.py verify SEED OUT_FILE
        one ``verify all --seed SEED`` through ``cosetrep.cli.main``, its
        report written to OUT_FILE; exits with the CLI's exit code
    child.py once WORKLOAD SEED OUT_DIR TRACE
        set-up plus one pass (for verify-cold: one ``verify all`` through
        ``cosetrep.cli.main``, its report written to OUT_DIR); with TRACE=1
        the layers are traced and the spans written to OUT_DIR

Each mode but ``once`` runs under the reference clock (see refclock.py),
started before the package is imported, and prints one JSON object on
stdout: ``setup`` and ``verify`` print the clock's lifetime figures, for
run.py to rescale the wall time it measured.  The package comes from
PYTHONPATH, which run.py points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from refclock import PERIOD_S, SHORT_PERIOD_S, RefClock


def setup(workload: str) -> dict:
    """Build every algebra and stabilizer rep the workload uses.

    Returns {(rep kind, m): (algebra, rep)} for gauge-section.  Kept apart
    from workloads.py so that a set-up probe imports only the package; the
    pairs must match workloads.GAUGE_SECTIONS and the point-queries mix.
    """
    import cosetrep as cr

    if workload == "verify-cold":
        import cosetrep.cli  # noqa: F401

        return {}
    if workload == "gauge-section":
        return {
            ("vector", 3): (cr.so1m_algebra(3), cr.vector_hrep(3)),
            ("spinor", 5): (cr.so1m_algebra(5), cr.spinor_hrep(5)),
        }
    if workload == "point-queries":
        for m in (3, 5, 8):
            cr.so1m_algebra(m)
            cr.vector_hrep(m)
            if m <= 5:
                cr.spinor_hrep(m)
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def _inputs(workload: str, seed: int):
    import workloads

    if workload == "gauge-section":
        return workloads.GaugeSection(seed)
    return workloads.PointQueries(seed)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Closed-loop measurement after set-up, under the reference clock.

    ``ops_per_s`` is units of work (node-steps, or point queries) divided by
    the reference seconds spent inside the library.  On gauge-section
    ``p50_ms`` and ``tail_ms`` are percentiles of the time of a pass; on
    point-queries they are percentiles of the call times within each pass
    of the request list, and the median of those over the passes.  The
    ``raw_`` figures are the same from wall time.
    """
    from common import p50_tail

    wl = _inputs(workload, seed)
    clock = RefClock()
    clock.start()
    built = setup(workload)
    timed = wl.run(built, seconds, clock)
    clock.stop()

    def raw(a, b):
        return b[0] - a[0] - (b[1] - a[1])

    result = {"speed": clock.lifetime()["factor"]}
    for prefix, sec in (("", clock.reference), ("raw_", raw)):
        if workload == "gauge-section":
            pass_s = [sum(sec(a, b) for a, b in calls) for calls, _ in timed]
            units = sum(n for _, n in timed)
            p50, tail = p50_tail([x * 1e3 for x in pass_s])
            busy, samples = sum(pass_s), len(timed)
        else:
            per_pass = [[sec(a, b) for a, b in calls] for calls in timed]
            units = samples = sum(map(len, per_pass))
            busy = sum(map(sum, per_pass))
            pcts = [p50_tail([x * 1e3 for x in calls]) for calls in per_pass]
            p50 = statistics.median(p for p, _ in pcts)
            tail = statistics.median(t for _, t in pcts)
        result.update({f"{prefix}p50_ms": p50, f"{prefix}tail_ms": tail, f"{prefix}ops_per_s": units / busy})
    result["samples"] = samples
    return {**result, **wl.summary()}


def once(workload: str, seed: int, out_dir: Path, traced: bool) -> dict:
    """Set-up plus one pass, timed as a whole, optionally traced."""
    import cosetrep.cli

    from common import verify_args, verify_problem

    wl = None if workload == "verify-cold" else _inputs(workload, seed)
    clock = RefClock()  # never started: marks only
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    built = setup(workload)
    if wl is not None:
        wl.run(built, 0.0, clock, one_pass=True)
    else:
        report = out_dir / f"verify-once-seed{seed}-trace{int(traced)}.json"
        rc = cosetrep.cli.main(verify_args(seed, report))
    wall = time.perf_counter() - t0
    if wl is not None:
        result = wl.summary()
    else:
        problem = verify_problem(report, rc)
        result = {"attempted": 1, "failed": int(problem is not None), "failed_in_domain": int(problem is not None), "problem": problem}
    result["wall_s"] = wall
    if tracer is not None:
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.tsv")
        result["per_layer"] = tracer.per_layer()
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    rc = 0
    if mode in ("setup", "verify"):
        clock = RefClock(SHORT_PERIOD_S if mode == "setup" else PERIOD_S)
        clock.start()
        if mode == "setup":
            setup(argv[1])
        else:
            import cosetrep.cli

            from common import verify_args

            rc = cosetrep.cli.main(verify_args(int(argv[1]), Path(argv[2])))
        clock.stop()
        result = clock.lifetime()
    elif mode == "run":
        result = measure(argv[1], int(argv[2]), float(argv[3]))
    elif mode == "once":
        result = once(argv[1], int(argv[2]), Path(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
