"""Helpers shared by run.py and its child processes."""

from __future__ import annotations

import json
import math


def verify_args(seed: int, out_path) -> list[str]:
    """Arguments of ``cosetrep verify all --seed <seed>`` writing its report to a file."""
    return ["verify", "all", "--seed", str(seed), "--out", str(out_path)]


def verify_problem(report_path, exit_code: int) -> str | None:
    """Why a ``verify all`` run failed its check, or None when it passed.

    The run passes when it exited 0, its report says passed, and every
    checked (non-informational) row passed.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    with open(report_path) as f:
        report = json.load(f)
    rows = report["results"]
    bad = [r["name"] for r in rows if not r["informational"] and not r["passed"]]
    if bad or not report["passed"] or report["n_failed"] != 0:
        return "failed rows: " + ", ".join(bad)
    if not any(not r["informational"] for r in rows):
        return "no checked rows"
    return None


def tail_quantile(n: int) -> float:
    """0.9, or the highest quantile with ten samples beyond it, or the median.

    The 90th percentile needs 100 samples to have ten beyond it; with 20 to
    99 samples the quantile 1 - 10/n is used, with fewer the median.
    """
    if n < 20:
        return 0.5
    return min(0.9, 1.0 - 10.0 / n)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a nonempty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def p50_tail(values: list[float]) -> tuple[float, float]:
    """Median and tail percentile (see tail_quantile) of a nonempty sample."""
    return percentile(values, 0.5), percentile(values, tail_quantile(len(values)))
