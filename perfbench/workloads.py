"""Seeded inputs, timed passes and output checks of the in-process workloads.

gauge-section: flow_section over two seeded sections, 1000 nodes at m=3 with
the vector rep and 200 nodes at m=5 with the spinor rep, series order 11,
t=1, two Euler steps; sigma and xi from the ``verify gauge`` domain
(|sigma_k| <= 0.4, |xi_k| <= 0.5).  One pass flows each section in one
flow_section call.

point-queries: one caller in a closed loop over a fixed list of 994
single-point calls at m in {3, 5, 8} (see _POINT_MIX), with the same count
of each kind and m for every seed; one pass runs the list once, and a run
ends on a pass boundary.  One request in 20 is drawn
from the documented failure-prone tail (|sigma| in [0.5, 1.2] at order 11,
rapidity in [5, 12]); tail parameters are stratified so the number of tail
failures hardly depends on the seed.

Library functions are looked up on the ``cosetrep`` package at call time,
so the tracer's wrappers see every call; the oracles keep the originals.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

import cosetrep as cr
import oracles as orc

# (rep kind, m, nodes); each pass flows each section in one flow_section call
GAUGE_SECTIONS = (("vector", 3, 1000), ("spinor", 5, 200))
GAUGE_T = 1.0
GAUGE_STEPS = 2
ORDER = 11
LONG_ORDER = 61

# The point-queries list is a plain mix of the calls the README quick start
# makes, with assumed weights: the same count for every (kind, m) pair, the
# spinor rep only at m <= 5, and order-61 realize at a quarter the count of
# order-11 realize.  The counts are exact so that every seed runs the same
# work.
POINT_PER_PAIR = 64
_POINT_MIX = {
    **{(kind, m): POINT_PER_PAIR for kind in ("realize", "closed_field", "factor", "induced_vector") for m in (3, 5, 8)},
    **{("induced_spinor", m): POINT_PER_PAIR for m in (3, 5)},
    **{("realize_long", m): POINT_PER_PAIR // 4 for m in (3, 5, 8)},
}
# one request in 20 from the tail, spread evenly over kind and m
_TAIL_MIX = {
    ("realize", 3): 6, ("realize", 5): 6, ("realize", 8): 5,
    ("factor", 3): 6, ("factor", 5): 6, ("factor", 8): 5,
    ("induced_vector", 3): 6, ("induced_vector", 5): 5, ("induced_vector", 8): 5,
}


def _gens(kind: str, m: int) -> np.ndarray:
    return orc.vector_generators(m) if kind == "vector" else orc.spinor_generators(m)


def _unit(rng, m: int) -> np.ndarray:
    v = rng.normal(size=m)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# gauge-section
# ---------------------------------------------------------------------------

class GaugeSection:
    """The two seeded sections, their Euler references and a closed-loop runner."""

    def __init__(self, seed: int) -> None:
        self.cases = []
        for idx, (kind, m, n) in enumerate(GAUGE_SECTIONS):
            rng = np.random.default_rng([seed, 1, idx])
            gens = _gens(kind, m)
            dim = gens.shape[0] + m
            sigma = rng.uniform(-0.4, 0.4, (n, m))
            v = rng.uniform(-1.0, 1.0, (n, gens.shape[-1]))
            xi = rng.uniform(-0.5, 0.5, (n, dim))
            ref = orc.euler_flow_ref(sigma, v, xi, GAUGE_T, GAUGE_STEPS, gens)
            self.cases.append((kind, m, sigma, v, xi, ref))
        self.attempted = sum(n for _, _, n in GAUGE_SECTIONS)
        self.failed: set[tuple[int, int]] = set()
        self.worst = 0.0

    def run(self, built: dict, seconds: float, clock, one_pass: bool = False) -> list[tuple]:
        """Flow both sections, in passes, until one pass is done and `seconds` passed.

        `built` maps (rep kind, m) to the (algebra, stabilizer rep) pair;
        `clock` gives the marks (see refclock.RefClock.mark).  Returns, per
        pass, the (start, end) marks of each flow_section call and the
        pass's node-steps.
        """
        passes = []
        start = time.perf_counter()
        while not passes or not (one_pass or time.perf_counter() - start >= seconds):
            calls, units = [], 0
            for idx, (kind, m, sigma, v, xi, ref) in enumerate(self.cases):
                alg, hrep = built[(kind, m)]
                section = cr.CompositeSection(sigma, v)
                t0 = clock.mark()
                out = cr.flow_section(alg, section, xi, GAUGE_T, GAUGE_STEPS, hrep, ORDER)
                calls.append((t0, clock.mark()))
                units += section.n_nodes * GAUGE_STEPS
                self._check(idx, out, *ref)
            passes.append((calls, units))
        return passes

    def _check(self, idx, out, s_ref, v_ref, radius) -> None:
        dev = np.maximum(np.abs(out.sigma - s_ref).max(axis=1), np.abs(out.v - v_ref).max(axis=1))
        miss = dev / orc.gauge_tol(radius)
        self.worst = max(self.worst, float(miss.max()))
        self.failed.update((idx, int(i)) for i in np.flatnonzero(~(miss <= 1.0)))

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failed),
            "failed_in_domain": len(self.failed),
            "worst_miss_over_tol": self.worst,
        }


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

def _point_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    ops = [_in_domain_op(rng, kind, m) for (kind, m), n in _POINT_MIX.items() for _ in range(n)]
    # stratified tail: the k-th of K tail ops of a (kind, m) draws its radius
    # or rapidity from the k-th of K equal slices of the tail interval
    for (kind, m), n in _TAIL_MIX.items():
        ops += [_tail_op(rng, kind, m, (k + rng.uniform()) / n) for k in range(n)]
    return [ops[i] for i in rng.permutation(len(ops))]


def _xi(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(-0.5, 0.5, m * (m - 1) // 2), rng.uniform(-0.5, 0.5, m)


def _group(rng, m: int, zeta: float) -> np.ndarray:
    angles = rng.uniform(-0.3, 0.3, m * (m - 1) // 2)
    return orc.group_matrix(m, zeta, _unit(rng, m), angles)


def _in_domain_op(rng, kind: str, m: int) -> dict:
    op = {"kind": kind, "m": m, "tail": False}
    if kind in ("realize", "realize_long"):
        op["sigma"] = rng.uniform(0.0, 0.4) * _unit(rng, m)
        op["xh"], op["xf"] = _xi(rng, m)
        op["order"] = ORDER if kind == "realize" else LONG_ORDER
    elif kind == "closed_field":
        op["sigma"] = rng.uniform(0.0, 1.0) * _unit(rng, m)
    else:
        op["g"] = _group(rng, m, rng.uniform(0.0, 3.0))
        if kind.startswith("induced"):
            op["sigma"] = rng.uniform(0.0, 0.4) * _unit(rng, m)
            op["v"] = rng.uniform(-1.0, 1.0, orc.spinor_generators(m).shape[-1] if kind == "induced_spinor" else m)
    return op


def _tail_op(rng, kind: str, m: int, u: float) -> dict:
    op = {"kind": kind, "m": m, "tail": True}
    if kind == "realize":
        op["sigma"] = (0.5 + 0.7 * u) * _unit(rng, m)
        op["xh"], op["xf"] = _xi(rng, m)
        op["order"] = ORDER
    else:
        op["g"] = _group(rng, m, 5.0 + 7.0 * u)
        if kind == "induced_vector":
            op["sigma"] = rng.uniform(0.0, 0.4) * _unit(rng, m)
            op["v"] = rng.uniform(-1.0, 1.0, m)
    return op


def _reference(op: dict):
    kind = op["kind"]
    if kind.startswith("realize"):
        return orc.realize_ref(op["sigma"], op["xh"], op["xf"])
    if kind == "closed_field":
        return orc.closed_field_ref(op["sigma"])
    if kind == "factor":
        return None
    spinor = orc.spinor_generators(op["m"]) if kind == "induced_spinor" else None
    return orc.induced_ref(op["g"], op["sigma"], op["v"], spinor)


def _call(op: dict):
    """One library call, as a caller holding only the op's inputs makes it."""
    kind, m = op["kind"], op["m"]
    if kind.startswith("realize"):
        alg = cr.so1m_algebra(m)
        act = cr.realize(alg, alg.element(h=op["xh"], f=op["xf"]), cr.CosetPoint(op["sigma"]), op["order"])
        return act.dF, act.dI
    if kind == "closed_field":
        return cr.so1m_closed_field(cr.CosetPoint(op["sigma"]))
    if kind == "factor":
        pair = cr.factor_boost_rotation(op["g"])
        return pair.f_prime.sigma, pair.rho
    hrep = cr.vector_hrep(m) if kind == "induced_vector" else cr.spinor_hrep(m)
    point, v = cr.induced_action(op["g"], cr.CosetPoint(op["sigma"]), op["v"], hrep)
    return point.sigma, v


def _error(op: dict, ref, out) -> float:
    """Oracle miss, in units of the op's tolerance (<= 1 passes)."""
    kind = op["kind"]
    if kind == "factor":
        return orc.factor_error(op["g"], out[0], out[1]) / orc.FACTOR_TOL
    diff = max(float(np.abs(np.asarray(a) - b).max()) if np.size(b) else 0.0 for a, b in zip(out, ref))
    if kind.startswith("realize"):
        return diff / orc.REALIZE_TOL
    if kind == "closed_field":
        return diff / orc.CLOSED_FIELD_TOL
    scale = max(1.0, float(np.abs(op["g"]).max())) ** 2
    return diff / scale / orc.INDUCED_TOL


class PointQueries:
    """The fixed request list, its references and a closed-loop runner."""

    def __init__(self, seed: int) -> None:
        self.ops = _point_ops(seed)
        self.refs = [_reference(op) for op in self.ops]
        self.failed: dict[int, str] = {}

    def run(self, built: dict, seconds: float, clock, one_pass: bool = False) -> list[list[tuple]]:
        """Issue requests, in whole passes, until one is done and `seconds` passed.

        `clock` gives the marks (see refclock.RefClock.mark).  Returns the
        (start, end) marks of each call, one list per pass.
        """
        passes = []
        start = time.perf_counter()
        while not passes or not (one_pass or time.perf_counter() - start >= seconds):
            calls = []
            passes.append(calls)
            for idx, op in enumerate(self.ops):
                t0 = clock.mark()
                try:
                    out = _call(op)
                except Exception as exc:  # any raise is a failed request
                    calls.append((t0, clock.mark()))
                    self.failed.setdefault(idx, type(exc).__name__)
                    continue
                calls.append((t0, clock.mark()))
                err = _error(op, self.refs[idx], out)
                if not err <= 1.0:
                    self.failed.setdefault(idx, f"miss x{err:.3g}")
        return passes

    def summary(self) -> dict:
        in_domain = [i for i in self.failed if not self.ops[i]["tail"]]
        by_kind = Counter(
            f"{self.ops[i]['kind']}{'_tail' if self.ops[i]['tail'] else ''}:{why.split(' ')[0]}"
            for i, why in self.failed.items()
        )
        return {
            "attempted": len(self.ops),
            "failed": len(self.failed),
            "failed_in_domain": len(in_domain),
            "tail_ops": sum(op["tail"] for op in self.ops),
            "failures": dict(sorted(by_kind.items())),
        }
