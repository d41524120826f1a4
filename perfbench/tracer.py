"""Spans around calls into the package's layers, recorded from outside it.

:func:`install` replaces each traced public function with a wrapper at every
binding site: the attribute in its home module, every ``from ... import``
copy in the other ``cosetrep`` modules (``series`` binds ``bracket`` and
``l_coeffs`` by name, ``verify`` and ``cli`` bind the ``induced`` functions),
and module-level dicts such as ``verify.SUITES``.  Spans are kept in memory
with the id of the span that was open when they started, written out at the
end, and a layer's self time is its spans' duration minus the time covered
by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> (home module, function name) pairs traced under that layer name
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "coeffs.l_coeffs": (("cosetrep.coeffs", "l_coeffs"),),
    "series.weights": (
        ("cosetrep.series", "even_bracket_weights"),
        ("cosetrep.series", "odd_bracket_weights"),
    ),
    "lie.bracket": (("cosetrep.lie", "bracket"),),
    "series.realize": (("cosetrep.series", "realize"),),
    "series.closed_field": (("cosetrep.series", "so1m_closed_field"),),
    "induced.factor": (("cosetrep.induced", "factor_boost_rotation"),),
    "induced.rotation_log": (("cosetrep.induced", "rotation_log_coords"),),
    "induced.induced_action": (("cosetrep.induced", "induced_action"),),
    "induced.hrep_build": (
        ("cosetrep.induced", "vector_hrep"),
        ("cosetrep.induced", "spinor_hrep"),
    ),
    "induced.gauge_step": (("cosetrep.induced", "gauge_transform_section"),),
    "lie.so1m_algebra": (("cosetrep.lie", "so1m_algebra"),),
    "clifford.product": (
        ("cosetrep.clifford", "blade_product"),
        ("cosetrep.clifford", "commutator"),
    ),
}
SUITES = ("coeffs", "clifford", "algebra", "series", "induced", "gauge")
for _s in SUITES:
    LAYERS[f"verify.suite.{_s}"] = (("cosetrep.verify", f"suite_{_s}"),)

# layers whose distinct arguments are counted, to report distinct / calls
_KEYS = {
    "coeffs.l_coeffs": lambda fn, a, kw: a[0] if a else kw.get("N"),
    "induced.hrep_build": lambda fn, a, kw: (fn, a[0] if a else kw.get("m")),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        # [id, parent id or -1, layer, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self._so1m = None
        self._misses_at_install = 0

    def _wrap(self, layer: str, fn):
        key = _KEYS.get(layer)
        spans, stack, name = self.spans, self._stack, fn.__name__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self._keys[layer].add(key(name, args, kwargs))
            rec = [len(spans), stack[-1] if stack else -1, layer, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding site in ``cosetrep``."""
        mods = [m for n, m in sys.modules.items() if n == "cosetrep" or n.startswith("cosetrep.")]
        # so1m_algebra is an lru_cache; its misses count the algebra builds
        self._so1m = sys.modules["cosetrep.lie"].so1m_algebra
        self._misses_at_install = self._so1m.cache_info().misses
        for layer, targets in LAYERS.items():
            for home, attr in targets:
                orig = getattr(sys.modules[home], attr)
                wrapped = self._wrap(layer, orig)
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, name, wrapped)
                        elif isinstance(val, dict):
                            for k, v in list(val.items()):
                                if v is orig:
                                    val[k] = wrapped

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for sid, parent, layer, start, end in self.spans:
                f.write(f"{sid}\t{parent}\t{layer}\t{start!r}\t{end!r}\n")

    def per_layer(self) -> dict[str, float]:
        """calls, self_s (and distinct_ratio, builds, suite .s) per layer."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for sid, _, layer, start, end in self.spans:
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[sid]
            total_s[layer] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            if layer.startswith("verify.suite."):
                out[f"{layer}.s"] = total_s[layer]
                continue
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            if layer in _KEYS:
                n = calls[layer]
                out[f"{layer}.distinct_ratio"] = len(self._keys[layer]) / n if n else 0.0
        out["lie.so1m_algebra.builds"] = self._so1m.cache_info().misses - self._misses_at_install
        return out
