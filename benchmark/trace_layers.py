"""Span tracer that wraps gaussdist's public functions from outside.

Every public function of the six layer modules, and every public method
of their public classes, is replaced by a wrapper that records a span
(layer, function, start, end, parent span, op).  Modules bind each
other's functions with ``from .x import y``, so the wrapper is installed
at every module attribute that holds the original function, not just in
the defining module.  Spans stay in memory and are saved at the end;
counters that need the call's arguments (elements per regime, draws,
pairs) are taken at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

LAYERS = ("specfun", "distribution", "moments", "montecarlo", "diagnostics", "cli")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_gamma(counters, args, kwargs) -> None:
    a = float(_arg(args, kwargs, 0, "a"))
    x = np.asarray(_arg(args, kwargs, 1, "x"), dtype=float)
    series = int(np.count_nonzero(x < a + 1.0))
    counters["specfun.elements"] += x.size
    counters["specfun.series_elements"] += series
    counters["specfun.cf_elements"] += x.size - series


def _count_quantile(counters, args, kwargs) -> None:
    counters["distribution.quantile_points"] += int(np.size(_arg(args, kwargs, 1, "p")))


def _count_sample(counters, args, kwargs) -> None:
    counters["distribution.sample_draws"] += int(_arg(args, kwargs, 1, "n"))


def _count_simulate(counters, args, kwargs) -> None:
    k = int(float(_arg(args, kwargs, 0, "k")))
    counters["montecarlo.simulated_normals"] += 2 * int(_arg(args, kwargs, 1, "n")) * k


def _count_pairs(counters, args, kwargs) -> None:
    rows = int(np.shape(_arg(args, kwargs, 0, "data").data)[0])
    counters["diagnostics.pairs"] += rows * (rows - 1) // 2


# Argument counters, keyed by (layer, qualified name).
COUNTERS = {
    ("specfun", "reg_gamma_p"): _count_gamma,
    ("specfun", "reg_gamma_q"): _count_gamma,
    ("distribution", "DistanceDistribution.quantile"): _count_quantile,
    ("distribution", "DistanceDistribution.sample"): _count_sample,
    ("montecarlo", "simulate_pairs"): _count_simulate,
    ("diagnostics", "pairwise_distances"): _count_pairs,
}
PEAK_MEMORY = ("diagnostics", "pairwise_distances")


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.layer = array("b")
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.op_bytes_in = array("q")
        self.op_bytes_out = array("q")
        self._local = threading.local()
        self._quantile_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- op boundaries, called by the pass runner ---------------------------

    def begin_op(self, bytes_in: int) -> None:
        self.op_bytes_in.append(bytes_in)
        self.op_bytes_out.append(0)

    def end_op(self, bytes_out: int) -> None:
        self.op_bytes_out[-1] = bytes_out

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, qualname: str, fn):
        layer_id = LAYERS.index(layer)
        name_id = len(self.names)
        self.names.append((layer, qualname))
        count = COUNTERS.get((layer, qualname))
        peak = (layer, qualname) == PEAK_MEMORY
        is_quantile = qualname == "DistanceDistribution.quantile"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            index = len(tracer.start)
            tracer.layer.append(layer_id)
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.op.append(len(tracer.op_bytes_in) - 1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(index)
            if count is not None:
                count(tracer.counters, args, kwargs)
            if layer_id == 0 and tracer._quantile_depth:
                tracer.counters["distribution.specfun_calls_in_quantile"] += 1
            if is_quantile:
                tracer._quantile_depth += 1
            if peak:
                tracemalloc.start()
            tracer.start[index] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                entry = parent < 0 or tracer.layer[parent] != layer_id
                if layer_id == 0 and entry and type(exc).__name__ == "ConvergenceError":
                    tracer.counters["specfun.errors"] += 1
                raise
            finally:
                tracer.end[index] = time.perf_counter()
                if peak:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.counters["diagnostics.pairwise_peak_bytes"] = max(
                        tracer.counters["diagnostics.pairwise_peak_bytes"], used)
                if is_quantile:
                    tracer._quantile_depth -= 1
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method, at every binding site."""
        modules = [sys.modules[f"gaussdist.{layer}"] for layer in LAYERS]
        sites = [m for name, m in sys.modules.items()
                 if name == "gaussdist" or name.startswith("gaussdist.")]
        for layer, module in zip(LAYERS, modules):
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, attr, obj)
                    for site in sites:
                        for name, value in list(vars(site).items()):
                            if value is obj:
                                self._patch(site, name, wrapper)
                elif inspect.isclass(obj):
                    for name, value in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(value):
                            self._patch(obj, name, self._wrap(layer, f"{attr}.{name}", value))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            layer=np.array(self.layer, dtype=np.int8),
            name=np.array(self.name, dtype=np.int16),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            op_bytes_in=np.array(self.op_bytes_in, dtype=np.int64),
            op_bytes_out=np.array(self.op_bytes_out, dtype=np.int64),
            names=np.array([f"{layer}:{name}" for layer, name in self.names]),
            counter_keys=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)],
                                    dtype=np.float64),
        )
