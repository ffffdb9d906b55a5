"""Outside-in layer trace: wrap collapsim's public functions in spans.

Each wrapper records a span (name, start, end, parent) in memory; the
worker writes them out when the repetition ends.  A traced function that
no longer exists raises ``TraceError`` instead of silently reading zero.
Spans use one stack, so tracing assumes a single-threaded run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module under collapsim, attribute path in that module)
TRACED = {
    "noise.wiener_increment_block": ("noise", "wiener_increment_block"),
    "diffusion.step_batch": ("diffusion", "CslStepper.step_batch"),
    "diffusion.run_ensemble": ("diffusion", "run_ensemble"),
    "schrodinger.split_step_batch": ("schrodinger", "split_step_batch"),
    "hitting.run_qmsl_ensemble": ("hitting", "run_qmsl_ensemble"),
    "cooking.systematic_resample": ("cooking", "systematic_resample"),
    "cooking.linear_exact_commuting": ("cooking", "linear_exact_commuting"),
    "epr.epr_nonlinear_experiment": ("epr", "epr_nonlinear_experiment"),
    "epr.epr_linear_experiment": ("epr", "epr_linear_experiment"),
}


class TraceError(Exception):
    """A traced function is missing, so the trace would be incomplete."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, name: str, fn, observe=None):
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments)
            return result

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds, and self seconds (busy
        minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child[i]
        return out


def _noise_block(tracer: Tracer, a: dict) -> None:
    # bytes the (steps, n, channels) float64 block occupies, computed from args
    size = int(a["steps"]) * len(a["traj_indices"]) * int(a["channels"]) * 8
    tracer.counters["noise.block_bytes"] = tracer.counters.get("noise.block_bytes", 0) + size


def _resample(tracer: Tracer, a: dict) -> None:
    logw = np.asarray(a["log_weights"], dtype=float)
    top = logw.max()
    w = np.exp(logw - top)
    ess_frac = float(w.sum() ** 2 / np.sum(w * w) / logw.size)
    c = tracer.counters
    c["cooking.ess_frac_min"] = min(c.get("cooking.ess_frac_min", 1.0), ess_frac)
    c["cooking.culled"] = c.get("cooking.culled", 0) + int(
        np.sum(logw < top - float(a["cull_nats"]))
    )


OBSERVERS = {
    "noise.wiener_increment_block": _noise_block,
    "cooking.systematic_resample": _resample,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, value) of collapsim.<module_name>.<path>."""
    *owner_path, attr = path.split(".")
    try:
        owner = importlib.import_module(f"collapsim.{module_name}")
        for part in owner_path:
            owner = getattr(owner, part)
        value = getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise TraceError(f"collapsim.{module_name}.{path} is missing: {exc}") from exc
    return owner, attr, value


def install(tracer: Tracer) -> None:
    """Replace every traced function, wherever collapsim refers to it, and
    each experiment runner, with a span-recording wrapper."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "collapsim"]
    for name, (module_name, path) in TRACED.items():
        owner, attr, original = _resolve(module_name, path)
        wrapped = tracer.wrap(name, original, OBSERVERS.get(name))
        setattr(owner, attr, wrapped)
        # names bound by `from .module import function` elsewhere in the package
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    _, _, runners = _resolve("experiments", "RUNNERS")
    for key, runner in runners.items():
        runners[key] = tracer.wrap("experiments.runner", runner)
