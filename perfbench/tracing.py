"""Spans around kdeband's layer functions, and the per-layer figures they give.

During a traced request the tracer replaces module-level names that the
library looks up at call time (``kdeband.roughness.build_grid_1d`` and the
like) with wrappers that record a span, then puts the originals back.  The
library's files are not edited.  A target that no longer exists, say after
a rename, is listed as absent and the run goes on without it.

Each span keeps four clock readings: ``tw0``/``tw1`` bracket the whole
wrapper and ``t0``/``t1`` the wrapped call.  The difference is the tracer's
own bookkeeping (stack handling, counting non-zero kernel values), which is
taken out of every enclosing span, so a layer's self time is its span minus
its children and minus the tracing done inside it.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  Each attribute is a module-level name
# that the library resolves when it is called, so replacing it reaches
# every caller inside the package.
TARGETS = (
    ("kdeband.cli", "select_bandwidth_1d", "selector.select"),
    ("kdeband.selector", "corrected_roughness_1d", "roughness.corrected"),
    ("kdeband.selector", "corrected_roughness_3d", "roughness.corrected"),
    ("kdeband.selector", "optimal_bandwidth_1d", "selector.update"),
    ("kdeband.selector", "optimal_bandwidth_3d", "selector.update"),
    ("kdeband.roughness", "build_grid_1d", "estimator.deposit"),
    ("kdeband.roughness", "build_grid_3d", "estimator.deposit"),
    ("kdeband.roughness", "second_derivative_grid", "estimator.stencil"),
    ("kdeband.roughness", "laplacian_grid", "estimator.stencil"),
    ("kdeband.roughness", "integrate_squared_1d", "estimator.quadrature"),
    ("kdeband.roughness", "integrate_squared_3d", "estimator.quadrature"),
    ("kdeband.estimator", "eval_kernel_1d", "kernels.eval"),
    ("kdeband.estimator", "eval_kernel_3d_radial", "kernels.eval"),
)

_clock = time.perf_counter


class Span:
    """One timed call.  ``seconds`` is valid whether or not it was recorded."""

    __slots__ = ("tracer", "id", "name", "parent", "request", "tw0", "t0", "t1", "tw1",
                 "counts", "dur", "self_s", "ovh")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.counts = {}
        self.t0 = self.t1 = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def __enter__(self):
        self.tracer._open(self)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc):
        self.t1 = _clock()
        self.tracer._close(self)
        return False

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "start": self.t0, "end": self.t1,
            "wrapper_start": self.tw0, "wrapper_end": self.tw1, **self.counts,
        }


def count_select(span: Span, trace) -> None:
    """Plug-in updates and backoffs of a returned BandwidthTrace."""
    steps = getattr(trace, "iterations", ())
    backoffs = sum(1 for step in steps if getattr(step, "backoff_applied", False))
    span.counts.update(updates=len(steps) - backoffs, backoffs=backoffs)


def _count_deposit(span: Span, args, grid) -> None:
    span.counts.update(points=int(getattr(args[0], "size_Np", 0)),
                       nodes=int(np.size(grid.values)))


def _count_kernel(span: Span, args, values) -> None:
    span.counts.update(evals=int(np.size(values)), nonzero=int(np.count_nonzero(values)))


_COUNTERS = {
    "selector.select": lambda span, args, out: count_select(span, out),
    "estimator.deposit": _count_deposit,
    "kernels.eval": _count_kernel,
}


class Tracer:
    """Keeps spans in memory; records only inside :meth:`request`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.alloc_peaks_mb: list[float] = []
        self._stack: list[Span] = []
        self._patches: list = []
        self._request = None

    def span(self, name: str) -> Span:
        """A benchmark-side span: ``with tracer.span("estimator.eval") as sp: ...``."""
        return Span(self, name)

    def _open(self, span: Span) -> None:
        span.tw0 = _clock()
        if self._request is not None:
            span.id = len(self.spans)
            span.parent = self._stack[-1].id if self._stack else None
            span.request = self._request
            self.spans.append(span)
            self._stack.append(span)

    def _close(self, span: Span) -> None:
        if self._request is not None and self._stack and self._stack[-1] is span:
            self._stack.pop()
        span.tw1 = _clock()

    def _wrap(self, fn, name):
        count = _COUNTERS.get(name)
        measure_alloc = name == "estimator.deposit"

        def traced(*args, **kwargs):
            span = Span(self, name)
            self._open(span)
            base = None
            if measure_alloc and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = _clock()
            try:
                if base is not None:
                    self.alloc_peaks_mb.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
                if count is not None:
                    count(span, args, out)
            finally:
                self._close(span)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))
            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    @contextmanager
    def request(self, request_id):
        """Wrap the targets and record spans for the duration of one request."""
        self.install()
        self._request = request_id
        try:
            yield self
        finally:
            self._request = None
            self._stack.clear()
            self.uninstall()


def _settle(spans: list[Span]) -> None:
    """Fill ``dur`` (span minus tracing inside it) and ``self_s`` (minus children)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for s in reversed(spans):  # a child is always created after its parent
        kids = children[s.id]
        s.ovh = sum((k.tw1 - k.tw0) - (k.t1 - k.t0) + k.ovh for k in kids)
        s.dur = (s.t1 - s.t0) - s.ovh
        s.self_s = s.dur - sum(k.dur for k in kids)


def request_figures(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per-layer figures of each traced request, keyed by request id."""
    _settle(spans)
    by_id = {s.id: s for s in spans}
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        f = out[s.request]
        c = s.counts
        if s.name == "cli.main":
            f["cli.self_s"] += s.self_s
        elif s.name == "selector.select":
            f["selector.self_s"] += s.self_s
            f["selector.updates"] += c.get("updates", 0)
            f["selector.backoffs"] += c.get("backoffs", 0)
        elif s.name == "selector.update":
            f["selector.update_s"] += s.dur
        elif s.name == "roughness.corrected":
            f["roughness.calls"] += 1
            f["roughness.self_s"] += s.self_s
        elif s.name == "estimator.deposit":
            f["estimator.deposit_s"] += s.dur
            f["estimator.deposit_calls"] += 1
            f["_deposit_points"] += c.get("points", 0)
            f["estimator.grid_nodes"] += c.get("nodes", 0)
        elif s.name == "estimator.stencil":
            f["estimator.stencil_s"] += s.dur
        elif s.name == "estimator.quadrature":
            f["estimator.quadrature_s"] += s.dur
        elif s.name == "estimator.eval":
            f["estimator.eval_self_s"] += s.self_s
            f["estimator.eval_queries"] += c.get("queries", 0)
        elif s.name == "kernels.eval":
            parent = by_id.get(s.parent)
            where = {"estimator.deposit": "deposit", "estimator.eval": "eval"}.get(
                parent.name if parent else None)
            if where:
                f[f"kernels.evals_in_{where}"] += c.get("evals", 0)
                f[f"_nonzero_in_{where}"] += c.get("nonzero", 0)
                f[f"kernels.s_in_{where}"] += s.dur
    for f in out.values():
        points = f.pop("_deposit_points", 0)
        f["estimator.deposit_ns_per_point"] = 1e9 * f["estimator.deposit_s"] / points if points else 0.0
        for where in ("deposit", "eval"):
            nonzero = f.pop(f"_nonzero_in_{where}", 0)
            evals = f[f"kernels.evals_in_{where}"]
            f[f"kernels.nonzero_frac_{where}"] = nonzero / evals if evals else 0.0
        attempts = f["selector.updates"] + f["selector.backoffs"]
        f["selector.useful_frac"] = f["selector.updates"] / attempts if attempts else 0.0
    return out
