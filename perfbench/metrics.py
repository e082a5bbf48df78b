"""Metric names and units, and the helpers that format them.

The ``DECLARED_*`` tables are the metrics on the result line (the last line
of standard output) and must match ``BENCHMARK.json``; ``run.py --smoke``
checks that they do.  The ``DETAIL_*`` tables hold the remaining metrics,
printed on the line before it: they are either not defined on every
workload (``eval_s``, the direct-evaluation and CLI layers), read 0 where
nothing went wrong (``failed_frac``), or move with the drawn data more than
a run-to-run bound allows: ``h_rel_err`` (gated by a correctness check
instead), ``select_s`` (the 1D Gaussian sample of one seed takes 3 plug-in
updates, of the next 5), and ``request_s`` and ``setup_wall_s``, which
follow the load of the host's other tenants (``request_per_gauge`` and
``setup_s`` are on the result line instead; see ``gauge.py`` and
``run.GAUGE_REFERENCE_S``).
"""

from __future__ import annotations

DECLARED_END_TO_END = {
    "request_per_gauge": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

DETAIL_END_TO_END = {
    "request_s": "s",
    "gauge_s": "s",
    "setup_wall_s": "s",
    "select_s": "s",
    "eval_s": "s",
    "request_s_tail": "s",
    "h_rel_err": "ratio",
    "failed_frac": "ratio",
}

DECLARED_PER_LAYER = {
    "estimator.deposit_s": "s",
    "estimator.deposit_calls": "count",
    "estimator.deposit_ns_per_point": "ns",
    "estimator.grid_nodes": "count",
    "estimator.deposit_peak_alloc_mb": "MB",
    "estimator.stencil_s": "s",
    "estimator.quadrature_s": "s",
    "kernels.evals_in_deposit": "count",
    "kernels.s_in_deposit": "s",
    "kernels.nonzero_frac_deposit": "ratio",
    "selector.updates": "count",
    "selector.backoffs": "count",
    "selector.useful_frac": "ratio",
    "selector.self_s": "s",
    "selector.update_s": "s",
    "roughness.calls": "count",
    "roughness.self_s": "s",
    "samplers.sample_s": "s",
    "trace_overhead_frac": "ratio",
}

DETAIL_PER_LAYER = {
    "estimator.eval_self_s": "s",
    "estimator.eval_queries": "count",
    "kernels.evals_in_eval": "count",
    "kernels.s_in_eval": "s",
    "kernels.nonzero_frac_eval": "ratio",
    "cli.self_s": "s",
    "cli.input_mb": "MB",
}


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest order statistic with at least 10 samples above it, and its percentile.

    ``(None, None)`` when there are 10 samples or fewer.
    """
    n = len(values)
    if n <= 10:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def figure(value, unit: str) -> dict:
    return {"value": value, "unit": unit}
