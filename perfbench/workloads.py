"""The benchmark's workloads: inputs drawn from the seed, one request, checks.

Every workload is a closed loop of requests from one user, on one thread.
A run draws ``SAMPLES_PER_RUN`` samples from its seed and sends requests to
them in turn, so a run's figure is not tied to one sample's update count.
Sample ``j`` comes from the sampler called with ``seed + j * 2**32``:
sample 0 is the seed's own, and the samples of two seeds below ``2**32``
never coincide.  Repeated requests on a sample must return bit-identical
results.  All workloads use the TSC kernel.

``BENCHMARKED`` are the workloads ``BENCHMARK.json`` declares.  The
trimodal and Hernquist workloads stay runnable by name: on a few per cent of
seeds kdeband fails their checks (see ``perfbench/README.md``), so they show
that defect and are not benchmarked.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from tracing import count_select

SAMPLES_PER_RUN = 8  # one in smoke mode
SAMPLE_SEED_STRIDE = 2**32
CROSS_LAYER_TOLERANCE = 1e-12
FIXED_POINT_TOLERANCE = 1e-3  # Acceptance 7's residual bound


@dataclass
class Outcome:
    h: float
    converged: bool
    select_s: float
    eval_s: float | None = None
    density: np.ndarray | None = None

    def same_as(self, other: Outcome) -> bool:
        """Bit-identical bandwidth and density values."""
        if self.h != other.h or (self.density is None) != (other.density is None):
            return False
        return self.density is None or np.array_equal(self.density, other.density)


def gated(value: float, limit: float) -> dict:
    return {"ran": True, "ok": bool(value <= limit), "value": value, "limit": limit}


class Workload:
    name: str
    dim: int
    full_Np: int
    smoke_Np: int
    cross_layer_nodes: int  # seeded subset size when the grid has more nodes
    max_rel_err: float | None  # the acceptance suite's tolerance; None: reported, not gated

    def __init__(self, kd, seed: int, smoke: bool, work: str):
        self.kd = kd
        self.seed = seed
        self.Np = self.smoke_Np if smoke else self.full_Np
        self.sample_seeds = [seed + j * SAMPLE_SEED_STRIDE
                             for j in range(1 if smoke else SAMPLES_PER_RUN)]
        self.work = work
        self.kernel = getattr(kd, f"kernel_constants_{self.dim}d")("tsc")
        self.input_mb = 0.0
        self.samples = []
        self.sample_s = None

    def setup(self) -> None:
        """What a user does before the first request; timed in a fresh process."""
        self.draw()

    def prepare(self) -> None:
        """What the requests need in memory beyond the set-up's result."""
        self.draw()

    def draw(self) -> None:
        """Draw the run's samples in memory, timing the sampler."""
        t0 = time.perf_counter()
        self.samples = [self._sampler(s) for s in self.sample_seeds]
        self.sample_s = time.perf_counter() - t0

    def describe(self) -> dict:
        return {"Np": self.Np, "kernel": "tsc", "sample_seeds": self.sample_seeds}

    def cross_layer(self, j: int, h: float) -> dict:
        """Direct evaluation at deposit-grid nodes must reproduce the grid values."""
        build = getattr(self.kd, f"build_grid_{self.dim}d")
        estimate = getattr(self.kd, f"estimate_density_{self.dim}d")
        sample = self.samples[j]
        grid = build(sample, self.kernel, h)
        values = np.asarray(grid.values)
        nodes = np.flatnonzero(values)
        if nodes.size > self.cross_layer_nodes:
            rng = np.random.default_rng(self.sample_seeds[j])
            nodes = np.sort(rng.choice(nodes, self.cross_layer_nodes, replace=False))
        index = np.stack(np.unravel_index(nodes, values.shape), axis=1)
        coords = np.atleast_1d(grid.origin) + grid.spacing * index
        direct = estimate(sample, self.kernel, h, coords[:, 0] if self.dim == 1 else coords)
        err = float(np.max(np.abs(direct - values.reshape(-1)[nodes])) / values.max())
        return {**gated(err, CROSS_LAYER_TOLERANCE), "nodes": int(nodes.size)}

    def h_rel_err(self, refs: list[Outcome]) -> tuple[dict, float]:
        """Mean |h - h_opt| / h_opt over the run's samples, and its check.

        The acceptance suite gates the mean over seeds, not each seed: one
        1D Gaussian sample in a few hundred lands above 5% at Np=1e6 while
        the mean stays near 1.5%.
        """
        oracle = self.kd.reference.analytic_optimal_bandwidth(
            self.law(), self.kernel, self.Np, self.dim)
        errs = [abs(ref.h - oracle) / oracle for ref in refs]
        mean = float(np.mean(errs))
        if self.max_rel_err is None:
            check = {"ran": True, "ok": True, "value": mean, "limit": None}
        else:
            check = gated(mean, self.max_rel_err)
        return {**check, "samples": errs}, mean


class DensityWorkload(Workload):
    """Library call: select the bandwidth, then evaluate the density at fixed queries."""

    def __init__(self, *args):
        super().__init__(*args)
        self.select = getattr(self.kd, f"select_bandwidth_{self.dim}d")
        self.estimate = getattr(self.kd, f"estimate_density_{self.dim}d")
        self.queries = self.make_queries()

    def request(self, tracer, j: int) -> Outcome:
        sample = self.samples[j]
        with tracer.span("selector.select") as sel:
            trace = self.select(sample, self.kernel)
        count_select(sel, trace)
        with tracer.span("estimator.eval") as ev:
            density = self.estimate(sample, self.kernel, trace.final_h, self.queries)
        ev.counts["queries"] = len(self.queries)
        return Outcome(trace.final_h, trace.converged, sel.seconds, ev.seconds, density)

    def checks(self, refs: list[Outcome]):
        checks = {}
        checks["h_rel_err"], err = self.h_rel_err(refs)
        for j, ref in enumerate(refs):
            checks[f"cross_layer#{j}"] = self.cross_layer(j, ref.h)
        return checks, err


class Gauss1dDensity(DensityWorkload):
    """1D deposit and 1D direct evaluation share the request; 3D and CLI idle."""

    name = "gauss-1d-density"
    dim = 1
    full_Np = 1_000_000
    smoke_Np = 100_000
    cross_layer_nodes = 1024
    max_rel_err = 0.05

    def _sampler(self, seed):
        return self.kd.samplers.sample_gaussian_1d(self.Np, seed)

    def law(self):
        return self.kd.reference.gaussian_1d()

    def make_queries(self):
        return np.linspace(-5.0, 5.0, 801)

    def describe(self):
        return {**super().describe(), "queries": "801 evenly spaced on [-5, 5]"}


class TrimodalDensity(DensityWorkload):
    """As ``gauss-1d-density``, on a trimodal mixture over a wider range."""

    name = "trimodal-1d-density"
    dim = 1
    full_Np = 1_000_000
    smoke_Np = 100_000
    cross_layer_nodes = 1024
    max_rel_err = 0.08

    def _sampler(self, seed):
        return self.kd.samplers.sample_trimodal(self.Np, seed)

    def law(self):
        return self.kd.reference.trimodal_1d()

    def make_queries(self):
        return np.linspace(-8.0, 8.0, 2001)

    def describe(self):
        return {**super().describe(), "queries": "2001 evenly spaced on [-8, 8]"}


class Gauss3dDensity(DensityWorkload):
    """3D deposit and the 3D per-query loop take the request; 1D and CLI idle."""

    name = "gauss-3d-density"
    dim = 3
    full_Np = 200_000
    smoke_Np = 20_000
    cross_layer_nodes = 256
    max_rel_err = 0.05

    def _sampler(self, seed):
        return self.kd.samplers.sample_gaussian_3d(self.Np, seed)

    def law(self):
        return self.kd.reference.gaussian_3d()

    def make_queries(self):
        return np.random.default_rng(self.seed + 1).standard_normal((500, 3))

    def describe(self):
        return {**super().describe(), "queries": "500 standard normal, seed + 1"}


class CliWorkload(Workload):
    """``kdeband select`` on sample files that ``kdeband sample`` wrote at set-up.

    The request runs the CLI in-process: the text load, then the selection;
    no direct evaluation.
    """

    generator: str  # the ``kdeband sample --generator`` name

    def __init__(self, *args):
        super().__init__(*args)
        self.cli = importlib.import_module("kdeband.cli")
        self.paths = [os.path.join(self.work, f"{self.generator}-{j}.dat")
                      for j in range(len(self.sample_seeds))]
        self.report = os.path.join(self.work, "select.json")

    def setup(self):
        for seed, path in zip(self.sample_seeds, self.paths):
            rc = self.cli.main(["sample", "--generator", self.generator, "--np", str(self.Np),
                                "--seed", str(seed), "--out", path])
            if rc != 0:
                raise RuntimeError(f"kdeband sample exited with {rc}")

    def prepare(self):
        """Nothing: every request reads its file."""

    def request(self, tracer, j: int) -> Outcome:
        if os.path.exists(self.report):
            os.remove(self.report)
        argv = ["select", "--input", self.paths[j], "--dim", "1", "--kernel", "tsc",
                "--out", self.report]
        with tracer.span("cli.main"):
            rc = self.cli.main(argv)
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        return Outcome(report["selected_h"], rc == 0 and report["converged"] is True,
                       report["wall_time_ms"] / 1e3)

    def checks(self, refs: list[Outcome]):
        # The in-memory copies of the files' samples are drawn only now, so
        # they do not count in the requests' peak RSS.
        self.draw()
        self.input_mb = sum(os.path.getsize(p) for p in self.paths) / len(self.paths) / 2**20
        kd = self.kd
        checks = {}
        checks["h_rel_err"], err = self.h_rel_err(refs)
        for j, ref in enumerate(refs):
            sample, h = self.samples[j], ref.h
            library = kd.select_bandwidth_1d(sample, self.kernel)
            h_next = kd.optimal_bandwidth_1d(
                kd.corrected_roughness_1d(sample, self.kernel, h).corrected, self.kernel, self.Np)
            checks[f"cli_matches_library#{j}"] = {
                "ran": True, "value": library.final_h,
                "ok": bool(library.converged and library.final_h == h)}
            checks[f"fixed_point_residual#{j}"] = gated(abs(h_next - h) / h, FIXED_POINT_TOLERANCE)
            checks[f"cross_layer#{j}"] = self.cross_layer(j, h)
        return checks, err


class Gauss1dCli(CliWorkload):
    """The CLI text load and a 1D selection; direct evaluation and 3D idle."""

    name = "gauss-1d-cli"
    generator = "gauss1d"
    dim = 1
    full_Np = 500_000  # a set-up writes eight files of this many lines
    smoke_Np = 100_000
    cross_layer_nodes = 1024
    max_rel_err = 0.05

    def _sampler(self, seed):
        return self.kd.samplers.sample_gaussian_1d(self.Np, seed)

    def law(self):
        return self.kd.reference.gaussian_1d()


class HernquistCli(CliWorkload):
    """``kdeband select`` on truncated-Hernquist files.

    The heavy-tailed, mostly empty grid takes 10 to 16 plug-in updates, so
    per-iteration cost dominates.  The selected h sits about 40% below the
    interior-curvature oracle by design, so ``h_rel_err`` is reported but
    not gated here; the fixed-point residual is gated instead.
    """

    name = "hernquist-1d-cli"
    generator = "hernquist"
    dim = 1
    full_Np = 1_050_000
    smoke_Np = 100_000
    cross_layer_nodes = 1024
    max_rel_err = None

    def params(self):
        return self.kd.samplers.HernquistParams()

    def _sampler(self, seed):
        return self.kd.samplers.sample_hernquist_radii(self.Np, self.params(), seed)

    def law(self):
        p = self.params()
        rc = p.scale_length_rc
        return self.kd.reference.hernquist_radial_pdf(
            rc=rc, r_window=(p.truncation_min_r_over_rc * rc, p.truncation_max_r_over_rc * rc))


BENCHMARKED = (Gauss1dDensity, Gauss1dCli, Gauss3dDensity)
WORKLOADS = {w.name: w for w in (*BENCHMARKED, TrimodalDensity, HernquistCli)}
