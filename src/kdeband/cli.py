"""Command line driver: selection, validation experiments, tables, samples.

Subcommands
-----------
select      run bandwidth selection on a numeric sample file
experiment  run a named validation study and emit a JSON document
density     tabulate a density estimate as a plain-text table
sample      draw a synthetic sample and write it to a text file

One helper runs every selection and one builds every deposit-grid table,
both under ``--grid-cap`` (so it also bounds ``--emit-curves`` grids).
Flag defaults come from ``SelectorConfig`` and ``HernquistParams``, and
``--np`` takes exact positive integers only (``1e5`` is accepted).

Exit codes: 0 on success, 1 on any usage or data error, 2 when a
selection run finished without converging (outputs are still written).

All outputs are deterministic for fixed inputs and seeds, except the
``wall_time_ms`` field of experiment reports, which records the actual
selection time of the run that produced the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from .errors import KdebandError, _check_count
from .estimator import Sample, build_grid, estimate_density
from .kernels import kernel_constants
from .reference import (
    _hernquist_window_norm,
    analytic_optimal_bandwidth,
    eval_density,
    gaussian_1d,
    gaussian_3d,
    hernquist_profile,
    hernquist_radial_pdf,
    profile_from_radial_pdf,
    trimodal_1d,
    tsc_density_1d,
)
from .samplers import (
    RNG_NAME,
    HernquistParams,
    sample_gaussian_1d,
    sample_gaussian_3d,
    sample_hernquist_radii,
    sample_trimodal,
    sample_tsc_density,
)
from .selector import BandwidthTrace, SelectorConfig, select_bandwidth

__all__ = ["main", "build_parser"]

# Previously published comparison values for the truncated-sphere study at
# Np = 1.05e6 (analytic vs data-driven bandwidth).  The scale and window
# conventions behind them were not fully specified, so they are recorded
# in the hernquist experiment document for qualitative comparison only,
# never used as a pass/fail oracle.
HERNQUIST_EXTERNAL_REFERENCE = {
    "analytic_h": 0.1712,
    "data_based_h": 0.1678,
    "relative_error_percent": -1.9,
    "note": (
        "published comparison values for a truncated-sphere sample of "
        "1.05e6 radii; conventions not fully specified, qualitative only"
    ),
}

_DECADES_1D = [1_000, 10_000, 100_000, 1_000_000]
_DECADES_3D = [1_000, 10_000, 100_000]
_DEFAULT_SEEDS = [1, 2, 3, 4, 5]


class _Study(NamedTuple):
    """A named synthetic law: its d, its sampler ``draw(Np, seed,
    hernquist_params)``, its reference law ``law(hernquist_params)`` and
    the default point counts of its experiment.  Tables of (x, estimate,
    analytic), from ``density`` or ``experiment --emit-curves``, are 1D."""

    dim: int
    draw: Callable
    law: Callable
    np: list[int]


_STUDIES = {
    "gauss1d": _Study(1, lambda Np, seed, hq: sample_gaussian_1d(Np, seed),
                      lambda hq: gaussian_1d(), _DECADES_1D),
    "tscdens1d": _Study(1, lambda Np, seed, hq: sample_tsc_density(Np, seed),
                        lambda hq: tsc_density_1d(), _DECADES_1D),
    "trimodal": _Study(1, lambda Np, seed, hq: sample_trimodal(Np, seed),
                       lambda hq: trimodal_1d(), _DECADES_1D),
    "gauss3d": _Study(3, lambda Np, seed, hq: sample_gaussian_3d(Np, seed),
                      lambda hq: gaussian_3d(), _DECADES_3D),
    "hernquist": _Study(1, lambda Np, seed, hq: sample_hernquist_radii(Np, hq, seed),
                        lambda hq: hernquist_radial_pdf(rc=hq.scale_length_rc,
                                                        r_window=hq.r_window),
                        [1_050_000]),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 means not
    converged in this tool)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_count(text: str) -> int:
    """Parse an exact positive integer count, accepting scientific notation
    like 1e5."""
    try:
        return _check_count(float(text))
    except KdebandError:
        raise argparse.ArgumentTypeError(f"not a positive integer count: {text!r}") from None


def _parse_count_list(text: str) -> list[int]:
    return [_parse_count(part) for part in text.split(",") if part.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _selector_config(args) -> SelectorConfig:
    return SelectorConfig(rel_tolerance=args.tol, max_iterations=args.max_iters,
                          initial_scale_c0=args.c0)


def _select(args, sample, kernel) -> tuple[BandwidthTrace, float]:
    """Select the sample's bandwidth under the selector flags and
    ``--grid-cap``: the trace and the selection's wall time in ms."""
    config = _selector_config(args)
    t0 = time.perf_counter()
    trace = select_bandwidth(sample, kernel, config, grid_cap=args.grid_cap)
    return trace, (time.perf_counter() - t0) * 1e3


def _lattice(args, sample, kernel, h):
    """The node coordinates and values of the sample's deposit grid at
    spacing h, under ``--grid-cap``."""
    grid = build_grid(sample, kernel, h, grid_cap=args.grid_cap)
    return grid.axis_coordinates(0), grid.values


def _hernquist_params(args) -> HernquistParams:
    return HernquistParams(scale_length_rc=args.rc,
                           truncation_min_r_over_rc=args.r_min_over_rc,
                           truncation_max_r_over_rc=args.r_max_over_rc)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _table(header: list[str], names: str, *columns) -> str:
    """The header lines, a '# columns:' line, then one row per node with
    each column's value in full precision; a column given as None reads NA."""
    cells = [
        ["NA"] * len(columns[0]) if column is None else [_fmt(v) for v in column]
        for column in columns
    ]
    lines = [*header, f"# columns: {names}", *(" ".join(row) for row in zip(*cells))]
    return "\n".join(lines) + "\n"


def _load_sample_file(path: str, dim: int):
    """Read a whitespace-separated numeric sample file ('#' comments)."""
    try:
        with warnings.catch_warnings():
            # An empty file is reported as a clean "no data rows" error
            # below, not as a loadtxt warning.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, comments="#", ndmin=2)
    except OSError as exc:
        raise KdebandError(f"cannot read sample file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise KdebandError(f"malformed sample file {path!r}: {exc}") from exc
    if data.size == 0:
        raise KdebandError(f"{path!r}: no data rows")
    if data.shape[1] != dim:
        raise KdebandError(
            f"{path!r}: expected {dim} column(s) for --dim {dim}, found {data.shape[1]}"
        )
    return Sample(data)


def _report(experiment_id: str, kernel_token: str, Np: int, seed: int,
            trace: BandwidthTrace, analytic_h, wall_time_ms: float) -> dict:
    """Assemble one experiment report with the fixed field set.

    ``seed`` is -1 when no generator seed applies (user-supplied sample).
    """
    selected = trace.final_h
    relative_error = None if analytic_h is None else (selected - analytic_h) / analytic_h
    return {
        "experiment_id": experiment_id,
        "kernel": kernel_token,
        "Np": Np,
        "seed": seed,
        "selected_h": selected,
        "analytic_h": analytic_h,
        "relative_error": relative_error,
        "iterations": sum(1 for it in trace.iterations if not it.backoff_applied),
        "backoffs": sum(1 for it in trace.iterations if it.backoff_applied),
        "converged": trace.converged,
        "wall_time_ms": int(round(wall_time_ms)),
        "rng_name": RNG_NAME,
    }


def _json_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# experiment machinery
# ---------------------------------------------------------------------------

def _curve_path(out: str | None, name: str, Np: int, seed: int) -> str:
    if out is None:
        base = name
    else:
        base = out[: -len(".json")] if out.endswith(".json") else out
    return f"{base}_np{Np}_seed{seed}_curve.dat"


def _curve_table(args, kernel, sample, h, seed, hq_params, density) -> str:
    """Tabulate (x, estimate, analytic) on the deposit grid at h, or for
    the hernquist study the mass-density profile (r, rho_hat, rho_analytic).

    The estimate tabulates the truncated radial pdf; each particle then
    carries a mass MT * Z / Np with Z the mass fraction inside the
    truncation window, so the profile conversion uses MT * Z as the
    total mass.  Grid nodes at r <= 0 (lattice padding below the inner
    truncation radius) are dropped because the profile is undefined there.
    """
    xs, fhat = _lattice(args, sample, kernel, h)
    header = [
        f"# experiment: {args.name}",
        f"# kernel: {kernel.family}",
        f"# Np: {sample.size_Np}",
        f"# selected_h: {_fmt(h)}",
    ]
    if args.name != "hernquist":
        return _table([*header, f"# seed: {seed}"], "x f_hat f_analytic",
                      xs, fhat, eval_density(density, xs))
    keep = xs > 0.0
    rs = xs[keep]
    mass_in_window = hq_params.total_mass_MT * _hernquist_window_norm(density)
    r_lo, r_hi = hq_params.r_window
    header += [
        f"# scale_length_rc: {hq_params.scale_length_rc:g}",
        f"# truncation_r: [{r_lo:g}, {r_hi:g}]",
        f"# mass_in_window: {_fmt(mass_in_window)}",
    ]
    return _table(header, "r rho_hat rho_analytic", rs,
                  profile_from_radial_pdf(fhat[keep], rs, mass_in_window),
                  hernquist_profile(rs, hq_params))


def cmd_experiment(args) -> int:
    name = args.name
    study = _STUDIES[name]
    dim = study.dim
    np_values = sorted(set(args.np or study.np))
    seeds = sorted(set(args.seed or _DEFAULT_SEEDS))
    config = asdict(_selector_config(args))
    hq_params = _hernquist_params(args)
    density = study.law(hq_params)
    kernel = kernel_constants(args.kernel, dim)

    reports, aggregate, curves = [], [], []
    for Np in np_values:
        analytic_h = analytic_optimal_bandwidth(density, kernel, Np)
        group = []
        for seed in seeds:
            sample = study.draw(Np, seed, hq_params)
            trace, wall_ms = _select(args, sample, kernel)
            group.append(_report(name, args.kernel, Np, seed, trace, analytic_h, wall_ms))
            if args.emit_curves and dim == 1:
                table = _curve_table(args, kernel, sample, trace.final_h, seed,
                                     hq_params, density)
                path = _curve_path(args.out, name, Np, seed)
                curves.append(path)
                _write_text(path, table)
        reports += group
        aggregate.append({
            "Np": Np,
            "n_seeds": len(group),
            "analytic_h": analytic_h,
            "mean_selected_h": float(np.mean([r["selected_h"] for r in group])),
            "mean_abs_relative_error": float(
                np.mean([abs(r["relative_error"]) for r in group])),
        })
    doc = {
        "experiment": name,
        "kernel": args.kernel,
        "dimension": dim,
        "np_values": np_values,
        "seeds": seeds,
        "config": config,
        "rng_name": RNG_NAME,
        "reports": reports,
        "aggregate": aggregate,
    }
    if name == "hernquist":
        doc["external_reference"] = dict(HERNQUIST_EXTERNAL_REFERENCE)
    if curves:
        doc["curve_files"] = curves
    _write_text(args.out, _json_document(doc))
    return 0 if all(r["converged"] for r in reports) else 2


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def cmd_select(args) -> int:
    kernel = kernel_constants(args.kernel, args.dim)
    sample = _load_sample_file(args.input, args.dim)
    trace, wall_ms = _select(args, sample, kernel)
    report = _report(
        f"select-{args.dim}d", args.kernel, sample.size_Np, -1, trace, None, wall_ms
    )
    _write_text(args.out, _json_document(report))
    return 0 if trace.converged else 2


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    if (args.input is None) == (args.generator is None):
        raise KdebandError("density needs exactly one of --input or --generator")
    hq_params = _hernquist_params(args)
    kernel = kernel_constants(args.kernel, 1)
    density = None
    if args.generator is not None:
        study = _STUDIES[args.generator]
        sample = study.draw(args.np, args.seed, hq_params)
        density = study.law(hq_params)
        source = f"{args.generator} Np={args.np} seed={args.seed}"
    else:
        sample = _load_sample_file(args.input, 1)
        source = args.input

    exit_code = 0
    if args.h is not None:
        h, h_note = args.h, "fixed"
    else:
        trace, _ = _select(args, sample, kernel)
        h, h_note = trace.final_h, "auto"
        if not trace.converged:
            exit_code = 2

    header = [
        f"# source: {source}",
        f"# kernel: {args.kernel}",
        f"# Np: {sample.size_Np}",
        f"# h: {_fmt(h)} ({h_note})",
    ]
    if args.grid_min is not None or args.grid_max is not None or args.grid_points is not None:
        if None in (args.grid_min, args.grid_max, args.grid_points):
            raise KdebandError(
                "--grid-min, --grid-max and --grid-points must be given together"
            )
        if not args.grid_max > args.grid_min or args.grid_points < 2:
            raise KdebandError("need grid_max > grid_min and at least 2 grid points")
        xs = np.linspace(args.grid_min, args.grid_max, args.grid_points)
        fhat = estimate_density(sample, kernel, h, xs)
    else:
        xs, fhat = _lattice(args, sample, kernel, h)
        if args.generator == "hernquist":
            # Lattice padding can reach below r=0 where the radial law is
            # undefined; drop those nodes from the table.
            keep = xs >= 0.0
            xs, fhat = xs[keep], fhat[keep]
    if density is None:
        names, analytic = "x f_hat f_analytic(NA)", None
    else:
        names, analytic = "x f_hat f_analytic", eval_density(density, xs)
    table = _table(header, names, xs, fhat, analytic)
    _write_text(args.out, table)
    return exit_code


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

# Rows `kdeband sample` formats at once: one block's Python floats and
# text stay a few MB.
_SAMPLE_BLOCK = 1 << 14


def cmd_sample(args) -> int:
    hq_params = _hernquist_params(args)
    sample = _STUDIES[args.generator].draw(args.np, args.seed, hq_params)
    lines = [
        f"# generator: {args.generator}",
        f"# Np: {args.np}",
        f"# seed: {args.seed}",
        f"# rng: {RNG_NAME}",
    ]
    if args.generator == "hernquist":
        lines += [
            f"# total_mass_MT: {hq_params.total_mass_MT:g}",
            f"# scale_length_rc: {hq_params.scale_length_rc:g}",
            f"# truncation_r_over_rc: [{hq_params.truncation_min_r_over_rc:g}, "
            f"{hq_params.truncation_max_r_over_rc:g}]",
        ]
    # One %-format per block of rows, over Python floats: the same bytes as
    # _fmt per value, at a fraction of the cost on large samples.
    row = " ".join(["%.17g"] * sample.dim) + "\n"
    points = sample.points.reshape(sample.size_Np, sample.dim)
    blocks = [
        (row * len(block)) % tuple(block.ravel().tolist())
        for block in (points[i:i + _SAMPLE_BLOCK] for i in range(0, len(points), _SAMPLE_BLOCK))
    ]
    _write_text(args.out, "\n".join(lines) + "\n" + "".join(blocks))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_selector_flags(p) -> None:
    defaults = SelectorConfig()
    p.add_argument("--kernel", type=str.lower, default="tsc",
                   help="assignment kernel family: ngp, cic or tsc, or for 3D samples "
                        "also ngp3, cic3 or tsc3 (default tsc)")
    p.add_argument("--tol", type=float, default=defaults.rel_tolerance,
                   help="relative convergence tolerance on h (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=defaults.max_iterations,
                   help="cap on bandwidth updates (default %(default)s)")
    p.add_argument("--c0", type=float, default=defaults.initial_scale_c0,
                   help="initial bandwidth scale c0 (default %(default)s)")
    p.add_argument("--grid-cap", type=int, default=None,
                   help="override the node/cell cap on deposit grids")


def _add_hernquist_flags(p) -> None:
    defaults = HernquistParams()
    p.add_argument("--rc", type=float, default=defaults.scale_length_rc,
                   help="Hernquist scale length r_c (default %(default)s)")
    p.add_argument("--r-min-over-rc", type=float,
                   default=defaults.truncation_min_r_over_rc,
                   help="inner truncation radius in units of r_c (default %(default)s)")
    p.add_argument("--r-max-over-rc", type=float,
                   default=defaults.truncation_max_r_over_rc,
                   help="outer truncation radius in units of r_c (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kdeband",
        description="Kernel density estimation with data-driven bandwidth selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="select a bandwidth for a sample file")
    p_sel.add_argument("--input", required=True, help="numeric sample file")
    p_sel.add_argument("--dim", type=int, choices=[1, 3], required=True)
    _add_selector_flags(p_sel)
    p_sel.add_argument("--out", default=None, help="write the JSON report here")
    p_sel.set_defaults(func=cmd_select)

    p_exp = sub.add_parser("experiment", help="run a named validation study")
    p_exp.add_argument("name", choices=sorted(_STUDIES))
    p_exp.add_argument("--np", type=_parse_count_list, default=None,
                       help="comma-separated point counts (default: study decades)")
    p_exp.add_argument("--seed", type=_parse_int_list, default=None,
                       help="comma-separated seeds (default: 1,2,3,4,5)")
    _add_selector_flags(p_exp)
    _add_hernquist_flags(p_exp)
    p_exp.add_argument("--emit-curves", action="store_true",
                       help="also write (x, estimate, analytic) tables per run "
                            "(1D studies only)")
    p_exp.add_argument("--out", default=None, help="write the JSON document here")
    p_exp.set_defaults(func=cmd_experiment)

    p_den = sub.add_parser("density", help="tabulate a 1D density estimate")
    p_den.add_argument("--input", default=None, help="numeric 1D sample file")
    p_den.add_argument("--generator",
                       choices=sorted(name for name, study in _STUDIES.items()
                                      if study.dim == 1),
                       default=None, help="draw the sample instead of reading a file")
    p_den.add_argument("--np", type=_parse_count, default=10_000,
                       help="points to draw with --generator (default 1e4)")
    p_den.add_argument("--seed", type=int, default=1,
                       help="seed for --generator (default 1)")
    group = p_den.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=float, default=None, help="fixed bandwidth")
    group.add_argument("--auto", action="store_true",
                       help="select the bandwidth from the data")
    _add_selector_flags(p_den)
    _add_hernquist_flags(p_den)
    p_den.add_argument("--grid-min", type=float, default=None)
    p_den.add_argument("--grid-max", type=float, default=None)
    p_den.add_argument("--grid-points", type=int, default=None)
    p_den.add_argument("--out", default=None, help="write the table here")
    p_den.set_defaults(func=cmd_density)

    p_sam = sub.add_parser("sample", help="draw a synthetic sample")
    p_sam.add_argument("--generator", required=True,
                       choices=sorted(_STUDIES))
    p_sam.add_argument("--np", type=_parse_count, required=True)
    p_sam.add_argument("--seed", type=int, required=True)
    _add_hernquist_flags(p_sam)
    p_sam.add_argument("--out", default=None, help="write the sample here")
    p_sam.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and (via _Parser.error) 1 for usage
        # errors; surface those as return codes so main() is embeddable.
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (KdebandError, OSError) as exc:
        sys.stderr.write(f"kdeband: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
