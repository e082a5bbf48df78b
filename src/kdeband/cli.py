"""Command line driver: selection, validation experiments, tables, samples.

Subcommands
-----------
select      run bandwidth selection on a numeric sample file
experiment  run a named validation study and emit a JSON document
density     tabulate a density estimate as a plain-text table
sample      draw a synthetic sample and write it to a text file

One helper runs every selection and one builds every deposit-grid table,
both under ``--grid-cap`` (so it also bounds ``--emit-curves`` grids).
One row formatter, ``_rows``, writes every numeric row of the ``density``
tables, the ``--emit-curves`` files and ``sample``'s files: each value as
``%.17g`` (the bytes of ``format(v, ".17g")``), a missing analytic column
as the literal ``NA``.  One writer, ``_write``, writes every file and
every stdout document: its header lines, then its rows a block at a time,
so a command's memory is bounded by its sample and columns plus one block
of rows, never a whole file's text.  A stdout reader that goes away early
(``| head``) ends the write quietly and leaves the exit code as it was.
Flag defaults come from ``SelectorConfig`` and ``HernquistParams``.  The
count flags ``--np``, ``--max-iters``, ``--grid-cap`` and ``--grid-points``
take exact positive integers only (``1e5`` is accepted), read by the
library's count rule, seeds exact non-negative integers (``1e1`` too), read
by its index rule, and ``--dim`` is read by ``kernel_constants``, which
knows which d have kernels.  A command reads its kernel, selector and grid
flags before it reads or draws a sample, so a bad flag is named first.
The studies (``experiment``, ``density --generator``, ``sample``) are the
rows of ``kdeband.reference``'s study table, by name.

Exit codes: 0 on success, 1 on any usage or data error, 2 when a
selection run finished without converging (outputs are still written).

All outputs are deterministic for fixed inputs and seeds, except the
``wall_time_ms`` field of experiment reports, which records the actual
selection time of the run that produced the report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np

from .errors import KdebandError, _check_count, _check_index
from .estimator import Sample, _adopt, build_grid, estimate_density
from .kernels import kernel_constants
from .reference import (
    _LAWS,
    HERNQUIST_EXTERNAL_REFERENCE,
    AnalyticDensity,
    _hernquist_window_norm,
    analytic_optimal_bandwidth,
    eval_density,
    hernquist_profile,
    hernquist_radial_pdf,
    profile_from_radial_pdf,
)
from .samplers import RNG_NAME, HernquistParams
from .selector import BandwidthTrace, SelectorConfig, select_bandwidth

__all__ = ["main", "build_parser"]

_DEFAULT_SEEDS = [1, 2, 3, 4, 5]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 means not
    converged in this tool)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _number(text: str):
    """The number a flag's text spells, for the library's integer rules:
    an int where it is one (exactly, and in scientific notation too, 1e5),
    else a float, or the text itself where it is no number."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    return int(value) if value.is_integer() else value


def _parse_count(text: str) -> int:
    """Parse an exact positive integer count, accepting scientific notation
    like 1e5."""
    try:
        return _check_count(_number(text))
    except KdebandError:
        raise argparse.ArgumentTypeError(f"not a positive integer count: {text!r}") from None


def _parse_seed(text: str) -> int:
    """Parse a seed, an exact non-negative integer, accepting scientific
    notation like 1e1; a usage error gives the index rule's message."""
    try:
        return _check_index(_number(text), "seed")
    except KdebandError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_count_list(text: str) -> list[int]:
    return [_parse_count(part) for part in text.split(",") if part.strip()]


def _parse_seed_list(text: str) -> list[int]:
    return [_parse_seed(part) for part in text.split(",") if part.strip()]


def _selection_flags(args) -> tuple[SelectorConfig, int | None]:
    """The selector flags as a SelectorConfig and ``--grid-cap`` as a count
    (None: the default cap), read by the library's rules.  A command reads
    them before it reads or draws a sample, so a bad flag is named first."""
    config = SelectorConfig(rel_tolerance=args.tol, max_iterations=args.max_iters,
                            initial_scale_c0=args.c0)
    return config, None if args.grid_cap is None else _check_count(args.grid_cap, "grid_cap")


def _select(sample, kernel, config, grid_cap) -> tuple[BandwidthTrace, float]:
    """Select the sample's bandwidth under the selector flags and
    ``--grid-cap``: the trace and the selection's wall time in ms."""
    t0 = time.perf_counter()
    trace = select_bandwidth(sample, kernel, config, grid_cap=grid_cap)
    return trace, (time.perf_counter() - t0) * 1e3


def _lattice(sample, kernel, h, grid_cap):
    """The node coordinates and values of the sample's deposit grid at
    spacing h, under ``--grid-cap``."""
    grid = build_grid(sample, kernel, h, grid_cap=grid_cap)
    return grid.axis_coordinates(0), grid.values


def _hernquist_params(args) -> HernquistParams:
    return HernquistParams(scale_length_rc=args.rc,
                           truncation_min_r_over_rc=args.r_min_over_rc,
                           truncation_max_r_over_rc=args.r_max_over_rc)


def _law(name: str, hq_params: HernquistParams) -> AnalyticDensity:
    """The named study's reference law; the Hernquist law takes its scale
    and window from the Hernquist flags."""
    if name == "hernquist":
        return hernquist_radial_pdf(rc=hq_params.scale_length_rc, r_window=hq_params.r_window)
    return AnalyticDensity(name)


def _fmt(value: float) -> str:
    """A header value in full precision, as every table row writes it."""
    return f"{value:.17g}"


# Rows _write formats at once: one block's Python floats and text stay a
# few MB, so a file's memory is its columns plus one block.
_ROW_BLOCK = 1 << 14


def _rows(*columns) -> str:
    """One line per row of the columns (1D arrays of one length), each
    value as ``%.17g`` and a column given as None as the literal NA.

    One %-format over the rows' Python floats: the bytes of ``_fmt`` per
    value at a fraction of its cost on large tables.
    """
    row = " ".join("NA" if column is None else "%.17g" for column in columns) + "\n"
    values = np.column_stack([column for column in columns if column is not None])
    return (row * len(values)) % tuple(values.ravel().tolist())


def _write(path: str | None, header_lines: list[str], *columns) -> None:
    """Write the header lines, then the columns' rows (``_rows``; the first
    column is numeric) one ``_ROW_BLOCK`` of rows at a time, to the file at
    path or to stdout.

    When stdout's reader has gone (``head``), the write stops quietly: fd 1
    then points at the null device, so the interpreter's final flush cannot
    raise either.  A file that cannot be written raises its OSError.
    """
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        try:
            fh.writelines(line + "\n" for line in header_lines)
            for i in range(0, len(columns[0]) if columns else 0, _ROW_BLOCK):
                fh.write(_rows(*(c if c is None else c[i:i + _ROW_BLOCK] for c in columns)))
            fh.flush()
        except BrokenPipeError:
            if path is not None:
                raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_sample_file(path: str, dim: int, purpose: str):
    """Read a whitespace-separated numeric sample file ('#' comments) of
    ``dim`` columns; ``purpose`` says why in the error for any other."""
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
            f"{path!r}: expected {dim} column(s) for {purpose}, found {data.shape[1]}"
        )
    return _adopt(Sample, points=data)


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


# ---------------------------------------------------------------------------
# experiment machinery
# ---------------------------------------------------------------------------

def _curve_path(out: str | None, name: str, Np: int, seed: int) -> str:
    if out is None:
        base = name
    else:
        base = out[: -len(".json")] if out.endswith(".json") else out
    return f"{base}_np{Np}_seed{seed}_curve.dat"


def _curve_table(args, grid_cap, kernel, sample, h, seed, hq_params, density) -> tuple:
    """The header lines and columns (``_write``'s arguments) of
    (x, estimate, analytic) on the deposit grid at h, or for the hernquist
    study of the mass-density profile (r, rho_hat, rho_analytic).

    The estimate tabulates the truncated radial pdf; each particle then
    carries a mass MT * Z / Np with Z the mass fraction inside the
    truncation window, so the profile conversion uses MT * Z as the
    total mass.  Grid nodes at r <= 0 (lattice padding below the inner
    truncation radius) are dropped because the profile is undefined there.
    """
    xs, fhat = _lattice(sample, kernel, h, grid_cap)
    header = [
        f"# experiment: {args.name}",
        f"# kernel: {kernel.family}",
        f"# Np: {sample.size_Np}",
        f"# selected_h: {_fmt(h)}",
    ]
    if args.name != "hernquist":
        return ([*header, f"# seed: {seed}", "# columns: x f_hat f_analytic"],
                xs, fhat, eval_density(density, xs))
    keep = xs > 0.0
    rs = xs[keep]
    mass_in_window = hq_params.total_mass_MT * _hernquist_window_norm(density)
    r_lo, r_hi = hq_params.r_window
    header += [
        f"# scale_length_rc: {hq_params.scale_length_rc:g}",
        f"# truncation_r: [{r_lo:g}, {r_hi:g}]",
        f"# mass_in_window: {_fmt(mass_in_window)}",
        "# columns: r rho_hat rho_analytic",
    ]
    return (header, rs, profile_from_radial_pdf(fhat[keep], rs, mass_in_window),
            hernquist_profile(rs, hq_params))


def cmd_experiment(args) -> int:
    name = args.name
    study = _LAWS[name]
    dim = study.dim
    np_values = sorted(set(args.np or study.np))
    seeds = sorted(set(args.seed or _DEFAULT_SEEDS))
    config, grid_cap = _selection_flags(args)
    hq_params = _hernquist_params(args)
    density = _law(name, hq_params)
    kernel = kernel_constants(args.kernel, dim)

    reports, aggregate, curves = [], [], []
    for Np in np_values:
        analytic_h = analytic_optimal_bandwidth(density, kernel, Np)
        group = []
        for seed in seeds:
            sample = study.draw(Np, seed, hq_params)
            trace, wall_ms = _select(sample, kernel, config, grid_cap)
            group.append(_report(name, args.kernel, Np, seed, trace, analytic_h, wall_ms))
            if args.emit_curves and dim == 1:
                path = _curve_path(args.out, name, Np, seed)
                curves.append(path)
                _write(path, *_curve_table(args, grid_cap, kernel, sample, trace.final_h,
                                           seed, hq_params, density))
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
        "config": asdict(config),
        "rng_name": RNG_NAME,
        "reports": reports,
        "aggregate": aggregate,
    }
    if name == "hernquist":
        doc["external_reference"] = dict(HERNQUIST_EXTERNAL_REFERENCE)
    if curves:
        doc["curve_files"] = curves
    _write(args.out, [json.dumps(doc, indent=2)])
    return 0 if all(r["converged"] for r in reports) else 2


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def cmd_select(args) -> int:
    kernel = kernel_constants(args.kernel, args.dim)
    config, grid_cap = _selection_flags(args)
    sample = _load_sample_file(args.input, args.dim, f"--dim {args.dim}")
    trace, wall_ms = _select(sample, kernel, config, grid_cap)
    report = _report(
        f"select-{args.dim}d", args.kernel, sample.size_Np, -1, trace, None, wall_ms
    )
    _write(args.out, [json.dumps(report, indent=2)])
    return 0 if trace.converged else 2


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    if (args.input is None) == (args.generator is None):
        raise KdebandError("density needs exactly one of --input or --generator")
    hq_params = _hernquist_params(args)
    kernel = kernel_constants(args.kernel, 1)
    config, grid_cap = _selection_flags(args)
    explicit_grid = (args.grid_min, args.grid_max, args.grid_points)
    if explicit_grid != (None, None, None):
        if None in explicit_grid:
            raise KdebandError(
                "--grid-min, --grid-max and --grid-points must be given together"
            )
        if not np.isfinite(args.grid_max - args.grid_min):
            # np.linspace would warn and fill the grid with inf or nan.
            raise KdebandError("--grid-min, --grid-max and their span must be finite")
        if not args.grid_max > args.grid_min or args.grid_points < 2:
            raise KdebandError("need grid_max > grid_min and at least 2 grid points")
    density = None
    if args.generator is not None:
        sample = _LAWS[args.generator].draw(args.np, args.seed, hq_params)
        density = _law(args.generator, hq_params)
        source = f"{args.generator} Np={args.np} seed={args.seed}"
    else:
        sample = _load_sample_file(args.input, 1, "a 1D density table")
        source = args.input

    exit_code = 0
    if args.h is not None:
        h, h_note = args.h, "fixed"
    else:
        trace, _ = _select(sample, kernel, config, grid_cap)
        h, h_note = trace.final_h, "auto"
        if not trace.converged:
            exit_code = 2

    header = [
        f"# source: {source}",
        f"# kernel: {args.kernel}",
        f"# Np: {sample.size_Np}",
        f"# h: {_fmt(h)} ({h_note})",
    ]
    if args.grid_points is not None:
        xs = np.linspace(args.grid_min, args.grid_max, args.grid_points)
        fhat = estimate_density(sample, kernel, h, xs)
    else:
        xs, fhat = _lattice(sample, kernel, h, grid_cap)
        if args.generator == "hernquist":
            # Lattice padding can reach below r=0 where the radial law is
            # undefined; drop those nodes from the table.
            keep = xs >= 0.0
            xs, fhat = xs[keep], fhat[keep]
    analytic = None if density is None else eval_density(density, xs)
    names = "x f_hat f_analytic" + ("(NA)" if analytic is None else "")
    _write(args.out, [*header, f"# columns: {names}"], xs, fhat, analytic)
    return exit_code


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    hq_params = _hernquist_params(args)
    sample = _LAWS[args.generator].draw(args.np, args.seed, hq_params)
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
    _write(args.out, lines, *sample.points.reshape(sample.size_Np, sample.dim).T)
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
    p.add_argument("--max-iters", type=_number, default=defaults.max_iterations,
                   help="cap on bandwidth updates (default %(default)s)")
    p.add_argument("--c0", type=float, default=defaults.initial_scale_c0,
                   help="initial bandwidth scale c0 (default %(default)s)")
    p.add_argument("--grid-cap", type=_number, default=None,
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
    p_sel.add_argument("--dim", type=int, required=True, help="sample dimension: 1 or 3")
    _add_selector_flags(p_sel)
    p_sel.add_argument("--out", default=None, help="write the JSON report here")
    p_sel.set_defaults(func=cmd_select)

    p_exp = sub.add_parser("experiment", help="run a named validation study")
    p_exp.add_argument("name", choices=sorted(_LAWS))
    p_exp.add_argument("--np", type=_parse_count_list, default=None,
                       help="comma-separated point counts (default: study decades)")
    p_exp.add_argument("--seed", type=_parse_seed_list, default=None,
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
                       choices=sorted(name for name, law in _LAWS.items() if law.dim == 1),
                       default=None, help="draw the sample instead of reading a file")
    p_den.add_argument("--np", type=_parse_count, default=10_000,
                       help="points to draw with --generator (default 1e4)")
    p_den.add_argument("--seed", type=_parse_seed, default=1,
                       help="seed for --generator (default 1)")
    group = p_den.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=float, default=None, help="fixed bandwidth")
    group.add_argument("--auto", action="store_true",
                       help="select the bandwidth from the data")
    _add_selector_flags(p_den)
    _add_hernquist_flags(p_den)
    p_den.add_argument("--grid-min", type=float, default=None)
    p_den.add_argument("--grid-max", type=float, default=None)
    p_den.add_argument("--grid-points", type=_parse_count, default=None)
    p_den.add_argument("--out", default=None, help="write the table here")
    p_den.set_defaults(func=cmd_density)

    p_sam = sub.add_parser("sample", help="draw a synthetic sample")
    p_sam.add_argument("--generator", required=True,
                       choices=sorted(_LAWS))
    p_sam.add_argument("--np", type=_parse_count, required=True)
    p_sam.add_argument("--seed", type=_parse_seed, required=True)
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
