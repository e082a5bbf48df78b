"""End-to-end tests of the command line driver.

All invocations go through ``kdeband.cli.main(argv)`` in process, so exit
codes, stdout/stderr, and written files are all observable.  Exit code
conventions: 0 success, 1 usage or data error, 2 selection finished
without converging (outputs still written).
The closed-pipe tests alone run the command in a subprocess.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kdeband.cli
import kdeband.estimator
from kdeband.cli import main
from kdeband.estimator import kernel_constants
from kdeband.reference import (
    HERNQUIST_EXTERNAL_REFERENCE,
    analytic_optimal_bandwidth,
    eval_density,
    gaussian_1d,
    hernquist_radial_pdf,
)
from kdeband.reference import RNG_NAME, sample_gaussian_1d, sample_gaussian_3d

REPORT_FIELDS = [
    "experiment_id",
    "kernel",
    "Np",
    "seed",
    "selected_h",
    "analytic_h",
    "relative_error",
    "iterations",
    "backoffs",
    "converged",
    "wall_time_ms",
    "rng_name",
]

H_TSC_GAUSS_1E5 = 0.2107682881168361


def _write_sample(path, values):
    np.savetxt(path, np.asarray(values))
    return str(path)


def _strip_wall_times(doc):
    doc = json.loads(json.dumps(doc))
    for rep in doc.get("reports", []):
        rep.pop("wall_time_ms", None)
    doc.pop("wall_time_ms", None)
    return doc


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_gaussian_file_report(tmp_path, capsys):
    """Selecting on a 1e5-point normal sample file prints one JSON report
    with the fixed field set (in order), a -1 seed for file input, and a
    bandwidth within 5 percent of the closed-form optimum."""
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(100_000, seed=1).points)
    rc = main(["select", "--input", path, "--dim", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert list(report) == REPORT_FIELDS
    assert report["experiment_id"] == "select-1d"
    assert report["kernel"] == "tsc"
    assert report["Np"] == 100_000
    assert report["seed"] == -1
    assert report["analytic_h"] is None
    assert report["relative_error"] is None
    assert report["converged"] is True
    assert isinstance(report["wall_time_ms"], int)
    assert report["wall_time_ms"] >= 0
    assert report["rng_name"] == RNG_NAME
    assert abs(report["selected_h"] - H_TSC_GAUSS_1E5) / H_TSC_GAUSS_1E5 < 0.05


def test_select_3d_file(tmp_path, capsys):
    path = _write_sample(tmp_path / "g3.txt", sample_gaussian_3d(2000, seed=2).points)
    rc = main(["select", "--input", path, "--dim", "3", "--kernel", "tsc"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["experiment_id"] == "select-3d"
    assert report["Np"] == 2000
    assert report["converged"] is True
    assert report["selected_h"] > 0.0


def test_select_kernel_token_case_insensitive(tmp_path, capsys):
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(2000, seed=1).points)
    rc = main(["select", "--input", path, "--dim", "1", "--kernel", "TSC"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["kernel"] == "tsc"


def test_select_explicit_3d_kernel_spelling(tmp_path, capsys):
    """The explicit 3D spelling names the same kernel as the base family
    with --dim 3, and is rejected cleanly for 1D input."""
    path = _write_sample(tmp_path / "g3.txt", sample_gaussian_3d(2000, seed=2).points)
    rc = main(["select", "--input", path, "--dim", "3", "--kernel", "tsc3"])
    explicit = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert explicit["kernel"] == "tsc3"
    rc = main(["select", "--input", path, "--dim", "3", "--kernel", "tsc"])
    base = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert base["selected_h"] == explicit["selected_h"]

    path1 = _write_sample(tmp_path / "g1.txt", sample_gaussian_1d(2000, seed=1).points)
    rc = main(["select", "--input", path1, "--dim", "1", "--kernel", "tsc3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown kernel family" in err


def test_select_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n")
    rc = main(["select", "--input", str(path), "--dim", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no data rows" in err


def test_select_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n0.7\nnot-a-number\n")
    rc = main(["select", "--input", str(path), "--dim", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "malformed sample file" in err
    assert "bad.txt" in err


def test_select_dimension_mismatch(tmp_path, capsys):
    path = _write_sample(tmp_path / "g3.txt", sample_gaussian_3d(100, seed=0).points)
    rc = main(["select", "--input", path, "--dim", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "expected 1 column" in err


def test_select_missing_file(tmp_path, capsys):
    rc = main(["select", "--input", str(tmp_path / "nope.txt"), "--dim", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot read sample file" in err


def test_select_non_count_grid_cap_exit_1(tmp_path, capsys):
    """--grid-cap is a count: 0 is a named error and exit 1."""
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(1000, seed=1).points)
    rc = main(["select", "--input", path, "--dim", "1", "--grid-cap", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "grid_cap" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--dim", "1"],
        ["density", "--h", "0.3"],
    ],
    ids=["select", "density"],
)
def test_unknown_kernel_fails_before_the_sample_is_read(tmp_path, capsys, argv):
    """The kernel token is read by the library's kernel rule before any
    sample is read: an unknown token is reported, not the missing file."""
    rc = main(argv + ["--kernel", "boxcar", "--input", str(tmp_path / "nope.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown kernel family" in err
    assert "cannot read sample file" not in err


@pytest.mark.parametrize("command", ["select", "experiment", "density"])
def test_help_names_every_kernel_token(capsys, command):
    """The usage line lists no kernel tokens, so the --kernel help names
    all six."""
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for token in ("ngp", "cic", "tsc", "ngp3", "cic3", "tsc3"):
        assert re.search(rf"\b{token}\b", out), token


def test_select_out_of_range_scale_exit_1(tmp_path, capsys):
    """A 3D sample scaled by 1e40 underflows the selection's squared
    Laplacian: a named error and exit 1, not a traceback."""
    points = 1e40 * sample_gaussian_3d(2000, seed=2).points
    path = _write_sample(tmp_path / "g3.txt", points)
    rc = main(["select", "--input", path, "--dim", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("kdeband: error:")
    assert "scale is out of range" in captured.err


def test_experiment_out_of_range_rc_exit_1(tmp_path, capsys):
    """A Hernquist rc whose curvature roughness underflows ends in a named
    error and exit 1, not a traceback."""
    argv = ["experiment", "hernquist", "--rc", "1e-70", "--np", "1000", "--seed", "1"]
    rc = main(argv + ["--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("kdeband: error:")
    assert "out of range" in err


def test_select_not_converged_exit_2(tmp_path, capsys):
    """An iteration cap of 1 cannot satisfy the tolerance; the report is
    still written but the exit code flags the non-convergence."""
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(5000, seed=4).points)
    rc = main(["select", "--input", path, "--dim", "1", "--max-iters", "1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["converged"] is False
    assert report["iterations"] == 1
    assert report["selected_h"] > 0.0


def test_select_out_file(tmp_path, capsys):
    sample_path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(2000, seed=1).points)
    out_path = tmp_path / "report.json"
    rc = main(["select", "--input", sample_path, "--dim", "1", "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert list(report) == REPORT_FIELDS


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_document_structure(tmp_path):
    out = tmp_path / "doc.json"
    argv = [
        "experiment", "gauss1d", "--np", "2000,1000", "--seed", "2,1",
        "--out", str(out),
    ]
    rc = main(argv)
    assert rc == 0
    doc = json.loads(out.read_text())
    assert list(doc) == [
        "experiment", "kernel", "dimension", "np_values", "seeds",
        "config", "rng_name", "reports", "aggregate",
    ]
    assert doc["experiment"] == "gauss1d"
    assert doc["dimension"] == 1
    assert doc["np_values"] == [1000, 2000]
    assert doc["seeds"] == [1, 2]
    assert doc["config"]["rel_tolerance"] == 1e-3
    assert doc["rng_name"] == RNG_NAME

    # reports are sorted by (Np, seed) and carry the fixed field set
    assert [(r["Np"], r["seed"]) for r in doc["reports"]] == [
        (1000, 1), (1000, 2), (2000, 1), (2000, 2),
    ]
    for rep in doc["reports"]:
        assert list(rep) == REPORT_FIELDS
        assert rep["experiment_id"] == "gauss1d"
        expected_h = analytic_optimal_bandwidth(
            gaussian_1d(), kernel_constants("tsc", 1), rep["Np"], dimension=1
        )
        assert_allclose(rep["analytic_h"], expected_h, rtol=1e-12)
        assert_allclose(
            rep["relative_error"],
            (rep["selected_h"] - rep["analytic_h"]) / rep["analytic_h"],
            rtol=1e-12,
        )

    assert [a["Np"] for a in doc["aggregate"]] == [1000, 2000]
    for agg in doc["aggregate"]:
        group = [r for r in doc["reports"] if r["Np"] == agg["Np"]]
        assert agg["n_seeds"] == len(group)
        assert_allclose(
            agg["mean_selected_h"], np.mean([r["selected_h"] for r in group]), rtol=1e-12
        )
        assert_allclose(
            agg["mean_abs_relative_error"],
            np.mean([abs(r["relative_error"]) for r in group]),
            rtol=1e-12,
        )


def test_experiment_deterministic_modulo_wall_time(tmp_path):
    argv = lambda out: [
        "experiment", "trimodal", "--np", "1500", "--seed", "1,2", "--out", out,
    ]
    assert main(argv(str(tmp_path / "a.json"))) == 0
    assert main(argv(str(tmp_path / "b.json"))) == 0
    doc_a = json.loads((tmp_path / "a.json").read_text())
    doc_b = json.loads((tmp_path / "b.json").read_text())
    assert _strip_wall_times(doc_a) == _strip_wall_times(doc_b)


def test_experiment_np_accepts_scientific_notation(tmp_path):
    out = tmp_path / "doc.json"
    rc = main(["experiment", "gauss1d", "--np", "1e3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["np_values"] == [1000]


def test_experiment_hernquist_external_reference(tmp_path):
    """The hernquist document embeds the previously published comparison
    numbers verbatim, as context only; the analytic oracle in the reports
    is the truncated law's closed form, not those numbers."""
    out = tmp_path / "hq.json"
    rc = main(["experiment", "hernquist", "--np", "5000", "--seed", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    ref = doc["external_reference"]
    assert ref["analytic_h"] == 0.1712
    assert ref["data_based_h"] == 0.1678
    assert ref["relative_error_percent"] == -1.9
    assert "qualitative" in ref["note"]
    assert ref == dict(HERNQUIST_EXTERNAL_REFERENCE)

    expected_h = analytic_optimal_bandwidth(
        hernquist_radial_pdf(rc=1.0, r_window=(0.05, 1000.0)),
        kernel_constants("tsc", 1),
        5000,
        dimension=1,
    )
    assert_allclose(doc["reports"][0]["analytic_h"], expected_h, rtol=1e-12)


def test_experiment_emit_curves(tmp_path):
    out = tmp_path / "exp.json"
    rc = main([
        "experiment", "gauss1d", "--np", "1000", "--seed", "3",
        "--emit-curves", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    curve_path = tmp_path / "exp_np1000_seed3_curve.dat"
    assert doc["curve_files"] == [str(curve_path)]
    assert curve_path.exists()

    text = curve_path.read_text()
    assert "# columns: x f_hat f_analytic" in text
    table = np.loadtxt(curve_path, comments="#", ndmin=2)
    assert table.shape[1] == 3
    xs, fhat, ftrue = table.T
    # third column is the reference pdf at the node
    assert_allclose(ftrue, eval_density(gaussian_1d(), xs), rtol=1e-12, atol=1e-300)
    # the tabulated estimate is a density: unit mass on its own lattice
    h = doc["reports"][0]["selected_h"]
    assert_allclose(np.sum(fhat) * h, 1.0, atol=1e-9)
    assert f"# selected_h: {h:.17g}" in text


def test_experiment_emit_curves_without_out_writes_to_working_dir(tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["experiment", "gauss1d", "--np", "1000", "--seed", "1", "--emit-curves"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curve_files"] == ["gauss1d_np1000_seed1_curve.dat"]
    assert (tmp_path / "gauss1d_np1000_seed1_curve.dat").exists()


def test_experiment_emit_curves_honours_grid_cap(tmp_path, monkeypatch, capsys):
    """--grid-cap bounds the curve grids as well as the selection's: with
    the default 1D cap shrunk to 5 nodes, the run needs the flag."""
    monkeypatch.setattr(kdeband.estimator, "DEFAULT_GRID_CAP_1D", 5)
    argv = ["experiment", "gauss1d", "--np", "1000", "--seed", "1", "--emit-curves",
            "--out", str(tmp_path / "exp.json")]
    assert main(argv) == 1
    assert "above the cap of 5" in capsys.readouterr().err
    assert main(argv + ["--grid-cap", "100000"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "exp_np1000_seed1_curve.dat").exists()


def test_density_of_a_tiny_hernquist_scale_length_warns_nothing(tmp_path, capsys):
    """--rc 1e-300: the law's pdf at r = 0 reads 0 rather than 0/0, and the
    command exits 0 with nothing on stderr (warnings are errors here)."""
    out = tmp_path / "hq.dat"
    assert main(["density", "--generator", "hernquist", "--np", "500", "--h", "0.5",
                 "--rc", "1e-300", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    x, _, analytic = np.loadtxt(out).T
    assert x[0] == 0.0 and analytic[0] == 0.0


def test_experiment_unknown_name_exit_1(capsys):
    rc = main(["experiment", "nosuchstudy"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_experiment_unknown_kernel_exit_1(capsys):
    rc = main(["experiment", "gauss1d", "--kernel", "boxcar"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_auto_gaussian(tmp_path):
    """An auto-bandwidth table for a 1e5-point normal sample tracks the
    true pdf to 0.02 everywhere."""
    out = tmp_path / "table.dat"
    rc = main([
        "density", "--generator", "gauss1d", "--np", "1e5", "--seed", "1",
        "--auto", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "# columns: x f_hat f_analytic" in text
    xs, fhat, ftrue = np.loadtxt(out, comments="#", ndmin=2).T
    assert_allclose(ftrue, eval_density(gaussian_1d(), xs), rtol=1e-12, atol=1e-300)
    assert np.max(np.abs(fhat - ftrue)) < 0.02


def test_density_fixed_h_user_file_na_column(tmp_path):
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(3000, seed=6).points)
    out = tmp_path / "table.dat"
    rc = main(["density", "--input", path, "--h", "0.3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "# columns: x f_hat f_analytic(NA)" in lines
    data_rows = [ln for ln in lines if not ln.startswith("#")]
    assert data_rows
    assert all(row.split()[2] == "NA" for row in data_rows)
    h_line = next(ln for ln in lines if ln.startswith("# h:"))
    assert float(h_line.split()[2]) == 0.3
    assert "(fixed)" in h_line


def test_density_explicit_grid(tmp_path):
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(1000, seed=6).points)
    out = tmp_path / "table.dat"
    rc = main([
        "density", "--input", path, "--h", "0.5", "--out", str(out),
        "--grid-min", "-1", "--grid-max", "1", "--grid-points", "5",
    ])
    assert rc == 0
    xs = np.loadtxt(out, comments="#", usecols=0)
    assert_allclose(xs, np.linspace(-1.0, 1.0, 5), atol=1e-15)


def test_density_partial_grid_flags_rejected(tmp_path, capsys):
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(100, seed=6).points)
    rc = main(["density", "--input", path, "--h", "0.5", "--grid-min", "-1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "must be given together" in err


def test_density_nonpositive_h_rejected(tmp_path, capsys):
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(100, seed=6).points)
    rc = main(["density", "--input", path, "--h", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_density_grid_max_not_above_grid_min_rejected(tmp_path, capsys):
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(100, seed=6).points)
    rc = main(["density", "--input", path, "--h", "0.5",
               "--grid-min", "1", "--grid-max", "1", "--grid-points", "5"])
    assert rc == 1
    assert "need grid_max > grid_min" in capsys.readouterr().err


def test_density_auto_not_converged_exit_2_table_written(tmp_path):
    """One update cannot meet the tolerance: exit 2, and the table is
    still written at the last iterate."""
    out = tmp_path / "table.dat"
    rc = main(["density", "--generator", "gauss1d", "--np", "1000", "--seed", "1",
               "--auto", "--max-iters", "1", "--out", str(out)])
    assert rc == 2
    text = out.read_text()
    assert "(auto)" in text
    assert np.loadtxt(out, comments="#", ndmin=2).shape[1] == 3


def test_density_needs_exactly_one_source(tmp_path, capsys):
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(100, seed=6).points)
    rc = main([
        "density", "--input", path, "--generator", "gauss1d", "--h", "0.5",
    ])
    assert rc == 1
    assert "exactly one of" in capsys.readouterr().err


def test_density_gauss3d_rejected(capsys):
    """Density tables are 1D only; the 3D generator is not an accepted
    choice for this subcommand."""
    rc = main(["density", "--generator", "gauss3d", "--h", "0.5"])
    assert rc == 1
    assert "invalid choice" in capsys.readouterr().err


def test_density_hernquist_table_stays_in_domain(tmp_path):
    """The radial table drops lattice padding at r < 0 and tabulates the
    truncated law in the third column."""
    out = tmp_path / "hq.dat"
    rc = main([
        "density", "--generator", "hernquist", "--np", "2000", "--seed", "1",
        "--h", "0.2", "--out", str(out),
    ])
    assert rc == 0
    rs, fhat, ftrue = np.loadtxt(out, comments="#", ndmin=2).T
    assert np.all(rs >= 0.0)
    dens = hernquist_radial_pdf(rc=1.0, r_window=(0.05, 1000.0))
    assert_allclose(ftrue, eval_density(dens, rs), rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_deterministic_bytes_and_round_trip(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = lambda out: ["sample", "--generator", "gauss1d", "--np", "1000",
                        "--seed", "7", "--out", out]
    assert main(argv(str(a))) == 0
    assert main(argv(str(b))) == 0
    assert a.read_bytes() == b.read_bytes()

    header = a.read_text().splitlines()[:4]
    assert header[0] == "# generator: gauss1d"
    assert header[1] == "# Np: 1000"
    assert header[2] == "# seed: 7"
    assert header[3] == f"# rng: {RNG_NAME}"

    # the emitted file round-trips through select without loss
    rc = main(["select", "--input", str(a), "--dim", "1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["Np"] == 1000
    expected = sample_gaussian_1d(1000, seed=7).points
    written = np.loadtxt(a, comments="#")
    assert_allclose(written, expected, rtol=0, atol=0)


def test_sample_3d_has_three_columns(tmp_path):
    out = tmp_path / "g3.txt"
    rc = main(["sample", "--generator", "gauss3d", "--np", "500", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out, comments="#", ndmin=2)
    assert data.shape == (500, 3)
    assert np.array_equal(data, sample_gaussian_3d(500, seed=2).points)


def test_sample_hernquist_header(tmp_path):
    out = tmp_path / "hq.txt"
    rc = main([
        "sample", "--generator", "hernquist", "--np", "100", "--seed", "3",
        "--rc", "2.0", "--r-min-over-rc", "0.1", "--r-max-over-rc", "50",
        "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "# total_mass_MT: 1" in text
    assert "# scale_length_rc: 2" in text
    assert "# truncation_r_over_rc: [0.1, 50]" in text
    radii = np.loadtxt(out, comments="#")
    assert np.all(radii >= 0.1 * 2.0)
    assert np.all(radii <= 50 * 2.0)


def test_sample_rejects_bad_count(capsys):
    rc = main(["sample", "--generator", "gauss1d", "--np", "2.5", "--seed", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    for count in ("inf", "1e400", "nan", "1000.0000000001"):
        rc = main(["sample", "--generator", "gauss1d", "--np", count, "--seed", "1"])
        assert rc == 1
        assert "not a positive integer count" in capsys.readouterr().err
    rc = main(["experiment", "gauss1d", "--np", "1000,inf", "--seed", "1"])
    assert rc == 1
    assert "not a positive integer count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--generator", "gauss1d", "--np", "2e18"],
    ["sample", "--generator", "gauss1d", "--np", "1e19"],
    ["sample", "--generator", "gauss1d", "--np", "1e30"],
    ["experiment", "gauss1d", "--np", "1e30"],
], ids=["sample-2e18", "sample-1e19", "sample-1e30", "experiment-1e30"])
def test_a_draw_past_the_largest_array_is_one_error_line(tmp_path, capsys, argv):
    """--np 2e18 and 1e19 ended in numpy's ValueError traceback, and 1e30
    in argparse's "invalid _parse_count value"; each is now the samplers'
    DomainError, on one line, and nothing is written."""
    rc = main(argv + ["--seed", "1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert re.fullmatch(r"kdeband: error: Np must be at most \d+ for a draw in d = 1, got \d+\n",
                        captured.err)
    assert not (tmp_path / "out").exists()


def test_count_flags_of_any_size_select_the_default_bandwidth(tmp_path, capsys):
    """--grid-cap 1e30 and --max-iters 1e20 ended in a TypeError traceback
    from np.isfinite on an int of 2**64 and up."""
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(2000, seed=1).points)
    selected = []
    for flags in ([], ["--grid-cap", "1e30"], ["--max-iters", "1e20"]):
        rc = main(["select", "--input", path, "--dim", "1", *flags])
        assert rc == 0
        selected.append(json.loads(capsys.readouterr().out)["selected_h"])
    assert selected[1] == selected[0] and selected[2] == selected[0]


@pytest.mark.parametrize("command", [
    ["sample", "--generator", "hernquist", "--np", "10"],
    ["density", "--generator", "hernquist", "--np", "10", "--h", "0.2"],
], ids=["sample", "density"])
def test_hernquist_window_past_the_floats_is_one_error_line(tmp_path, capsys, command):
    """--rc 1e308 --r-max-over-rc 1e10 puts r_max at inf; it ended in an
    OverflowError traceback, and now names the field."""
    rc = main(command + ["--seed", "1", "--rc", "1e308", "--r-max-over-rc", "1e10",
                         "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert re.fullmatch(r"kdeband: error: truncation_max_r_over_rc \* scale_length_rc must be "
                        r"a real in \(.*\), got inf\n", captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--generator", "gauss1d", "--np", "10", "--seed", "-1"],
        ["experiment", "gauss1d", "--np", "1000", "--seed", "-1"],
        ["experiment", "gauss3d", "--np", "1000", "--seed", "2,-3"],
        ["density", "--generator", "hernquist", "--np", "100", "--seed", "-1", "--h", "0.2"],
    ],
    ids=["sample", "experiment", "experiment-3d", "density"],
)
def test_negative_seed_exit_1(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--generator", "hernquist", "--np", "10", "--seed", "1", "--rc", "inf"],
        ["sample", "--generator", "hernquist", "--np", "10", "--seed", "1",
         "--r-max-over-rc", "inf"],
        ["experiment", "hernquist", "--np", "1000", "--seed", "1", "--r-max-over-rc", "inf"],
        ["density", "--generator", "hernquist", "--np", "100", "--h", "0.2", "--rc", "nan"],
    ],
    ids=["sample-rc", "sample-r-max", "experiment-r-max", "density-rc"],
)
def test_non_finite_hernquist_parameter_exit_1(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "finite" in err or "inf" in err
    assert "roughness" not in err


# ---------------------------------------------------------------------------
# byte pins
# ---------------------------------------------------------------------------

# Every file each command writes, as the sha256 of its bytes with the two
# run-dependent fields masked: ``wall_time_ms`` (set to 0) and the
# generator name (set to "RNG", since it carries the numpy version).  The
# commands run in an empty working directory with relative paths, so file
# names and the paths a document records are fixed too.  Recorded before
# the CLI was driven from one table of studies; any change to a table,
# header, number format or curve file name moves a digest.
_PIN_INPUT = "u.txt"
CLI_BYTE_PINS = [
    ("experiment-gauss1d-curves",
     ["experiment", "gauss1d", "--np", "1000", "--seed", "1,2", "--emit-curves",
      "--out", "g1.json"], {
         "g1.json":
             "ccb629f205a5fab6ab648c479a18a485a7fb3365d5aa7e87ea66ea5c7fff8700",
         "g1_np1000_seed1_curve.dat":
             "0be263301bf753e23152f4689d560cbd4a64a5366dc8a230c2cd7ef252c6df43",
         "g1_np1000_seed2_curve.dat":
             "cbaa306cd7a1b7b66355304c5af32ba3d7365a800bdb57a6e4a1b69ce739079f",
     }),
    ("experiment-tscdens1d-curves",
     ["experiment", "tscdens1d", "--np", "1000", "--seed", "1", "--emit-curves",
      "--out", "t1.json"], {
         "t1.json":
             "d3ab793e4f50df38592fed8e10e1bb57d000a1db02e5a7c3cb6f9c0bff1d00dc",
         "t1_np1000_seed1_curve.dat":
             "2c1931698325a0472ec52232fb58ffc23f3b5494435e292c1c606f08fcc00274",
     }),
    ("experiment-hernquist-curves",
     ["experiment", "hernquist", "--np", "2000", "--seed", "1", "--emit-curves",
      "--out", "hq.json"], {
         "hq.json":
             "797ca0e5400f6c73f21215c4aa7ef19ab4348c8c33d87771fe916fbbe041e044",
         "hq_np2000_seed1_curve.dat":
             "4d4d02e2c2ad6dc6953ca2756c654d934aafa2fab04a5550ab73f55cd12fe02b",
     }),
    ("experiment-gauss3d",
     ["experiment", "gauss3d", "--np", "1000", "--seed", "1", "--out", "g3.json"], {
         "g3.json":
             "d8058d25f6e613f6f4eada90634332c34961505d7f3468f61aa39d79bd9e6c81",
     }),
    ("density-hernquist-auto",
     ["density", "--generator", "hernquist", "--np", "2000", "--auto",
      "--out", "dhq.dat"], {
         "dhq.dat":
             "cef18a7d9863aca52a6778f49688d6aa36521f5bc85326840b7d614652f15045",
     }),
    ("density-trimodal-fixed",
     ["density", "--generator", "trimodal", "--np", "2000", "--h", "0.3",
      "--out", "dtri.dat"], {
         "dtri.dat":
             "0f2ec3277a33a36e8db9a0c54990c38dede309be1e77fbea7002dc448238343b",
     }),
    ("density-input-na",
     ["density", "--input", _PIN_INPUT, "--h", "0.3", "--out", "dna.dat"], {
         "dna.dat":
             "2679a62383d31462951eff1ded7a33799d4cee9a88ecb1ebd3fb230924929645",
     }),
    ("density-input-grid",
     ["density", "--input", _PIN_INPUT, "--h", "0.5", "--grid-min", "-3",
      "--grid-max", "3", "--grid-points", "41", "--out", "dgrid.dat"], {
         "dgrid.dat":
             "43c865b19f1c135e5b6375594d6d031d7cb199a7861dcc07e5324414ee9115f8",
     }),
    ("sample-gauss3d",
     ["sample", "--generator", "gauss3d", "--np", "200", "--seed", "2",
      "--out", "s3.txt"], {
         "s3.txt":
             "63fed4eb1c93eb1505580fdfe8517c1f4f07dbb98f1f0afd3e8076a361cf10c1",
     }),
    ("sample-hernquist",
     ["sample", "--generator", "hernquist", "--np", "200", "--seed", "3",
      "--rc", "2.0", "--out", "shq.txt"], {
         "shq.txt":
             "b60e6470b3d4ae5f0be6d295b0fcb91cb48baf29c30984c667ab839c6e2935ba",
     }),
    ("sample-tscdens1d",
     ["sample", "--generator", "tscdens1d", "--np", "200", "--seed", "4",
      "--out", "stsc.txt"], {
         "stsc.txt":
             "602d5ec4fa02e1a805c8e1c29cc85468832115110cd396507153254a682e6895",
     }),
]


def _masked_digest(data: bytes) -> str:
    text = data.decode("utf-8").replace(RNG_NAME, "RNG")
    text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, digests", [case[1:] for case in CLI_BYTE_PINS],
                         ids=[case[0] for case in CLI_BYTE_PINS])
def test_cli_outputs_match_recorded_digests(tmp_path, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)
    _write_sample(tmp_path / _PIN_INPUT, sample_gaussian_1d(3000, seed=6).points)
    assert main(argv) == 0
    written = {
        path.name: _masked_digest(path.read_bytes())
        for path in sorted(tmp_path.iterdir())
        if path.name != _PIN_INPUT
    }
    assert written == digests


def test_select_count_flags_accept_scientific_notation(tmp_path, capsys):
    """--grid-cap and --max-iters are read by the library's count rule, as
    --np is: 1e7 is the cap 10000000 and 1e2 the cap 100, with the same
    report."""
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(5000, seed=3).points)
    reports = []
    for cap, iters in (("10000000", "100"), ("1e7", "1e2")):
        rc = main(["select", "--input", path, "--dim", "1", "--grid-cap", cap,
                   "--max-iters", iters])
        assert rc == 0
        reports.append(_strip_wall_times(json.loads(capsys.readouterr().out)))
    assert reports[0] == reports[1]


def test_select_non_integer_max_iters_names_the_field(tmp_path, capsys):
    """--max-iters 2.5 is refused by SelectorConfig's count rule, naming
    max_iterations, not by argparse's int parser."""
    path = _write_sample(tmp_path / "g.txt", sample_gaussian_1d(1000, seed=1).points)
    rc = main(["select", "--input", path, "--dim", "1", "--max-iters", "2.5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "max_iterations must be a positive integer, got 2.5" in captured.err


@pytest.mark.parametrize("dim", ["2", "0"])
def test_select_dimension_without_kernels_names_the_dimension(tmp_path, capsys, dim):
    """--dim is read by kernel_constants, not by a copy of which d have
    kernels: a d without them is named, before the sample is read."""
    rc = main(["select", "--input", str(tmp_path / "nope.txt"), "--dim", dim])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"no 'tsc' kernel in d = {dim}; kernels exist for d = 1 and 3" in err
    assert "cannot read sample file" not in err


def test_select_help_gives_the_dimensions(capsys):
    assert main(["select", "--help"]) == 0
    assert "1 or 3" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["select", "--dim", "1"], ["density", "--auto"]],
                         ids=["select", "density"])
@pytest.mark.parametrize("flag, value, message", [
    ("--max-iters", "2.5", "max_iterations must be a positive integer, got 2.5"),
    ("--grid-cap", "2.5", "grid_cap must be a positive integer, got 2.5"),
    ("--grid-cap", "0", "grid_cap must be a positive integer, got 0"),
], ids=["max-iters", "grid-cap", "grid-cap-0"])
def test_selection_flags_are_read_before_the_sample(tmp_path, capsys, command, flag, value,
                                                     message):
    """The selector config and --grid-cap go through the library's rules
    before the sample file is read: a bad value is named, not the missing
    file."""
    rc = main(command + ["--input", str(tmp_path / "nope.txt"), flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err
    assert "cannot read sample file" not in err


def test_density_grid_flags_are_read_before_the_sample(tmp_path, capsys):
    rc = main(["density", "--input", str(tmp_path / "nope.txt"), "--h", "0.5",
               "--grid-min", "-1", "--grid-max", "1", "--grid-points", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "at least 2 grid points" in err
    assert "cannot read sample file" not in err


@pytest.mark.parametrize("argv", [
    ["sample", "--generator", "gauss1d", "--np", "1e1"],
    ["density", "--generator", "gauss1d", "--np", "200", "--h", "0.5"],
], ids=["sample", "density"])
def test_seed_in_scientific_notation_writes_the_int_seed_bytes(tmp_path, argv):
    """--seed is read by the library's index rule, as --np is by the count
    rule: 1e1 is the seed 10 ("invalid int value" before)."""
    written = []
    for seed in ("10", "1e1"):
        out = tmp_path / f"out{seed}"
        assert main(argv + ["--seed", seed, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_experiment_seed_list_in_scientific_notation(tmp_path):
    docs = []
    for seeds in ("10,2", "1e1,2.0"):
        out = tmp_path / "exp.json"
        assert main(["experiment", "gauss1d", "--np", "1000", "--seed", seeds,
                     "--out", str(out)]) == 0
        docs.append(_strip_wall_times(json.loads(out.read_text())))
    assert docs[0]["seeds"] == [2, 10]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("flag, other", [("--np", "--seed"), ("--seed", "--np")])
@pytest.mark.parametrize("entries", [",", "", " , ,"])
def test_experiment_list_with_no_entries_is_a_usage_error(tmp_path, capsys, flag, other, entries):
    """A comma list with no entries names its flag and exits 1; it does not
    run the study's defaults (four decades up to 1e6 points, seeds 1-5)."""
    out = tmp_path / "exp.json"
    argv = ["experiment", "gauss1d", flag, entries, other, "1000", "--out", str(out)]
    assert main(argv) == 1
    assert f"argument {flag}: a list with no entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--generator", "gauss1d", "--np", "10"],
    ["experiment", "gauss1d", "--np", "1000"],
], ids=["sample", "experiment"])
@pytest.mark.parametrize("seed", ["1.5", "abc", "true", "nan"])
def test_seed_that_is_no_index_is_a_usage_error(capsys, argv, seed):
    rc = main(argv + ["--seed", seed])
    assert rc == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_grid_points_are_read_by_the_count_rule(tmp_path, capsys):
    """--grid-points 1e1 is the count 10; 2.5 is no count; 1 is a count
    the table's own check refuses."""
    path = _write_sample(tmp_path / "u.txt", sample_gaussian_1d(1000, seed=6).points)
    argv = ["density", "--input", path, "--h", "0.5", "--grid-min", "-1", "--grid-max", "1"]
    tables = []
    for points in ("10", "1e1"):
        out = tmp_path / f"table{points}.dat"
        assert main(argv + ["--grid-points", points, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert np.loadtxt(tmp_path / "table10.dat", comments="#", usecols=0).shape == (10,)
    assert main(argv + ["--grid-points", "2.5"]) == 1
    assert "not a positive integer count: '2.5'" in capsys.readouterr().err
    assert main(argv + ["--grid-points", "1"]) == 1
    assert "at least 2 grid points" in capsys.readouterr().err


def test_experiment_records_the_max_iters_typed(tmp_path):
    """--max-iters is read as the integer typed: 2^53 + 1 was read as a
    float first and recorded as 2^53."""
    out = tmp_path / "exp.json"
    assert main(["experiment", "gauss1d", "--np", "1000", "--seed", "1",
                 "--max-iters", "9007199254740993", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["max_iterations"] == 9007199254740993
    assert '"max_iterations": 9007199254740993,' in out.read_text()


@pytest.mark.parametrize("low, high", [("-1e308", "1e308"), ("-inf", "inf"), ("0", "nan")],
                         ids=["span-overflows", "infinite", "nan"])
def test_density_grid_bounds_must_be_finite(capsys, low, high):
    """Bounds whose span is no finite float are named, with no numpy
    warning from np.linspace first."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["density", "--generator", "gauss1d", "--np", "200", "--h", "0.5",
                   f"--grid-min={low}", f"--grid-max={high}", "--grid-points", "5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "kdeband: error: --grid-min, --grid-max and their span must be finite\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("argv, message", [
    (["select", "--dim", "1"], "expected 1 column(s) for --dim 1, found 3"),
    (["density", "--h", "0.5"], "expected 1 column(s) for a 1D density table, found 3"),
], ids=["select", "density"])
def test_sample_file_columns_are_named_by_the_command(tmp_path, capsys, argv, message):
    """Only select, which has --dim, names it when a file has the wrong
    number of columns."""
    path = _write_sample(tmp_path / "g3.txt", sample_gaussian_3d(100, seed=0).points)
    assert main(argv + ["--input", path]) == 1
    assert capsys.readouterr().err == f"kdeband: error: {path!r}: {message}\n"


# ---------------------------------------------------------------------------
# the row formatter
# ---------------------------------------------------------------------------


def _fuzz_values(rng, n):
    """Finite floats of every kind a table row can hold: scales 2^-1074 to
    2^1000 of either sign, subnormals, signed zeros, integers and values
    next to the %.17g notation switches at 1e-5, 1e16 and 1e17."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -3.0,
                        2.0 ** 53, 1e-5, 9.9999999999999991e-06, 1e-4, 1e16, 1e17,
                        9.9999999999999984e16, 123456789012345678.0, 2.0 ** 1000,
                        -(2.0 ** -1000), np.finfo(float).max])
    scaled = rng.standard_normal(n) * np.exp2(rng.integers(-1074, 1001, n).astype(float))
    integers = rng.integers(-10 ** 18, 10 ** 18, n).astype(float)
    values = np.concatenate([special, scaled, integers])
    return rng.permutation(np.resize(values, n))


_BLOCK_PLUS = (1 << 14) + 3  # rows: more than one of _rows's blocks


@pytest.mark.parametrize("seed, n, k, na", [
    (0, 1, 1, None), (1, 1, 1, 0), (2, 1, 2, 2), (3, 2, 3, 0), (4, 2, 3, 2),
    (5, _BLOCK_PLUS, 2, 1), (6, _BLOCK_PLUS, 3, 3), (7, _BLOCK_PLUS, 1, None),
])
def test_rows_write_each_value_as_format_17g(seed, n, k, na):
    """The block formatter writes the bytes of format(v, '.17g') per value
    and NA for a None column, wherever it sits, for one row and for more
    rows than one block: n rows of k numeric columns, a None inserted at
    position na."""
    assert _BLOCK_PLUS > kdeband.cli._ROW_BLOCK
    rng = np.random.default_rng(seed)
    columns = [_fuzz_values(rng, n) for _ in range(k)]
    if na is not None:
        columns.insert(na, None)
    want = "".join(
        " ".join("NA" if column is None else format(float(column[i]), ".17g")
                 for column in columns) + "\n"
        for i in range(n))
    assert kdeband.cli._rows(*columns) == want


@pytest.mark.parametrize("argv", [
    ["density", "--generator", "gauss1d", "--np", "500", "--h", "0.5"],
    ["sample", "--generator", "gauss3d", "--np", "50", "--seed", "1"],
], ids=["density", "sample"])
def test_tables_and_samples_format_through_the_row_formatter(capsys, monkeypatch, argv):
    """Every numeric row the CLI writes comes from the one row formatter."""
    calls = []
    rows = kdeband.cli._rows

    def spy(*columns):
        calls.append(len(columns))
        return rows(*columns)

    monkeypatch.setattr(kdeband.cli, "_rows", spy)
    assert main(argv) == 0
    assert calls == [3]
    body = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(body) == 50 if argv[0] == "sample" else len(body) > 0


# ---------------------------------------------------------------------------
# the streaming writer
# ---------------------------------------------------------------------------

# Traced bytes of one block of rows in flight, per value: the Python float
# (24 B), its list and tuple slots (16 B), its text and row template (about
# 25 B) and the block's column_stack copy (8 B).  One block of three columns
# measured 3.24 MB, 69 B per value; the bound rounds that up to 100 B.
_BLOCK_BYTES_PER_VALUE = 100


def _traced_peak(argv) -> int:
    """The tracemalloc peak of main(argv), which must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_file_memory_is_the_draw_plus_one_block(tmp_path):
    """kdeband sample writes its file a block of rows at a time: the peak
    is the draw's (the normals, which the sample freezes in place; twice
    the sample's bytes while it copied them) plus one block of rows, not
    the file's text (about 12 MB here, held twice when it was built
    whole)."""
    n, dim = 200_000, 3
    peak = _traced_peak(["sample", "--generator", "gauss3d", "--np", str(n), "--seed", "1",
                         "--out", str(tmp_path / "s.txt")])
    assert peak < 2 * n * dim * 8 + _BLOCK_BYTES_PER_VALUE * dim * kdeband.cli._ROW_BLOCK


@pytest.mark.parametrize("fmt", [None, "%d", "%.6f"], ids=["sample", "int", "fixed"])
def test_sample_file_load_keeps_one_array_of_the_sample(tmp_path, fmt):
    """The loaded rows become the sample's points, frozen in place: the
    traced peak of loading a 5e5-line 1D file is 1.28 times the sample's
    bytes (2.02 while the sample copied the rows).  Short tokens (integers
    below 2^31, %.6f normals) fit more rows in 2^17 bytes, so the reader
    caps a block at 2^13 tokens: they peak at 1.26 and 1.24 (1.37 and 1.38
    without the cap)."""
    path = str(tmp_path / "g.txt")
    if fmt is None:
        assert main(["sample", "--generator", "gauss1d", "--np", "500000", "--seed", "1",
                     "--out", path]) == 0
    else:
        rng = np.random.default_rng(1)
        values = rng.integers(0, 2 ** 31, 500_000) if fmt == "%d" else rng.standard_normal(500_000)
        np.savetxt(path, values, fmt=fmt)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample = kdeband.cli._load_sample_file(path, 1, "--dim 1")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sample.size_Np == 500_000
    assert peak <= 1.35 * sample.points.nbytes


def test_loaded_sample_points_are_read_only(tmp_path):
    """A file's sample is read-only in 1D (a view of the one loaded
    column) and in 3D."""
    for dim, values in ((1, np.arange(5.0)), (3, np.arange(15.0).reshape(5, 3))):
        path = _write_sample(tmp_path / f"s{dim}.txt", values)
        sample = kdeband.cli._load_sample_file(path, dim, f"--dim {dim}")
        assert sample.points.shape == values.shape
        assert not sample.points.flags.writeable


def test_density_table_memory_is_its_columns_plus_one_block(tmp_path, monkeypatch):
    """A --grid-points table over four blocks long: the peak is its three
    columns plus one block of rows.  The estimate is evaluated before
    tracing (its per-query loop is slow under tracemalloc) and handed to the
    command as the table's f_hat column."""
    n = 4 * kdeband.cli._ROW_BLOCK + 3
    fhat = kdeband.estimator.estimate_density(sample_gaussian_1d(1000, seed=1),
                                              kernel_constants("tsc", 1), 0.01,
                                              np.linspace(-5.0, 5.0, n))
    monkeypatch.setattr(kdeband.cli, "estimate_density", lambda *args: fhat.copy())
    peak = _traced_peak(["density", "--generator", "gauss1d", "--np", "1000", "--h", "0.01",
                         "--grid-min=-5", "--grid-max", "5", "--grid-points", str(n),
                         "--out", str(tmp_path / "d.dat")])
    assert peak < 3 * n * 8 + _BLOCK_BYTES_PER_VALUE * 3 * kdeband.cli._ROW_BLOCK


def test_stdout_and_out_file_get_the_same_bytes_across_blocks(tmp_path, capsys):
    """A sample two blocks and three rows long writes the same bytes to
    stdout and through --out: those recorded (masked as the byte pins are)
    before the writer streamed its blocks."""
    argv = ["sample", "--generator", "gauss3d", "--np", "16387", "--seed", "1"]
    assert 16387 > kdeband.cli._ROW_BLOCK
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert main(argv + ["--out", str(tmp_path / "s.txt")]) == 0
    assert (tmp_path / "s.txt").read_bytes() == stdout
    assert _masked_digest(stdout) == (
        "e270f7977676f6365fb0070dbef645b318b6998ff3ca72fe657964789dec82ef")


@pytest.mark.parametrize("argv", [
    ["sample", "--generator", "gauss1d", "--np", "200000", "--seed", "1"],
    ["density", "--generator", "gauss1d", "--np", "20000", "--h", "0.01",
     "--grid-min=-5", "--grid-max", "5", "--grid-points", "40000"],
], ids=["sample", "density"])
def test_closed_stdout_pipe_is_harmless(argv):
    """A reader that closes stdout after one line (``| head -1``) leaves the
    command's exit code 0 and its stderr empty: megabytes of rows are left
    unwritten, so the write meets the closed pipe."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "kdeband.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"# ")
    assert err == b""


def test_out_file_that_cannot_be_written_is_an_error(tmp_path, capsys):
    """--out into a missing directory names the OSError and exits 1."""
    path = tmp_path / "missing" / "s.txt"
    argv = ["sample", "--generator", "gauss1d", "--np", "10", "--seed", "1", "--out", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("kdeband: error: [Errno 2]") and str(path) in err
