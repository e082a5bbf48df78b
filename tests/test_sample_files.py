"""The CLI's sample-file loader: text files read bit for bit as
``np.loadtxt(path, comments="#", ndmin=2)`` reads them, by the block-wise
reader where the layout allows, ``.npy`` files, and the named errors.

Every corpus is drawn from a seeded numpy generator.
"""

import json
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import kdeband.cli
from kdeband.cli import main
from kdeband.errors import KdebandError
from kdeband.reference import sample_gaussian_1d, sample_gaussian_3d

N = 20_000  # rows: several of the reader's blocks


def _read(path):
    """The block-wise reader's rows of the file, or None where it hands the
    file to np.loadtxt."""
    with open(path, "rb") as fh:
        return kdeband.cli._read_rows(fh)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_reads_as_loadtxt(path, fast=True):
    """The reader's rows are np.loadtxt's, bit for bit; with ``fast`` the
    reader must read the file itself."""
    want = np.loadtxt(path, comments="#", ndmin=2)
    got = _read(path)
    assert got is not None or not fast
    assert got is None or _same_bits(got, want)


def _write_tokens(path, tokens, cols=1, header="# a header line\n"):
    rows = [" ".join(tokens[i:i + cols]) for i in range(0, len(tokens), cols)]
    path.write_text(header + "\n".join(rows) + "\n")
    return path


def _scaled(rng, n):
    """Normal deviates scaled by 10^k, k uniform in [-9, 9]."""
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 9, n)


def _near_ties(rng, n):
    """Decimal strings of 15-19 significant digits next to the midpoint of
    two adjacent doubles, rounded down or up, at scales 10^-280 to 10^280:
    the tokens whose rounding the error bound has to settle."""
    tokens = []
    for i in range(n):
        low = float(rng.standard_normal() * 10.0 ** int(rng.integers(-280, 281)))
        mid = (Fraction(low) + Fraction(float(np.nextafter(low, np.inf)))) / 2
        with localcontext() as ctx:
            ctx.prec = int(rng.integers(15, 20))
            ctx.rounding = ROUND_FLOOR if i % 2 else ROUND_CEILING
            tokens.append(str(Decimal(mid.numerator) / Decimal(mid.denominator)))
    return tokens


def _truncated_midpoints(rng, n):
    """Midpoints of adjacent doubles near 1, written with 24 fraction
    digits (truncated)."""
    tokens = []
    for low in rng.standard_normal(n):
        mid = (Fraction(float(low)) + Fraction(float(np.nextafter(low, np.inf)))) / 2
        sign = "-" if mid < 0 else ""
        mid = abs(mid)
        whole = int(mid)
        tokens.append(f"{sign}{whole}.{int((mid - whole) * 10 ** 24):024d}")
    return tokens


# name -> (tokens from a seeded generator, columns, read by the fast path)
CORPORA = {
    "17g": (lambda rng: ["%.17g" % v for v in _scaled(rng, N)], 1, True),
    "repr": (lambda rng: [repr(float(v)) for v in _scaled(rng, N)], 1, True),
    "18e": (lambda rng: ["%.18e" % v for v in _scaled(rng, N)], 1, True),
    "6f": (lambda rng: ["%.6f" % v for v in rng.standard_normal(N)], 1, True),
    "20f": (lambda rng: ["%.20f" % v for v in rng.standard_normal(N)], 1, False),
    "24f": (lambda rng: ["%.24f" % v for v in rng.standard_normal(N)], 1, False),
    "integers": (lambda rng: ["%d" % v for v in rng.integers(-10 ** 18, 10 ** 18, N)], 1, True),
    "three-columns": (lambda rng: ["%.17g" % v for v in rng.standard_normal(3 * N)], 3, True),
    "near-ties": (lambda rng: _near_ties(rng, 4000), 1, True),
    "midpoints-24-digits": (lambda rng: _truncated_midpoints(rng, 2000), 1, False),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_reads_as_loadtxt(tmp_path, name):
    make, cols, fast = CORPORA[name]
    path = _write_tokens(tmp_path / f"{name}.txt", make(np.random.default_rng(7)), cols)
    _assert_reads_as_loadtxt(path, fast)


# Tokens the fast path refuses or must get exactly right, one of them among
# 40 ordinary ones at each place, so each is read on its own text.
ODD_TOKENS = ["+1", "1e+17", "1E5", "1e-310", "4.9406564584124654e-324", "1e400", "-1e400",
              "12345678901234567890", "99999999999999999999", "18440000000000000000",
              "18446744073709551615", "9007199254740993", "0", "-0", ".5", "5.", "-.5", "-5.",
              "0e999", "-0e-999", "00012", "1.7976931348623157e308", "2.2250738585072014e-308",
              "1e-288", "1e288", "9.9999999999999999e287", "1.0000000000000001e-288",
              "123456789012345678.9", "0.000000000000000000001", "nan", "inf", "-inf"]
# Exact ties whose 10^E is inexact: the rounding bound must refuse them.
TIES = ([f"{2 ** 53 + 2 * j + 1}.0" for j in range(40)]
        + [f"{2 ** 52 + j}.5" for j in range(40)]
        + [f"{2 ** 54 + 4 * j + 2}.00" for j in range(40)])


def test_odd_tokens_among_ordinary_ones_read_as_loadtxt(tmp_path):
    rng = np.random.default_rng(3)
    tokens = []
    for odd in ODD_TOKENS + TIES:
        tokens += ["%.17g" % v for v in rng.standard_normal(40)] + [odd]
    _assert_reads_as_loadtxt(_write_tokens(tmp_path / "odd.txt", tokens))


def test_wide_mantissas_among_short_decimals_read_as_loadtxt(tmp_path):
    """A block of short decimals takes Clinger's one division, which is
    exact only for M < 2^53.  Among them, tokens with 2^53 <= M < 2^54 and
    1-6 fraction digits, each of which M rounded to a double first would
    misround, read as np.loadtxt reads them."""
    rng = np.random.default_rng(6)
    tokens = []
    while len(tokens) < 40:
        m, k = int(rng.integers(2 ** 53, 2 ** 54)), int(rng.integers(1, 7))
        if float(m) / 10.0 ** k != m / 10 ** k:  # int / int rounds once
            tokens += ["%.6f" % v for v in rng.standard_normal(40)]
            tokens.append(f"{m // 10 ** k}.{m % 10 ** k:0{k}d}")
    _assert_reads_as_loadtxt(_write_tokens(tmp_path / "wide.txt", tokens))


def test_kdeband_sample_files_take_the_fast_path(tmp_path):
    """The files ``kdeband sample`` writes (the benchmark's input) read
    as np.loadtxt reads them, without handing any token on: Hernquist
    radii reach 10^3, and TSC-shaped draws near 0 print exponents."""
    for generator in ("gauss1d", "gauss3d", "tscdens1d", "trimodal", "hernquist"):
        path = tmp_path / f"{generator}.txt"
        assert main(["sample", "--generator", generator, "--np", "30000", "--seed", "4",
                     "--out", str(path)]) == 0
        _assert_reads_as_loadtxt(path)


def test_exact_ties_are_refused(tmp_path, monkeypatch):
    """A decimal exactly halfway between two doubles leaves a rounding
    residual of half the gap, which the fast path refuses, whether 10^E is
    exact (E = 0) or not."""
    tokens = TIES + ["9007199254740993", "9007199254740995", "18014398509481986"]
    refused = _spy_refused(monkeypatch)
    rng = np.random.default_rng(4)
    mixed = []
    for tie in tokens:
        mixed += ["%.17g" % v for v in rng.standard_normal(40)] + [tie]
    _read(_write_tokens(tmp_path / "ties.txt", mixed))
    assert sorted(refused) == sorted(t.encode() for t in tokens)


def _spy_refused(monkeypatch):
    """Record the tokens handed to np.loadtxt, and leave NaN in their
    places instead of parsing them."""
    refused = []

    def spy(raw, values, start, stop, rows):
        refused.extend(bytes(raw[start[i]:stop[i]]) for i in rows)
        values[rows] = np.nan
        return True

    monkeypatch.setattr(kdeband.cli, "_read_refused", spy)
    return refused


@pytest.mark.parametrize("base, least", [(b"12345678", 8 * 10 + 7), (b"1.5e+123", 20)],
                         ids=["digits", "exponent"])
def test_every_byte_at_every_place_of_a_word(tmp_path, monkeypatch, base, least):
    """Each byte value 33-255 at each of the 8 places of a word of digits,
    and of a token with an exponent, either parses as np.loadtxt parses
    the token or is refused; the bytes up to 32, which split tokens or
    lines, read as np.loadtxt reads them."""
    tokens = [base[:p] + bytes([b]) + base[p + 1:] for p in range(8) for b in range(33, 256)]
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\n".join(tokens) + b"\n")
    refused = _spy_refused(monkeypatch)
    got = _read(path).ravel()
    assert len(got) == len(tokens)
    accepted = 0
    for token, value in zip(tokens, got):
        if token in refused:
            assert np.isnan(value)
        else:
            accepted += 1
            want = np.loadtxt([token.decode()], ndmin=1)
            assert _same_bits(np.array([value]), want), token
    assert accepted >= least  # of "12345678": the digits, '.' at each place, '-' first
    monkeypatch.undo()
    for p in range(8):
        for b in range(33):
            path.write_bytes(b"1.5\n" + base[:p] + bytes([b]) + base[p + 1:] + b"\n2.5\n")
            try:
                want = np.loadtxt(path, comments="#", ndmin=2)
            except ValueError:
                want = None
            got = _read(path)
            assert got is None or (want is not None and _same_bits(got, want)), (p, b)


def _loadtxt_outcome(path):
    """np.loadtxt's array of the file, or the loader's message for its
    error."""
    try:
        return np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        return f"malformed sample file {str(path)!r}: {exc}"


@pytest.mark.parametrize("text", [
    b"0.5\r\n1.5\r\n", b"0.5\t1.5\n2.5\t3.5\n", b"\xef\xbb\xbf0.5\n1.5\n", b"0.5\n\xff\n",
    b"0.5\n1_0\n", b"0.5\n\n1.5\n", b"0.5\n1.5 # note\n", b"0.5\n# note\n1.5\n",
    b"1 2\n3\n", b"1\n2 3\n", b"0.5\n1.5", b" 0.5\n1.5\n", b"0.5 \n1.5\n", b"0.5  1.5\n",
    b"#\xff\n0.5\n", b"# a\r# b\n0.5\n", b"0.5\n1.5\n\n", b"0x10\n",
], ids=["crlf", "tabs", "bom", "byte-ff", "underscore", "blank-line", "trailing-comment",
        "mid-comment", "ragged-short", "ragged-long", "no-last-newline", "leading-space",
        "trailing-space", "double-space", "header-byte-ff", "header-cr", "trailing-blank",
        "hex"])
def test_other_layouts_give_loadtxt_result_or_error(tmp_path, text):
    """Each layout the fast path does not read gives np.loadtxt's result,
    or its exact error text."""
    path = tmp_path / "f.txt"
    path.write_bytes(text)
    want = _loadtxt_outcome(path)
    if isinstance(want, str):
        with pytest.raises(KdebandError) as info:
            kdeband.cli._load_sample_file(str(path), 1, "--dim 1")
        assert str(info.value) == want
    else:
        sample = kdeband.cli._load_sample_file(str(path), want.shape[1], "this file")
        assert _same_bits(sample.points.reshape(want.shape), want)


def test_wrapped_mantissas_raise_no_warning(tmp_path):
    """20-digit mantissas wrap the uint64 sum; they are refused before any
    cast (the suite turns warnings into errors)."""
    rng = np.random.default_rng(5)
    tokens = ["".join(map(str, rng.integers(1, 10, 20))) for _ in range(500)]
    _assert_reads_as_loadtxt(_write_tokens(tmp_path / "wide.txt", tokens), fast=False)


# ---------------------------------------------------------------------------
# .npy samples
# ---------------------------------------------------------------------------


def _selected_h(capsys, argv) -> float:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["selected_h"]


@pytest.mark.parametrize("dim", [1, 3])
def test_npy_and_text_files_select_the_same_bits(tmp_path, capsys, dim):
    points = (sample_gaussian_1d(5000, seed=2) if dim == 1 else sample_gaussian_3d(3000, seed=2)).points
    text, npy = str(tmp_path / "s.txt"), str(tmp_path / "s.npy")
    np.savetxt(text, points, fmt="%.17g")
    np.save(npy, points)
    argv = ["select", "--dim", str(dim), "--input"]
    assert _selected_h(capsys, argv + [text]) == _selected_h(capsys, argv + [npy])


def test_npy_sample_is_adopted_and_read_only(tmp_path):
    points = np.arange(12.0).reshape(4, 3)
    path = str(tmp_path / "s.npy")
    np.save(path, points)
    sample = kdeband.cli._load_sample_file(path, 3, "--dim 3")
    assert _same_bits(sample.points, points)
    assert not sample.points.flags.writeable


def _bad_npy(kind, path):
    values = np.arange(1.0, 11.0)
    if kind == "pickled":
        path.write_bytes(b"\x93NUMPY" + b"\x80\x04K\x01.")
    elif kind == "object":
        np.save(path, np.array([1.0, "a"], dtype=object), allow_pickle=True)
    elif kind == "complex":
        np.save(path, values.astype(complex))
    elif kind == "wrong-shape":
        np.save(path, values.reshape(1, 2, 5))
    elif kind == "non-finite":
        np.save(path, np.r_[values, np.nan])
    else:
        np.save(path, values)
        path.write_bytes(path.read_bytes()[:-12])


@pytest.mark.parametrize("kind", ["pickled", "object", "complex", "wrong-shape", "non-finite",
                                  "truncated"])
def test_bad_npy_files_exit_1_naming_the_file(tmp_path, capsys, kind):
    path = tmp_path / "bad.npy"
    _bad_npy(kind, path)
    assert main(["select", "--dim", "1", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kdeband: error:")
    assert repr(str(path)) in lines[0]


# ---------------------------------------------------------------------------
# non-finite values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("dim", [1, 3])
def test_non_finite_value_names_file_and_row(tmp_path, capsys, token, dim):
    rows = [" ".join(["0.5"] * dim)] * 4
    rows[2] = " ".join(["0.25"] * (dim - 1) + [token])
    path = tmp_path / "nf.txt"
    path.write_text("# header\n" + "\n".join(rows) + "\n")
    assert main(["select", "--dim", str(dim), "--input", str(path)]) == 1
    assert capsys.readouterr().err == (f"kdeband: error: {str(path)!r}: data row 3 holds a "
                                       f"non-finite value, {float(token)!r}\n")


def test_overflowing_value_names_its_row(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("1.5\n1e999\n")
    assert main(["select", "--dim", "1", "--input", str(path)]) == 1
    assert "data row 2 holds a non-finite value, inf" in capsys.readouterr().err
