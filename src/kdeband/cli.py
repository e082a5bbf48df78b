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
from .estimator import Sample, _adopt, build_grid, estimate_density, kernel_constants
from .reference import (
    _LAWS,
    HERNQUIST_EXTERNAL_REFERENCE,
    RNG_NAME,
    AnalyticDensity,
    HernquistParams,
    _hernquist_window_norm,
    analytic_optimal_bandwidth,
    eval_density,
    hernquist_profile,
    hernquist_radial_pdf,
    profile_from_radial_pdf,
)
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


def _list_of(parse):
    """A flag type: the comma-separated list of what ``parse`` reads.  A
    list with no entries ("," or "") is a usage error, so it never stands
    for the default."""

    def parse_list(text: str) -> list[int]:
        values = [parse(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"a list with no entries: {text!r}")
        return values

    return parse_list


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


# _read_rows parses a file a block at a time, each block cut after its last
# newline and held behind _PAD bytes of b"0", so the 8-byte words gathered
# below a token's end stay in the buffer.  A block spans at most
# _READ_BLOCK bytes and _READ_TOKENS tokens at the file's mean bytes per
# token, since its temporaries grow with its tokens.  2^17 bytes of 1D
# %.17g rows hold about 6,500 tokens; loading 5e5 of them peaks at 1.26
# times the sample's bytes (2^16: 1.16 but 15 % slower, 2^18: 1.63).
# Integers or %.6f values, shorter tokens with fewer temporaries each, peak
# at 1.26 and 1.24 in blocks of 2^13 tokens (1.37 and 1.38 in 2^17 bytes;
# in 6,500 tokens 1.21 and 1.20 but 4-8 % slower).
_READ_BLOCK = 1 << 17
_READ_TOKENS = 1 << 13
_PAD = 32
_U64 = np.uint64


def _lanes(byte: int):
    """The byte in all eight lanes of a word."""
    return _U64(byte * 0x0101010101010101)


def _top(count: int) -> int:
    """The mask of a little-endian word's top ``count`` bytes (its last
    ``count`` characters)."""
    return 0 if count <= 0 else (1 << 64) - (1 << (64 - 8 * min(count, 8)))


_ZERO_CHARS = _lanes(0x30)
_LOW7 = _lanes(0x7F)
_HIGH = _lanes(0x80)
_PAIRS = _U64(0x000000FF000000FF)
# A token's last 8 bytes by its length (0-8), and the exponent's last 3 by
# its digit count (0-3).
_TAIL = np.array([_top(c) for c in range(9)], dtype=np.uint64)
_EXP_DIGITS = np.array([_top(c) >> 40 for c in range(4)], dtype=np.uint64)
# A mantissa's 24-byte window is three words ending at its last byte: the
# byte offsets of their starts below that end, the window index of their
# first bytes, and their in-field bytes by field width (0 and 25 refused).
_WINDOW = np.array([[24], [16], [8]])
_WINDOW_BITS = np.array([[0], [8], [16]], dtype=np.uint64)
_FIELD = np.array([[_top(w - b) if 0 < w <= 24 else 0 for w in range(26)] for b in (16, 8, 0)],
                  dtype=np.uint64)
# By the dot's index q in the 24-byte window (64: no dot): the bytes right
# of it, which stay in place, and the fraction digits.
_KEEP = np.array([[_top(b + 7 - q) if q < 24 else (1 << 64) - 1 for q in range(65)]
                  for b in (0, 8, 16)], dtype=np.uint64)
_FRACTION = np.array([23 - q if q < 24 else 0 for q in range(65)])
# 10^E for E in [_EXP_MIN, _EXP_MAX] as (hi, lo, hi's Veltkamp halves): hi
# is 10^E rounded, lo the rest rounded, both from exact integer ratios.
_EXP_MIN, _EXP_MAX = -288, 288
_SPLIT = 134217729.0  # 2^27 + 1
_TENS = 10.0 ** np.arange(23)  # exact doubles
_ACCEPT = 0.5 * (1.0 - 2.0 ** -40)


def _pow10_table() -> np.ndarray:
    rows = []
    for e in range(_EXP_MIN, _EXP_MAX + 1):
        # 10^E as num/den; int / int and float(int) round correctly.
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        hi = num / den
        a, b = hi.as_integer_ratio()
        big = _SPLIT * hi
        head = big - (big - hi)
        rows.append((hi, (num * b - a * den) / (den * b), head, hi - head))
    return np.array(rows).T.copy()


_POW10 = _pow10_table()


def _non_digits(y):
    """The high bit of every byte of y whose value is no digit 0-9."""
    flags = y & _LOW7
    flags += _lanes(0x76)
    flags |= y
    flags &= _HIGH
    return flags


def _digits(y):
    """The 8-digit numbers in the words of y, whose bytes each hold a digit
    0-9, the first (lowest) byte the most significant: Lemire's SWAR step,
    in place."""
    pairs = y >> _U64(8)
    y *= _U64(10)
    y += pairs
    np.right_shift(y, _U64(16), out=pairs)
    pairs &= _PAIRS
    pairs *= _U64(1 + (10000 << 32))
    y &= _PAIRS
    y *= _U64(100 + (1000000 << 32))
    y += pairs
    y >>= _U64(32)
    return y


def _exponents(word, in_token, stop, at):
    """The mantissa ends, the exponents and the refused tokens of the
    tokens ending at ``stop``, of which those at ``at`` hold a letter in
    their last 8 bytes (``word``, ``in_token`` marking the token's bytes):
    each is valid as a token ending in ``[eE][+-]?D{1,3}``."""
    x = (word | _lanes(0x20)) ^ _lanes(0x65)  # e and E to zero bytes
    mark = ~(((x & _LOW7) + _LOW7) | x | _LOW7) & in_token
    size = (71 - np.bitwise_count(mark - _U64(1)).astype(np.int64)) >> 3  # the e to the end
    ok = (np.bitwise_count(mark) == 1) & (size >= 2) & (size <= 5)
    after = (word >> (72 - 8 * np.clip(size, 2, 5)).astype(np.uint64)) & _U64(0xFF)
    minus = after == 45
    count = size - 1 - (minus | (after == 43))
    ok &= (count >= 1) & (count <= 3)
    digits = ((word ^ _ZERO_CHARS) >> _U64(40)) & _EXP_DIGITS.take(np.clip(count, 0, 3))
    ok &= _non_digits(digits) == 0
    value = ((digits & _U64(0xFF)) * _U64(100) + ((digits >> _U64(8)) & _U64(0xFF)) * _U64(10)
             + (digits >> _U64(16))).astype(np.int64)
    end = stop.copy()
    end[at] -= size * ok
    exponent = np.zeros(len(stop), dtype=np.int64)
    exponent[at] = np.where(minus, -value, value)
    return end, exponent, at[~ok]


def _mantissas(buf, words, end, first, last_word):
    """Each token's mantissa M (the integer its digits spell) and fraction
    digit count, and whether it is valid: ``buf[first:end]``, 1-24 bytes of
    digits with at most one '.', at least one digit, and M < 1.844e19.
    ``last_word`` is the word ending at ``end`` when already gathered."""
    width = np.subtract(end, first, out=first)
    np.maximum(width, 0, out=width)
    np.minimum(width, 25, out=width)
    # The window's last k words, enough for the block's widest mantissa.
    rows = slice(3 - min(3, max(1, (int(width.max()) + 7) // 8)), 3)
    if last_word is None:
        y = words[end - _WINDOW[rows]]
    else:
        y = np.empty((3 - rows.start, len(end)), dtype=np.uint64)
        y[:-1] = words[end - _WINDOW[rows][:-1]]
        y[-1] = last_word
    y ^= _ZERO_CHARS
    y &= _FIELD[rows].take(width, axis=1)
    # One bit per non-digit byte of the window, by its index: at most one,
    # the dot, whose index is then q (64 for none).
    flags = _non_digits(y)
    flags *= _U64(0x0002040810204081)
    flags >>= _U64(56)
    flags <<= _WINDOW_BITS[rows]
    mask = np.bitwise_or.reduce(flags, axis=0)
    del flags
    q = np.bitwise_count(mask - _U64(1))
    ok = (np.bitwise_count(mask) <= 1) & (width > (q != 64)) & (width <= 24)
    if mask.any():
        ok &= (buf[end - 24 + np.minimum(q, 23)] == 46) | (q == 64)
        # Drop the dot: the bytes left of it move one place right.
        moved = y << _U64(8)
        moved[1:] |= y[:-1] >> _U64(56)
        y ^= moved
        for row, keep in zip(y, _KEEP[rows]):
            row &= keep.take(q)
        y ^= moved
        del moved
    chunks = _digits(y)
    if len(chunks) == 3:
        ok &= chunks[0] <= 1843
    mantissa = chunks[0]
    for chunk in chunks[1:]:
        mantissa = mantissa * _U64(10 ** 8) + chunk
    return mantissa, _FRACTION.take(q), ok


def _round(mantissa, exponent, ok):
    """The doubles nearest M * 10^E, with ``ok`` cleared in place where
    the rounding is not proven (``_load_sample_file`` derives the bound).
    M is zeroed where not ok."""
    mantissa *= ok
    if exponent.max() <= 0 and exponent.min() >= -22 and mantissa.max() < 2 ** 53:
        # Clinger's fast path: M and 10^-E are exact doubles, so one
        # division rounds correctly.
        return mantissa.astype(float) / _TENS.take(-exponent)
    zero = mantissa == 0
    index = exponent - _EXP_MIN
    ok &= ((index >= 0) & (index <= _EXP_MAX - _EXP_MIN)) | zero
    np.clip(index, 0, _EXP_MAX - _EXP_MIN, out=index)
    hi, lo, head, tail = (row.take(index) for row in _POW10)
    del index
    m = mantissa.astype(float)
    mantissa -= m.astype(np.uint64)  # m' as int64 bits
    lo *= m
    lo += mantissa.view(np.int64).astype(float) * hi  # m p' + m' p
    m_head = m * _SPLIT
    m_tail = m_head - m
    m_head -= m_tail
    np.subtract(m, m_head, out=m_tail)
    m *= hi  # a
    rest = m_head * head
    rest -= m
    m_head *= tail
    rest += m_head
    head *= m_tail
    rest += head
    m_tail *= tail
    rest += m_tail
    rest += lo  # t
    del hi, lo, head, tail, m_head, m_tail
    value = m + rest
    m -= value
    rest += m  # the exact residual a + t - r (Fast2Sum)
    below = (value.view(np.int64) - 1 + zero).view(float)
    below -= value
    below *= -_ACCEPT
    ok &= (np.abs(rest) < below) | zero
    return value


def _parse_block(buf, words, stop_at, cols):
    """The values of the tokens in ``buf[_PAD:stop_at]`` (whole lines),
    with the starts, ends and indices of those the fast path refused, or
    None where a separator is not one space between tokens and one newline
    after the line's ``cols``-th."""
    stop = np.flatnonzero(buf[:stop_at] <= 32)
    kind = buf[stop]
    if len(stop) % cols or not ((kind.reshape(-1, cols)[:, :-1] == 32).all()
                                and (kind[cols - 1::cols] == 10).all()):
        return None
    start = np.empty_like(stop)
    start[0] = _PAD
    np.add(stop[:-1], 1, out=start[1:])
    length = stop - start
    if length.min() < 1:
        return None
    negative = buf[start] == 45
    last = words[stop - 8]
    in_token = _TAIL.take(np.minimum(length, 8))
    del length
    letters = np.flatnonzero(last & in_token & _lanes(0x40))
    end, exponent, refused = stop, 0, letters[:0]
    if len(letters):
        end, exponent, refused = _exponents(last[letters], in_token[letters], stop, letters)
        last = None
    del in_token
    mantissa, fraction, ok = _mantissas(buf, words, end, start + negative, last)
    del last
    ok[refused] = False
    values = _round(mantissa, np.subtract(exponent, fraction, out=fraction), ok)
    sign = negative.astype(np.int64)
    sign <<= 63
    np.bitwise_or(values.view(np.int64), sign, out=values.view(np.int64))
    return values, start, stop, np.flatnonzero(~ok)


def _read_refused(raw, values, start, stop, refused) -> bool:
    """Parse the refused tokens into ``values`` with np.loadtxt, each on
    its own text, and say whether that worked: not when they are more than
    an eighth of the block, hold a byte outside ASCII or a '#', or one of
    them fails."""
    if 8 * len(refused) > len(values) + 64:
        return False
    texts = [raw[start[i]:stop[i]] for i in refused]
    if not all(text.isascii() and b"#" not in text for text in texts):
        return False
    try:
        values[refused] = np.loadtxt([text.decode() for text in texts], ndmin=1)
    except ValueError:
        return False
    return True


def _read_rows(fh):
    """The rows of the sample file open in ``fh`` (binary, at its start)
    as ``np.loadtxt(path, comments="#", ndmin=2)`` reads them, bit for
    bit, or None for a file whose layout this reader leaves to that call.

    The file is leading lines that start with '#', then lines of ``cols``
    tokens (the first line's count) joined by one space, each line ended
    by a newline; ``_load_sample_file`` gives the token grammar.  One
    counting pass sizes the output and the blocks, then each block's rows
    are parsed into it.
    """
    raw = bytearray(_PAD + _READ_BLOCK)
    raw[:_PAD] = b"0" * _PAD
    buf = np.frombuffer(raw, dtype=np.uint8)
    words = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    view = memoryview(raw)[_PAD:]
    got = fh.readinto(view)
    pos, end = _PAD, _PAD + got
    while pos < end and raw[pos] == 35:
        pos = raw.find(b"\n", pos, end) + 1
        if not pos:
            return None
    header = buf[_PAD:pos]
    if ((header > 126) | ((header < 32) & (header != 9) & (header != 10))).any():
        return None
    first = raw.find(b"\n", pos, end)
    if first < 0:
        return None
    cols = raw.count(b" ", pos, first) + 1
    rows, lo = 0, pos
    while got:
        rows += np.count_nonzero(buf[lo:_PAD + got] == 10)
        last = raw[_PAD + got - 1]
        got, lo = fh.readinto(view), _PAD
    if last != 10:
        return None
    view = view[:min(_READ_BLOCK, _READ_TOKENS * (fh.tell() + _PAD - pos) // (rows * cols))]
    out = np.empty((rows, cols))
    flat = out.reshape(-1)
    done = carry = 0
    fh.seek(pos - _PAD)
    while True:
        n = carry + fh.readinto(view[carry:])
        if not n:
            break
        cut = raw.rfind(b"\n", _PAD, _PAD + n) + 1
        parsed = _parse_block(buf, words, cut, cols) if cut else None
        if parsed is None or done + len(parsed[0]) > flat.size:
            return None
        values, start, stop, refused = parsed
        if len(refused) and not _read_refused(raw, values, start, stop, refused):
            return None
        flat[done:done + len(values)] = values
        done += len(values)
        carry = _PAD + n - cut
        raw[_PAD:_PAD + carry] = raw[cut:_PAD + n]
    return out if done == flat.size else None


def _load_npy(fh, path: str) -> np.ndarray:
    """The array of the ``.npy`` file open in ``fh`` as (rows, columns)
    floats: ``np.load`` without pickles, so object arrays are refused, and
    a 1D array is one column.  Other dtypes and shapes are named errors."""
    data = np.load(fh, allow_pickle=False)
    if data.dtype.kind not in "iuf":
        raise KdebandError(f"{path!r}: a .npy sample must hold real numbers, not {data.dtype}")
    if data.ndim not in (1, 2):
        raise KdebandError(f"{path!r}: a .npy sample must be a 1D or 2D array, "
                           f"not one of shape {data.shape}")
    return np.ascontiguousarray(data[:, None] if data.ndim == 1 else data, dtype=float)


def _load_sample_file(path: str, dim: int, purpose: str):
    """The sample in the file at ``path``, of ``dim`` columns; ``purpose``
    says why in the error for any other count.  The file's array is the
    sample's, frozen in place (``_adopt``), so the sample is held once.

    A file that starts with numpy's magic ``\\x93NUMPY`` is read by
    ``_load_npy``.  Any other file is text, read as ``np.loadtxt(path,
    comments="#", ndmin=2)`` reads it, bit for bit: by ``_read_rows``
    where its layout allows, else by that call, which then gives every
    error message too.  A non-finite value is an error naming its data row,
    counted from 1 without the comment lines.

    ``_read_rows`` reads leading '#' lines, then lines of the first line's
    count of tokens, joined by one space, each ended by a newline.  A token
    is ``-?D*(.D*)?`` with at least one digit, then optionally
    ``[eE][+-]?D{1,3}``; its mantissa (after the sign) spans at most 24
    bytes and spells an integer M < 1.844e19, 19 significant digits.  The
    token is M * 10^E, E the exponent less the fraction digits.  Its
    mantissa is read from the 8-byte words that end at it (as many as the
    block's widest mantissa needs, up to three): every byte is checked as
    a digit or the one '.', which is dropped by moving the bytes left of
    it, and each word becomes an 8-digit number by Lemire's SWAR step
    ("Number parsing at a gigabyte per second", 2021).

    Where every token of a block has M < 2^53 and -22 <= E <= 0, M and
    10^-E are exact doubles and M / 10^-E is one correctly rounded
    division (Clinger's fast path).  Otherwise M * 10^E is rounded as
    follows, with u = 2^-53.  M = m + m'
    exactly, m = fl(M).  The table holds 10^E = p + p' + d with p, p'
    rounded from exact fractions, so |p'| <= u p and |d| <= u^2 p.  Dekker's
    TwoProduct (Veltkamp halves, numpy having no FMA) gives m p = a + b
    exactly; t = b + (m p' + m' p) takes two products and two sums,
    each off by at most 3 u^2 r, and the dropped m' p' and M d are each at
    most 2 u^2 r, r = fl(a + t).  So |M * 10^E - (a + t)| <= 11 u^2 r.
    Fast2Sum gives the residual e = a + t - r exactly.  Half the gap from r
    down to the next double is h >= u r / 2, so the error is below
    2^-48 h, and the token is accepted only when |e| < h (1 - 2^-40).  Then
    M * 10^E lies within h of r on both sides (the gap above r is never the
    smaller), strictly: r is M * 10^E rounded to nearest, with no tie, which
    is the double that Python's correctly rounded conversion, and so
    np.loadtxt, gives.  E stays in [-288, 288], so for 1 <= M < 2^64 every
    product lies in [2^-957, 2^1021]: none overflows, each is exact where
    Dekker needs it, and any underflow is far below 2^-48 h.  M = 0 gives
    a signed zero.

    Any other token (more digits, a tie or a near one, an E outside the
    table, '+1', 'inf', '1_0') is parsed by np.loadtxt on its own text;
    float() would accept '1_0', which np.loadtxt refuses.  A block with
    more than an eighth of its tokens so refused, or a failing one, goes
    to the whole-file call, as does any other layout: tabs, '\\r', blank
    lines, later comments, ragged rows, bytes outside ASCII or a last line
    with no newline.
    """
    try:
        with open(path, "rb") as fh:
            npy = fh.read(6) == b"\x93NUMPY"
            fh.seek(0)
            data = _load_npy(fh, path) if npy else _read_rows(fh)
        if data is None:
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
    if not np.isfinite(data).all():
        row = np.flatnonzero(~np.isfinite(data).all(axis=1))[0]
        value = float(data[row][~np.isfinite(data[row])][0])
        raise KdebandError(f"{path!r}: data row {row + 1} holds a non-finite value, {value!r}")
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
    p_exp.add_argument("--np", type=_list_of(_parse_count), default=None,
                       help="comma-separated point counts (default: study decades)")
    p_exp.add_argument("--seed", type=_list_of(_parse_seed), default=None,
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
