"""Exception types shared across the package.

Every error raised deliberately by kdeband derives from :class:`KdebandError`,
so callers (notably the command line driver) can distinguish usage and data
problems from genuine bugs.  ``_out_of_range`` turns floating-point over- and
underflow in a computation into one of them.

Each kind of argument is read by one rule here, which returns it as the
type the package computes with, or raises DomainError naming it:

* ``_bounded_real``: a real in an interval, (low, high) or [low, high)
  (``_positive_real`` is its case (0, inf), with an error of the caller's
  choice), returned as a float;
* ``_check_count``: a count, an integer >= 1, given as an int or an
  integral float (Python or numpy), returned as an int;
* ``_check_index``: an index, an int or numpy integer >= 0 and below an
  optional stop (a seed, an axis, a dimension), returned as an int;
* ``_float_array``: an array of reals, every one finite in its finite
  case, returned as a float array.

A value that is not a number (None, a list) fails each rule as a number
out of range does, and so does a bool: True is no count, index or real,
though Python counts it as the int 1.  Text and complex numbers fail them
too, though float() parses "0.3" and casts numpy's complex 0.5+1j to 0.5,
and ``_float_array`` refuses arrays of either (numpy dtype kinds U, S and
c).
"""

from contextlib import contextmanager

import numpy as np

__all__ = [
    "KdebandError",
    "NonPositiveBandwidth",
    "NonPositiveRoughness",
    "GridTooLarge",
    "GridTooSmall",
    "DegenerateSample",
    "BackoffExhausted",
    "DomainError",
]


class KdebandError(Exception):
    """Base class for all kdeband errors."""


class NonPositiveBandwidth(KdebandError):
    """A bandwidth (or grid spacing) that must be positive was <= 0."""


class NonPositiveRoughness(KdebandError):
    """A roughness value that must be positive was <= 0."""


class GridTooLarge(KdebandError):
    """The requested grid would exceed the configured node/cell cap."""


class GridTooSmall(KdebandError):
    """A grid is too short to support the finite-difference stencil."""


class DegenerateSample(KdebandError):
    """The sample cannot support bandwidth selection (too few points, or
    zero spread along some axis)."""


class BackoffExhausted(KdebandError):
    """Corrected roughness stayed non-positive after the maximum number of
    bandwidth backoffs."""


class DomainError(KdebandError):
    """An argument lies outside the mathematical domain of an operation."""


@contextmanager
def _out_of_range(subject: str, computation: str, error: type = DomainError):
    """Raise ``error`` (DomainError unless given) "<subject> is out of
    range" for any ArithmeticError in the block.

    numpy is made to raise FloatingPointError there on overflow, division
    by zero and invalid operations; Python float powers and division raise
    OverflowError and ZeroDivisionError on their own.  Python float
    products and quotients overflow to inf and underflow to 0 in silence,
    so a block passes such a result through ``_normal``.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        raise error(
            f"{subject} is out of range: {computation} over- or underflows in floating point"
        ) from exc


def _normal(x) -> float:
    """x as a float; FloatingPointError unless it is a normal finite float."""
    x = float(x)
    if not np.finfo(float).tiny <= abs(x) < np.inf:
        raise FloatingPointError(f"{x!r} is not a normal float")
    return x


# Python types that float() takes but that hold no real: a bool, text, and a
# complex number, whose imaginary part it drops.
_NOT_REAL = (bool, str, bytes, bytearray, complex)


def _positive_real(value, name: str, error: type = DomainError) -> float:
    """``value`` as a float; ``error`` (DomainError unless given) naming
    ``name`` unless it is a positive finite real."""
    return _bounded_real(value, name, 0.0, error=error)


def _bounded_real(
    value, name: str, low: float, high: float = np.inf, closed: bool = False,
    error: type = DomainError,
) -> float:
    """``value`` as a float; ``error`` (DomainError unless given) naming
    ``name`` unless it is a real with low < value < high, or
    low <= value < high where ``closed``."""
    kind = getattr(getattr(value, "dtype", None), "kind", "O")  # numpy's; "O" for the rest
    try:
        x = np.nan if isinstance(value, _NOT_REAL) or kind in "bUSc" else float(value)
    except (TypeError, ValueError):  # not a number: None, a list, ...
        x = np.nan
    if not ((low <= x) if closed else (low < x)) or not x < high:
        interval = f"{'[' if closed else '('}{low:g}, {high:g})"
        raise error(f"{name} must be a real in {interval}, got {value!r}")
    return x


def _check_count(value, name: str = "Np") -> int:
    """A count as an int; DomainError naming it unless it is an integer >= 1."""
    number = isinstance(value, (int, float, np.integer, np.floating))
    count = int(value) if number and np.isfinite(value) and not isinstance(value, bool) else 0
    if count < 1 or count != value:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return count


def _check_index(value, name: str, stop: float = np.inf) -> int:
    """An index as an int; DomainError naming it unless it is an int or
    numpy integer with 0 <= value < stop."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 0 <= value < stop):
        below = "" if stop == np.inf else f" below {stop}"
        raise DomainError(f"{name} must be a non-negative integer{below}, got {value!r}")
    return int(value)


def _float_array(values, name: str, finite: bool = False) -> np.ndarray:
    """``values`` as a float array (np.asarray); DomainError naming
    ``name`` where they are text or complex numbers, which numpy would
    parse or cast dropping the imaginary part, where numpy cannot convert
    them (a ragged list), or, if ``finite``, where one is NaN or
    infinite."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "USc":  # text or complex: parsed, or a part dropped
            raise TypeError(f"an array of dtype {array.dtype}")
        array = array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an array of real numbers") from exc
    if finite and not np.all(np.isfinite(array)):
        raise DomainError(f"{name} must all be finite")
    return array
