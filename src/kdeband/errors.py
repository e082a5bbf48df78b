"""Exception types shared across the package.

Every error raised deliberately by kdeband derives from :class:`KdebandError`,
so callers (notably the command line driver) can distinguish usage and data
problems from genuine bugs.  ``_out_of_range`` turns floating-point over- and
underflow in a computation into one of them.  ``_bounded_real`` states the
one rule for an argument that must be a real in an interval
(``_positive_real`` is its case (0, inf)), ``_check_count`` the one for a
count, and ``_float_array`` the one for an array of reals: a value that
is not a number fails each rule as a number out of range does.
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
    try:
        x = float(value)
    except (TypeError, ValueError):  # not a number: a string, None, ...
        x = np.nan
    if not ((low <= x) if closed else (low < x)) or not x < high:
        interval = f"{'[' if closed else '('}{low:g}, {high:g})"
        raise error(f"{name} must be a real in {interval}, got {value!r}")
    return x


def _check_count(value, name: str = "Np") -> int:
    """A count as an int; DomainError naming it unless it is an integer >= 1."""
    number = isinstance(value, (int, float, np.integer, np.floating))
    count = int(value) if number and np.isfinite(value) else 0
    if count < 1 or count != value:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return count


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array (np.asarray); DomainError naming
    ``name`` where numpy cannot convert them (a string that is not a
    number, a ragged list)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an array of real numbers") from exc
