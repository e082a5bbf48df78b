"""Exception types shared across the package.

Every error raised deliberately by kdeband derives from :class:`KdebandError`,
so callers (notably the command line driver) can distinguish usage and data
problems from genuine bugs.  ``_out_of_range`` turns floating-point over- and
underflow in a computation into one of them, and ``_positive_real`` states
the one rule for an argument that must be a positive finite real.
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
    try:
        x = float(value)
    except (TypeError, ValueError):  # not a number: a string, None, ...
        x = np.nan
    if not 0.0 < x < np.inf:
        raise error(f"{name} must be a positive finite real, got {value!r}")
    return x
