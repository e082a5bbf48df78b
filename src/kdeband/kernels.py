"""Particle-assignment kernels and their exact analytic constants.

Three classic assignment kernels are provided in one and three dimensions:

* ``ngp`` -- nearest grid point, a top-hat of full width 1,
* ``cic`` -- cloud in cell, a triangle of full width 2,
* ``tsc`` -- triangular shaped cloud, a piecewise parabola of full width 3.

Every kernel is radial, ``K(x) = normalization * W(|x|)`` on R^d, with
the piecewise shape W of its family; in 1D the normalization is 1 and K
is W itself, and ``eval_kernel`` evaluates K in any d.  Each kernel
carries the closed-form constants that bandwidth selection needs: the
integer support width ``w`` (in units of the bandwidth), the roughness
``R(K) = integral K^2`` and the per-axis second moment
``mu2 = integral x1^2 K(x) d^dx``.  The 3D variants (families ``ngp3``,
``cic3``, ``tsc3``) are normalised to integrate to one over R^3.

All constants are exact rationals (or rational multiples of 1/pi) and are
spelled out as such rather than floating literals wherever possible.

Each shape W is one table of closed branches (top, evaluate, factor):
``evaluate`` overwrites an array of radii with its branch's values, in
place, and ``factor`` is the branch's exact power-of-two constant (1/2 on
TSC's outer branch, else 1).  Callers that own their radii evaluate in
them and apply a factor where it costs least: times the normalization,
as one multiply (``_profile_in_place``), or times a sum of a branch's
values (the 1D kernel sums behind ``estimate_density``).  Both keep the
bits of multiplying each value in turn: a power of two scales a normal
float exactly, and no branch value is subnormal.  Where radii span more
than one branch, each lower branch takes its radii by index and the last
is computed in place on all of them (``_select_per_radius``), with the
bits of a selection over every branch computed on every radius.
``radial_profile`` is the same evaluation on a copy, which leaves the
caller's radii as they are.  In d > 1, ``_as_rows`` reads one d-vector
or an (M, d) array of points, for this module, the direct evaluation and
the reference laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _float_array

__all__ = [
    "Kernel",
    "kernel_constants",
    "eval_kernel",
    "KERNEL_FAMILIES",
]

KERNEL_FAMILIES = ("ngp", "cic", "tsc")


@dataclass(frozen=True)
class Kernel:
    """Descriptor of a radial kernel K(x) = normalization * W(|x|) on R^d.

    Attributes
    ----------
    family : str
        Kernel token: ``"ngp"``, ``"cic"``, ``"tsc"`` in 1D, the same
        with the suffix ``3`` in 3D.
    dim : int
        The dimension d.
    width_w : int
        Support width in bandwidth units: K(x) = 0 for |x| > w/2.
    normalization : float
        Makes K integrate to 1 over R^d (1 in 1D; 6/pi, 3/pi, 2/pi in 3D).
    roughness_RK : float
        R(K) = integral of K(x)^2 d^dx.
    second_moment_mu2 : float
        Per-axis second moment: integral of x1^2 K(x) d^dx.
    """

    family: str
    dim: int
    width_w: int
    normalization: float
    roughness_RK: float
    second_moment_mu2: float


def common_dim(expected: int | None, **dims: int) -> int:
    """The one dimension shared by the named inputs and, unless None, by
    ``expected``: the d a reference law was asked for, or the d of one of
    the package's private dimension-named names.

    Raises DomainError naming every dimension when they differ.
    """
    if len(set(dims.values()) | {expected} - {None}) > 1:
        listed = ", ".join(f"{name} is {d}-D" for name, d in dims.items())
        lead = "" if expected is None else f"expected {expected}-D, "
        raise DomainError(f"dimension mismatch: {lead}{listed}")
    return next(iter(dims.values()))


# Exact constants.  1D: R(K) and mu2 are elementary integrals of the
# piecewise shapes.  3D: normalization = 1 / (4 pi integral r^2 W(r) dr),
# R(K) = 4 pi normalization^2 integral r^2 W(r)^2 dr, and mu2 is one third
# of the radial second moment 4 pi normalization integral r^4 W(r) dr.
# Fields: family, d, w, normalization, R(K), mu2.
_CONSTANTS = {
    (k.family, k.dim): k
    for k in (
        Kernel("ngp", 1, 1, 1.0, 1.0, 1.0 / 12.0),
        Kernel("cic", 1, 2, 1.0, 2.0 / 3.0, 1.0 / 6.0),
        Kernel("tsc", 1, 3, 1.0, 11.0 / 20.0, 1.0 / 4.0),
        Kernel("ngp3", 3, 1, 6.0 / np.pi, 6.0 / np.pi, 1.0 / 20.0),
        Kernel("cic3", 3, 2, 3.0 / np.pi, 6.0 / (5.0 * np.pi), 2.0 / 15.0),
        Kernel("tsc3", 3, 3, 2.0 / np.pi, 43.0 / (70.0 * np.pi), 13.0 / 60.0),
    )
}


def kernel_constants(family: str, dim: int) -> Kernel:
    """Return the kernel descriptor for a (case-insensitive) family token
    in d = ``dim``.  A 3D family may be spelled 'tsc' or 'tsc3'."""
    token = str(family).lower()
    kernel = _CONSTANTS.get((token, dim)) or _CONSTANTS.get((f"{token}{dim}", dim))
    if kernel is None:
        raise DomainError(
            f"unknown kernel family {family!r} for d = {dim!r}; "
            f"expected one of {KERNEL_FAMILIES}"
        )
    return kernel


def _ones(r):
    r.fill(1.0)
    return r


# The piecewise shape W of each family as closed branches
# (top, evaluate, factor), W = factor * evaluate on (previous top, top],
# in ascending order of top; the first branch starts at r = 0 and W is
# zero beyond the last top.
_BRANCHES = {
    "ngp": ((0.5, _ones, 1.0),),
    "cic": ((1.0, lambda r: np.subtract(1.0, r, out=r), 1.0),),
    "tsc": (
        (0.5, lambda r: np.subtract(0.75, np.multiply(r, r, out=r), out=r), 1.0),
        (1.5, lambda r: np.square(np.subtract(1.5, r, out=r), out=r), 0.5),
    ),
}


# Per family, what the profile reads on every call: the lower end of
# each branch's interval, (-inf, then each previous top), and whether W is
# +0.0 at the last top.
_FLOORS = {f: (-np.inf,) + tuple(top for top, _, _ in b[:-1]) for f, b in _BRANCHES.items()}
_ZERO_AT_TOP = {f: bool(b[-1][1](np.array(b[-1][0])) == 0.0) for f, b in _BRANCHES.items()}


def _family(kernel: Kernel) -> str:
    """The key of the kernel's shape in ``_BRANCHES``."""
    family = kernel.family.removesuffix("3")
    if family not in _BRANCHES:
        raise DomainError(
            f"unknown kernel family {kernel.family!r}; expected one of {KERNEL_FAMILIES}"
        )
    return family


def profile_branches(kernel: Kernel) -> tuple:
    """The closed branches ``(top, evaluate, factor)`` of the kernel's
    shape W (without its normalization), in ascending order of top: W is
    factor * evaluate on (previous top, top], and evaluate overwrites the
    array of radii it is given with its values and returns it."""
    return _BRANCHES[_family(kernel)]


def radial_profile(
    kernel: Kernel, r: np.ndarray, bounds: tuple[float, float] = (-np.inf, np.inf)
) -> np.ndarray:
    """normalization * W(r) at radii r >= 0 (in bandwidth units), unchecked.

    Branch boundaries of W are closed and the first matching branch wins,
    so e.g. the NGP kernel is at full height at r = 1/2 exactly.  ``r`` is
    left as it is: the values are computed in a copy of it (see
    _profile_in_place, which a caller that owns its radii uses instead).

    ``bounds`` is a pair (lo, hi) with lo <= r <= hi for every r; the
    default (-inf, inf) bounds nothing.  If one branch's interval
    (previous top, top] holds both, only that branch is computed, and
    beyond the last top only zeros.  If lo is inside the last branch and
    hi beyond its top, and W is zero at that top (CIC, TSC; not NGP), the
    last branch is computed on min(r, top), which gives W(top) = +0.0
    beyond the top.  Otherwise the branch of each
    radius is picked per radius (_select_per_radius), and where hi is at or
    below the last top no radius is tested against it.  Each value is bit
    for bit the one the per-radius pick gives under the default bounds; a
    scalar r with the bounds (r, r) thus takes one branch and no pick.
    """
    return _profile_in_place(kernel, np.array(r, dtype=float), bounds)


def _profile_in_place(kernel: Kernel, r: np.ndarray, bounds=(-np.inf, np.inf)) -> np.ndarray:
    """radial_profile(kernel, r, bounds), computed in the caller's array
    of radii r, which it overwrites with the values and returns.

    A branch's factor and the kernel's normalization n are applied as one
    multiply by c = factor * n.  Both factors are exact powers of two and
    n is a normal float, so c is exact, and fl(c * p) rounds the same real
    number as fl(n * fl(factor * p)), the value of multiplying them in one
    at a time: factor * p is exact too, since no branch's value p is
    subnormal (a TSC outer value (3/2 - r)^2 is 0 or at least 2^-106, as
    3/2 - r is a multiple of 2^-53).  The zero beyond the last top is
    +0.0, as n * 0.0 is.
    """
    family = _family(kernel)
    branches = _BRANCHES[family]
    scale = kernel.normalization
    lo, hi = bounds
    floors = _FLOORS[family]
    for (top, evaluate, factor), previous in zip(branches, floors):
        if previous < lo and hi <= top:
            return _scaled(evaluate(r), factor * scale)
    top, evaluate, factor = branches[-1]
    if lo > top:
        r.fill(0.0)
        return r
    if lo > floors[-1] and _ZERO_AT_TOP[family]:
        # W(top) is +0.0, the value beyond the top.
        return _scaled(evaluate(np.minimum(r, top, out=r)), factor * scale)
    return _select_per_radius(branches, scale, r, not hi <= top)


def _select_per_radius(branches, scale: float, r: np.ndarray, past_top: bool) -> np.ndarray:
    """The scaled shape at each radius of r, each by the first closed
    branch that holds it and +0.0 beyond the last top, in r itself.

    Each branch but the last takes the radii at or below its top by index,
    and is computed on those alone; the last is computed in r on every
    radius.  Then +0.0 is written where r is not at or below the last top
    (beyond it, or NaN), unless ``past_top`` is false (no radius lies
    there), and each lower branch's values at its indices, the lowest
    branch last, so that the first branch holding a radius gives its
    value.  Indices are flat (take, put), so a 0-d r works as a 1-d one.
    """
    *lower, (top, evaluate, factor) = branches
    picks = []
    for branch_top, branch_evaluate, branch_factor in lower:
        at = np.flatnonzero(r <= branch_top)
        picks.append((at, _scaled(branch_evaluate(r.take(at)), branch_factor * scale)))
    beyond = np.flatnonzero(~(r <= top)) if past_top else None
    _scaled(evaluate(r), factor * scale)
    if beyond is not None:
        r.put(beyond, 0.0)
    for at, values in reversed(picks):
        r.put(at, values)
    return r


def _scaled(values: np.ndarray, c: float) -> np.ndarray:
    if c != 1.0:
        values *= c
    return values


def _as_rows(x: np.ndarray, d: int, name: str) -> np.ndarray:
    """The points of a float array x in d > 1 dimensions as an (M, d)
    array of rows: a single d-vector is taken as one row.  Any other shape
    raises DomainError naming ``name``."""
    rows = x[None, :] if x.shape == (d,) else x
    if rows.ndim != 2 or rows.shape[1] != d:
        raise DomainError(f"{name} must have shape (M, {d}) or ({d},)")
    return rows


def eval_kernel(kernel: Kernel, x):
    """K(x) = normalization * W(r) at dimensionless offsets x = (y - x_i) / h.

    In 1D, x has any shape and r = |x| elementwise.  In d > 1, x is one
    d-vector (a float results) or an (M, d) array (M values), and r is the
    root of each row's sum of squares; a single vector is taken as a
    one-row array (``_as_rows``), so it has its row's bits.  Other shapes
    raise DomainError.  Nothing warns: a sum of squares that overflows is
    r = inf, and each r past the last top is clamped to the next float,
    where W is still zero, so the last branch, which is computed on every
    radius, sees no huge one.  Every value has the bits of
    radial_profile(kernel, r).
    """
    x = _float_array(x, "x")
    d = kernel.dim
    if d == 1:
        r = np.abs(x, out=np.empty(x.shape))  # an array even where x is 0-d
    else:
        rows = _as_rows(x, d, "x")
        r = np.einsum("ij,ij->i", rows, rows)  # inf where a sum overflows, without a warning
        r = np.sqrt(r, out=r).reshape(x.shape[:-1])
    top = profile_branches(kernel)[-1][0]
    np.minimum(r, np.nextafter(top, np.inf), out=r)
    out = _profile_in_place(kernel, r)
    return out if out.ndim else float(out)
