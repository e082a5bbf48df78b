"""Particle-assignment kernels and their exact analytic constants.

Three classic assignment kernels are provided in one and three dimensions:

* ``ngp`` -- nearest grid point, a top-hat of full width 1,
* ``cic`` -- cloud in cell, a triangle of full width 2,
* ``tsc`` -- triangular shaped cloud, a piecewise parabola of full width 3.

Every kernel is radial, ``K(x) = normalization * W(|x|)`` on R^d, with
the piecewise shape W of its family; in 1D the normalization is 1 and K
is W itself.  Each kernel carries the closed-form constants that
bandwidth selection needs: the integer support width ``w`` (in units of
the bandwidth), the roughness ``R(K) = integral K^2`` and the per-axis
second moment ``mu2 = integral x1^2 K(x) d^dx``.  The 3D variants
(families ``ngp3``, ``cic3``, ``tsc3``) are normalised to integrate to one
over R^3.

All constants are exact rationals (or rational multiples of 1/pi) and are
spelled out as such rather than floating literals wherever possible.

Each shape W is one table of closed branches (top, evaluate, factor):
``evaluate`` overwrites an array of radii with its branch's values, in
place, and ``factor`` is the branch's exact power-of-two constant (1/2 on
TSC's outer branch, else 1).  Callers that own their radii evaluate in
them and apply a factor where it costs least: times the normalization,
as one multiply (``_profile_in_place``), or times a sum of a branch's
values (``estimate_density_1d``).  Both keep the bits of multiplying each
value in turn: a power of two scales a normal float exactly, and no
branch value is subnormal.  ``radial_profile`` is the same evaluation on
a copy, which leaves the caller's radii as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError

__all__ = [
    "Kernel",
    "kernel_constants",
    "kernel_constants_1d",
    "kernel_constants_3d",
    "eval_kernel_1d",
    "eval_kernel_3d",
    "eval_kernel_3d_radial",
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
    ``expected``: the d a function serves only (``estimate_density_1d``,
    ``eval_kernel_1d``, ...), or the ``dim`` keyword of one of the four
    functions that the ``_1d``/``_3d`` names fix (``build_grid``,
    ``corrected_roughness``, ``optimal_bandwidth``, ``select_bandwidth``).

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


kernel_constants_1d = partial(kernel_constants, dim=1)
kernel_constants_3d = partial(kernel_constants, dim=3)


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
    kernel: Kernel, r: np.ndarray, bounds: tuple[float, float] | None = None
) -> np.ndarray:
    """normalization * W(r) at radii r >= 0 (in bandwidth units), unchecked.

    Branch boundaries of W are closed and the first matching branch wins,
    so e.g. the NGP kernel is at full height at r = 1/2 exactly.  ``r`` is
    left as it is: the values are computed in a copy of it (see
    _profile_in_place, which a caller that owns its radii uses instead).

    ``bounds``, when given, is a pair (lo, hi) with lo <= r <= hi for
    every r.  If one branch's interval (previous top, top] holds both, only
    that branch is computed, and beyond the last top only zeros.  If lo is
    inside the last branch and hi beyond its top, and W is zero at that top
    (CIC, TSC; not NGP), the last branch is computed on min(r, top), which
    gives W(top) = +0.0 beyond the top.  Each value is bit for bit the one
    the full selection over all branches gives; a scalar r with the bounds
    (r, r) thus takes one branch and no selection.
    """
    return _profile_in_place(kernel, np.array(r, dtype=float), bounds)


def _profile_in_place(kernel: Kernel, r: np.ndarray, bounds=None) -> np.ndarray:
    """radial_profile(kernel, r, bounds), computed in the caller's array
    of radii r, which it overwrites: the values are returned in r itself
    where one branch (or zeros) covers the bounds, else in a new array.

    A branch's factor and the kernel's normalization n are applied as one
    multiply by c = factor * n.  Both factors are exact powers of two and
    n is a normal float, so c is exact, and fl(c * p) rounds the same real
    number as fl(n * fl(factor * p)), the value of multiplying them in one
    at a time: factor * p is exact too, since no branch's value p is
    subnormal (a TSC outer value (3/2 - r)^2 is 0 or at least 2^-106, as
    3/2 - r is a multiple of 2^-53).  Where the branches are selected per
    radius, each is scaled before the selection; the selection's zero
    beyond the last top is +0.0, as n * 0.0 is.
    """
    family = _family(kernel)
    branches = _BRANCHES[family]
    scale = kernel.normalization
    if bounds is not None:
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
            # W(top) is +0.0, the selection's value beyond the top.
            return _scaled(evaluate(np.minimum(r, top, out=r)), factor * scale)
    conds = [r <= top for top, _, _ in branches]
    # Every branch but the last is computed in a copy; the last takes r.
    last = len(branches) - 1
    choices = [
        _scaled(evaluate(r if i == last else r.copy()), factor * scale)
        for i, (_, evaluate, factor) in enumerate(branches)
    ]
    return np.select(conds, choices, default=0.0)


def _scaled(values: np.ndarray, c: float) -> np.ndarray:
    if c != 1.0:
        values *= c
    return values


def eval_kernel_1d(kernel: Kernel, u):
    """Evaluate K(u) elementwise.

    Parameters
    ----------
    kernel : Kernel
        A 1D kernel.
    u : array_like
        Dimensionless offsets (x - x_i) / h.

    Returns
    -------
    ndarray or float
        Kernel values; zero outside |u| <= w/2.
    """
    common_dim(1, kernel=kernel.dim)
    u = np.asarray(u, dtype=float)
    out = radial_profile(kernel, np.abs(u))
    return out if out.ndim else float(out)


def eval_kernel_3d_radial(kernel: Kernel, r):
    """Evaluate the 3D radial kernel at radius r >= 0 (in bandwidth units)."""
    common_dim(3, kernel=kernel.dim)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("radial kernel argument must be non-negative")
    out = radial_profile(kernel, r)
    return out if out.ndim else float(out)


def eval_kernel_3d(kernel: Kernel, x):
    """Evaluate K3 at one 3-vector, or at each row of an (M, 3) array.

    K3(x) = normalization * W(|x|) with the piecewise shape of the
    kernel's 1D base family.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.shape == (3,):
        return eval_kernel_3d_radial(kernel, float(np.sqrt(np.dot(x, x))))
    if x.ndim != 2 or x.shape[1] != 3:
        raise DomainError("x must be a 3-vector or an (M, 3) array")
    return eval_kernel_3d_radial(kernel, np.sqrt(np.einsum("ij,ij->i", x, x)))
