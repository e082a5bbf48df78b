"""Closed-form reference densities, roughnesses, and optimal bandwidths.

These are the analytic counterparts of the data-driven machinery: for each
synthetic law in :mod:`kdeband.samplers` this module provides the exact
pdf, the exact curvature roughness

    R_1 = integral f''(x)^2 dx,

and hence the exact AMISE-optimal bandwidth that selection is trying to
recover.  Everything here is closed form; no sampling and no grids.

Closed forms used:

* standard normal: R_1 = 3 / (8 sqrt(pi)),
* TSC shape as a pdf: f'' is piecewise constant (-2 on the core, +1 on
  the wings), so R_1 = 4 * 1 + 1 * 2 = 6,
* normal mixture: R_1 = sum_ij w_i w_j g''''_{s_ij}(mu_i - mu_j) with
  s_ij^2 = sigma_i^2 + sigma_j^2, where g_s is the centred normal pdf
  of variance s^2 (integrate f'' f'' by parts twice),
* Hernquist radial pdf p(r) = 2 r_c r / (r + r_c)^3: with s = 1 + r/r_c,
  the antiderivative of p''^2 is 144 G(s) / r_c^5 up to truncation
  normalisation, G(s) = -1/(7 s^7) + 1/(2 s^8) - 4/(9 s^9); the
  untruncated total is (88/7) / r_c^5,
* standard normal in 3D: R_3 = integral (laplacian f)^2 = 15 / (32 pi^(3/2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .kernels import Kernel, common_dim, eval_kernel_1d, kernel_constants
from .samplers import (
    TRIMODAL_MEANS,
    TRIMODAL_SIGMAS,
    TRIMODAL_WEIGHTS,
    HernquistParams,
)
from .selector import optimal_bandwidth

__all__ = [
    "AnalyticDensity1D",
    "AnalyticDensity3D",
    "gaussian_1d",
    "tsc_density_1d",
    "trimodal_1d",
    "hernquist_radial_pdf",
    "gaussian_3d",
    "eval_density",
    "eval_density_3d",
    "analytic_roughness_1d",
    "analytic_roughness_3d_gaussian",
    "analytic_optimal_bandwidth",
    "hernquist_profile",
    "profile_from_radial_pdf",
]


@dataclass(frozen=True)
class AnalyticDensity1D:
    """A 1D reference law with closed-form pdf and curvature roughness.

    ``identifier`` is one of ``"gaussian"``, ``"tsc_density"``,
    ``"trimodal"``, ``"hernquist_radial_pdf"``.  The remaining fields
    only apply to the Hernquist law: ``rc`` is the scale length and
    ``r_window`` an optional (r_min, r_max) truncation in absolute
    units; ``None`` means untruncated.
    """

    identifier: str
    rc: float = 1.0
    r_window: tuple[float, float] | None = None
    dim: ClassVar[int] = 1

    def __post_init__(self):
        known = ("gaussian", "tsc_density", "trimodal", "hernquist_radial_pdf")
        if self.identifier not in known:
            raise DomainError(f"unknown density {self.identifier!r}")
        if not self.rc > 0.0:
            raise DomainError("rc must be positive")
        if self.r_window is not None:
            lo, hi = self.r_window
            if not (0.0 <= lo < hi):
                raise DomainError("r_window must satisfy 0 <= r_min < r_max")
            object.__setattr__(self, "r_window", (float(lo), float(hi)))

    def roughness(self) -> float:
        """Exact R_1; see :func:`analytic_roughness_1d`."""
        return analytic_roughness_1d(self)


@dataclass(frozen=True)
class AnalyticDensity3D:
    """A 3D reference law; only the isotropic standard normal is needed."""

    identifier: str
    dim: ClassVar[int] = 3

    def __post_init__(self):
        if self.identifier != "gaussian3":
            raise DomainError(f"unknown 3D density {self.identifier!r}")

    def roughness(self) -> float:
        """Exact R_3; see :func:`analytic_roughness_3d_gaussian`."""
        return analytic_roughness_3d_gaussian()


def gaussian_1d() -> AnalyticDensity1D:
    return AnalyticDensity1D("gaussian")


def tsc_density_1d() -> AnalyticDensity1D:
    return AnalyticDensity1D("tsc_density")


def trimodal_1d() -> AnalyticDensity1D:
    return AnalyticDensity1D("trimodal")


def hernquist_radial_pdf(
    rc: float = 1.0, r_window: tuple[float, float] | None = None
) -> AnalyticDensity1D:
    return AnalyticDensity1D("hernquist_radial_pdf", rc=rc, r_window=r_window)


def gaussian_3d() -> AnalyticDensity3D:
    return AnalyticDensity3D("gaussian3")


def _normal_pdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))


def _hernquist_mass_fraction(r: np.ndarray, rc: float) -> np.ndarray:
    return (r / (r + rc)) ** 2


def _hernquist_window_norm(density: AnalyticDensity1D) -> float:
    """Probability mass of the untruncated law inside the window."""
    if density.r_window is None:
        return 1.0
    lo, hi = density.r_window
    return float(
        _hernquist_mass_fraction(np.float64(hi), density.rc)
        - _hernquist_mass_fraction(np.float64(lo), density.rc)
    )


def eval_density(density: AnalyticDensity1D, x):
    """Evaluate the reference pdf elementwise.

    Radial laws are only defined for non-negative argument; negative
    input raises DomainError rather than silently returning 0.
    """
    x = np.asarray(x, dtype=float)
    ident = density.identifier
    if ident == "gaussian":
        out = _normal_pdf(x, 0.0, 1.0)
    elif ident == "tsc_density":
        out = np.asarray(eval_kernel_1d(kernel_constants("tsc", 1), x))
    elif ident == "trimodal":
        out = np.zeros_like(x)
        for wgt, mu, sig in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
            out = out + wgt * _normal_pdf(x, mu, sig)
    else:  # hernquist_radial_pdf
        if np.any(x < 0.0):
            raise DomainError("radial density needs r >= 0")
        rc = density.rc
        out = 2.0 * rc * x / (x + rc) ** 3
        if density.r_window is not None:
            lo, hi = density.r_window
            inside = (x >= lo) & (x <= hi)
            out = np.where(inside, out / _hernquist_window_norm(density), 0.0)
    return out if out.ndim else float(out)


def eval_density_3d(density: AnalyticDensity3D, points):
    """Evaluate the 3D reference pdf at points of shape (M, 3) or (3,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.shape == (3,):
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DomainError("points must have shape (M, 3)")
    r2 = np.einsum("ij,ij->i", pts, pts)
    out = np.exp(-0.5 * r2) / (2.0 * np.pi) ** 1.5
    return out if out.size > 1 else float(out[0])


def _gauss_quartic_derivative(delta: float, s2: float) -> float:
    """Fourth derivative of the centred normal pdf of variance s2."""
    g = np.exp(-0.5 * delta * delta / s2) / np.sqrt(2.0 * np.pi * s2)
    return g * (delta ** 4 - 6.0 * delta ** 2 * s2 + 3.0 * s2 * s2) / s2 ** 4


def _hernquist_g(s: float) -> float:
    """Antiderivative of (s-2)^2 / s^10; see module docstring."""
    return -1.0 / (7.0 * s ** 7) + 1.0 / (2.0 * s ** 8) - 4.0 / (9.0 * s ** 9)


def analytic_roughness_1d(density: AnalyticDensity1D) -> float:
    """Exact R_1 = integral f''(x)^2 dx of a 1D reference law."""
    ident = density.identifier
    if ident == "gaussian":
        return 3.0 / (8.0 * np.sqrt(np.pi))
    if ident == "tsc_density":
        return 6.0
    if ident == "trimodal":
        total = 0.0
        for wi, mi, si in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
            for wj, mj, sj in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
                total += wi * wj * _gauss_quartic_derivative(mi - mj, si * si + sj * sj)
        return total
    # Hernquist radial pdf.  In units of rc, p''(r)^2 = 144 (r-1)^2/(1+r)^10
    # whose antiderivative is 144 G(1+r); truncation rescales by 1/Z^2.
    rc = density.rc
    if density.r_window is None:
        lo_s, hi_s = 1.0, np.inf
        z = 1.0
    else:
        lo, hi = density.r_window
        lo_s, hi_s = 1.0 + lo / rc, 1.0 + hi / rc
        z = _hernquist_window_norm(density)
    hi_term = 0.0 if np.isinf(hi_s) else _hernquist_g(hi_s)
    return 144.0 * (hi_term - _hernquist_g(lo_s)) / (z * z * rc ** 5)


def analytic_roughness_3d_gaussian() -> float:
    """Exact R_3 = integral (laplacian f)^2 for the 3D standard normal."""
    return 15.0 / (32.0 * np.pi ** 1.5)


def analytic_optimal_bandwidth(density, kernel: Kernel, Np: int, dimension: int) -> float:
    """Exact AMISE-optimal bandwidth for a reference law and kernel.

    ``density`` and ``kernel`` must both have dimension ``dimension``:
    AnalyticDensity1D with a 1D kernel, or AnalyticDensity3D with a 3D one.
    """
    common_dim(dimension, density=density.dim, kernel=kernel.dim)
    return optimal_bandwidth(density.roughness(), kernel, Np)


def hernquist_profile(r, params: HernquistParams):
    """Mass density rho(r) = MT r_c / (2 pi r (r + r_c)^3) of the sphere."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("hernquist_profile needs r > 0")
    rc = params.scale_length_rc
    out = params.total_mass_MT * rc / (2.0 * np.pi * r * (r + rc) ** 3)
    return out if out.ndim else float(out)


def profile_from_radial_pdf(pdf_values, r, total_mass_MT: float):
    """Convert a radial pdf p(r) into a mass density rho(r) = MT p / (4 pi r^2)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("profile_from_radial_pdf needs r > 0")
    if not total_mass_MT > 0.0:
        raise DomainError("total_mass_MT must be positive")
    out = total_mass_MT * np.asarray(pdf_values, dtype=float) / (4.0 * np.pi * r ** 2)
    return out if out.ndim else float(out)
