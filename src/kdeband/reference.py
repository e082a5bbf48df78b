"""Closed-form reference laws: pdfs, curvature roughnesses, optimal bandwidths.

These are the analytic counterparts of the data-driven machinery.  Each
synthetic law in :mod:`kdeband.samplers` is one :class:`AnalyticDensity`
whose ``dim`` is fixed by the law: its exact pdf is :func:`eval_density`,
its exact curvature roughness

    R_d = integral (laplacian f)^2,  which is R_1 = integral f''(x)^2 dx,

is ``density.roughness()``, and the exact AMISE-optimal bandwidth that
selection is trying to recover is :func:`analytic_optimal_bandwidth`.
One table, ``_LAWS``, lists every law with its d, pdf and R_d.  Everything
here is closed form; no sampling and no grids.

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
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    _bounded_real,
    _float_array,
    _normal,
    _out_of_range,
    _positive_real,
)
from .kernels import Kernel, _as_rows, common_dim, eval_kernel, kernel_constants
from .samplers import (
    TRIMODAL_MEANS,
    TRIMODAL_SIGMAS,
    TRIMODAL_WEIGHTS,
    HernquistParams,
    _hernquist_mass_fraction,
)
from .selector import optimal_bandwidth

__all__ = [
    "AnalyticDensity",
    "gaussian_1d",
    "tsc_density_1d",
    "trimodal_1d",
    "hernquist_radial_pdf",
    "gaussian_3d",
    "eval_density",
    "analytic_optimal_bandwidth",
    "hernquist_profile",
    "profile_from_radial_pdf",
]


@dataclass(frozen=True)
class AnalyticDensity:
    """A reference law with closed-form pdf and curvature roughness R_d.

    ``identifier`` names one of the laws listed in ``_LAWS``, which also
    fixes the law's dimension ``dim``: ``"gaussian"``, ``"tsc_density"``,
    ``"trimodal"`` and ``"hernquist_radial_pdf"`` in 1D, ``"gaussian3"``
    in 3D.  The remaining fields only apply to the Hernquist law: ``rc``
    is the scale length and ``r_window`` an optional finite (r_min, r_max)
    truncation in absolute units; ``None`` means untruncated.
    """

    identifier: str
    rc: float = 1.0
    r_window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.identifier not in _LAWS:
            raise DomainError(f"unknown density {self.identifier!r}")
        object.__setattr__(self, "rc", _positive_real(self.rc, "rc"))
        if self.r_window is not None:
            window = _float_array(self.r_window, "r_window")
            if window.shape != (2,):
                raise DomainError(f"r_window must be a pair (r_min, r_max), not {window.shape}")
            lo, hi = window.tolist()
            lo = _bounded_real(lo, "r_window's r_min", 0.0, closed=True)
            hi = _bounded_real(hi, "r_window's r_max", lo)
            object.__setattr__(self, "r_window", (lo, hi))

    @property
    def dim(self) -> int:
        return _LAWS[self.identifier].dim

    def roughness(self) -> float:
        """Exact R_d = integral (laplacian f)^2, which is f''^2 in 1D.  A law
        (a Hernquist rc) whose R_d leaves the normal floats raises
        DomainError."""
        with _out_of_range("law scale", "the curvature roughness"):
            return _normal(_LAWS[self.identifier].roughness(self))


def gaussian_1d() -> AnalyticDensity:
    return AnalyticDensity("gaussian")


def tsc_density_1d() -> AnalyticDensity:
    return AnalyticDensity("tsc_density")


def trimodal_1d() -> AnalyticDensity:
    return AnalyticDensity("trimodal")


def hernquist_radial_pdf(
    rc: float = 1.0, r_window: tuple[float, float] | None = None
) -> AnalyticDensity:
    return AnalyticDensity("hernquist_radial_pdf", rc=rc, r_window=r_window)


def gaussian_3d() -> AnalyticDensity:
    return AnalyticDensity("gaussian3")


def eval_density(density: AnalyticDensity, x):
    """Evaluate the reference pdf.

    A 1D law is evaluated elementwise, a scalar giving a float.  A law in
    d > 1 dimensions is evaluated at the rows of an (M, d) array, one value
    per row for any M, or at a single d-vector, giving a float.  Radial
    laws are only defined for non-negative argument; negative input raises
    DomainError rather than silently returning 0.
    """
    law = _LAWS[density.identifier]
    x = _float_array(x, "x")
    if law.dim == 1:
        out = law.pdf(density, x)
        return out if out.ndim else float(out)
    out = law.pdf(density, _as_rows(x, law.dim, "points"))
    return float(out[0]) if x.shape == (law.dim,) else out


def _normal_pdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))


def _tsc_density_pdf(density, x):
    return np.asarray(eval_kernel(kernel_constants("tsc", 1), x))


def _trimodal_pdf(density, x):
    out = np.zeros_like(x)
    for wgt, mu, sig in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
        out = out + wgt * _normal_pdf(x, mu, sig)
    return out


def _gauss_quartic_derivative(delta: float, s2: float) -> float:
    """Fourth derivative of the centred normal pdf of variance s2."""
    g = np.exp(-0.5 * delta * delta / s2) / np.sqrt(2.0 * np.pi * s2)
    return g * (delta ** 4 - 6.0 * delta ** 2 * s2 + 3.0 * s2 * s2) / s2 ** 4


def _trimodal_roughness(density) -> float:
    total = 0.0
    for wi, mi, si in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
        for wj, mj, sj in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
            total += wi * wj * _gauss_quartic_derivative(mi - mj, si * si + sj * sj)
    return total


def _hernquist_window_norm(density: AnalyticDensity) -> float:
    """Probability mass of the untruncated law inside the window."""
    if density.r_window is None:
        return 1.0
    lo, hi = density.r_window
    return float(
        _hernquist_mass_fraction(np.float64(hi), density.rc)
        - _hernquist_mass_fraction(np.float64(lo), density.rc)
    )


def _hernquist_pdf(density, x):
    if np.any(x < 0.0):
        raise DomainError("radial density needs r >= 0")
    rc = density.rc
    out = 2.0 * rc * x / (x + rc) ** 3
    if density.r_window is not None:
        lo, hi = density.r_window
        inside = (x >= lo) & (x <= hi)
        out = np.where(inside, out / _hernquist_window_norm(density), 0.0)
    return out


def _hernquist_g(s: float) -> float:
    """Antiderivative of (s-2)^2 / s^10; see module docstring."""
    return -1.0 / (7.0 * s ** 7) + 1.0 / (2.0 * s ** 8) - 4.0 / (9.0 * s ** 9)


def _hernquist_roughness(density) -> float:
    # In units of rc, p''(r)^2 = 144 (r-1)^2/(1+r)^10 whose antiderivative
    # is 144 G(1+r); truncation rescales by 1/Z^2.
    rc = density.rc
    if density.r_window is None:
        lo_s, hi_s = 1.0, np.inf
    else:
        lo, hi = density.r_window
        lo_s, hi_s = 1.0 + lo / rc, 1.0 + hi / rc
    z = _hernquist_window_norm(density)
    hi_term = 0.0 if np.isinf(hi_s) else _hernquist_g(hi_s)
    return 144.0 * (hi_term - _hernquist_g(lo_s)) / (z * z * rc ** 5)


def _gaussian3_pdf(density, points):
    r2 = np.einsum("ij,ij->i", points, points)
    return np.exp(-0.5 * r2) / (2.0 * np.pi) ** 1.5


class _Law(NamedTuple):
    """A law's dimension, its pdf ``pdf(density, x)`` and its R_d
    ``roughness(density)``."""

    dim: int
    pdf: Callable
    roughness: Callable


_LAWS = {
    "gaussian": _Law(1, lambda density, x: _normal_pdf(x, 0.0, 1.0),
                     lambda density: 3.0 / (8.0 * np.sqrt(np.pi))),
    "tsc_density": _Law(1, _tsc_density_pdf, lambda density: 6.0),
    "trimodal": _Law(1, _trimodal_pdf, _trimodal_roughness),
    "hernquist_radial_pdf": _Law(1, _hernquist_pdf, _hernquist_roughness),
    "gaussian3": _Law(3, _gaussian3_pdf, lambda density: 15.0 / (32.0 * np.pi ** 1.5)),
}


def analytic_optimal_bandwidth(
    density: AnalyticDensity, kernel: Kernel, Np: int, dimension: int | None = None
) -> float:
    """Exact AMISE-optimal bandwidth for a reference law and kernel.

    ``density`` and ``kernel`` must share one dimension d, and must have
    dimension ``dimension`` where it is given; else DomainError.
    """
    common_dim(dimension, density=density.dim, kernel=kernel.dim)
    return optimal_bandwidth(density.roughness(), kernel, Np)


def hernquist_profile(r, params: HernquistParams):
    """Mass density rho(r) = MT r_c / (2 pi r (r + r_c)^3) of the sphere."""
    r = _float_array(r, "r")
    if np.any(r <= 0.0):
        raise DomainError("hernquist_profile needs r > 0")
    rc = params.scale_length_rc
    out = params.total_mass_MT * rc / (2.0 * np.pi * r * (r + rc) ** 3)
    return out if out.ndim else float(out)


def profile_from_radial_pdf(pdf_values, r, total_mass_MT: float):
    """Convert a radial pdf p(r) into a mass density rho(r) = MT p / (4 pi r^2)."""
    r = _float_array(r, "r")
    if np.any(r <= 0.0):
        raise DomainError("profile_from_radial_pdf needs r > 0")
    total_mass_MT = _positive_real(total_mass_MT, "total_mass_MT")
    out = total_mass_MT * _float_array(pdf_values, "pdf_values") / (4.0 * np.pi * r ** 2)
    return out if out.ndim else float(out)
