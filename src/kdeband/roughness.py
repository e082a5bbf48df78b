"""Noise-corrected curvature roughness of a tabulated density estimate.

Plug-in bandwidth selection needs the roughness of the unknown density's
curvature,

    R_d = integral (laplacian f)^2 d^dx    (R_1 = integral f''(x)^2 dx),

estimated from the data itself.  The raw estimate applies the
(2d+1)-point Laplacian stencil (the central second difference in 1D) to
the gridded density and integrates its square.  Squaring rectifies the
Poisson sampling noise in the tabulated values into a strictly positive
bias: with grid spacing equal to the bandwidth h, each node value has
variance of order f/(Np h^d w^d), neighbouring nodes are nearly
independent, and pushing the stencil variance through the integral gives
the closed-form bias

    S / (w^d h^(4+d) Np),   S = 2d(2d+1),

for a kernel of support width w.  S is the sum of the squared stencil
coefficients: 6 in 1D, 42 in 3D.  The corrected roughness subtracts this
term.  At small h the raw estimate is noise-dominated and the corrected
value can come out non-positive; that outcome is reported, not raised,
so the bandwidth selector can respond by backing off to a larger h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .estimator import Sample, build_grid, integrate_squared, laplacian
from .kernels import Kernel

__all__ = [
    "RoughnessResult",
    "corrected_roughness",
    "corrected_roughness_1d",
    "corrected_roughness_3d",
]


@dataclass(frozen=True)
class RoughnessResult:
    """Raw roughness, the noise-bias correction, and their difference.

    ``corrected == raw - correction`` always; a non-positive ``corrected``
    flags a noise-dominated estimate and is valid data for the caller.
    """

    raw: float
    correction: float
    corrected: float


def corrected_roughness(
    sample: Sample,
    kernel: Kernel,
    h: float,
    *,
    grid_cap: int | None = None,
    dim: int | None = None,
) -> RoughnessResult:
    """Estimate R_d = integral (laplacian f)^2 from the sample at bandwidth h.

    The sample is deposited on a grid with spacing exactly h (the
    correction constant is derived under that spacing), differentiated
    with the Laplacian stencil, and integrated by node sums.  The
    Poisson-noise bias 2d(2d+1)/(w^d h^(4+d) Np) is then subtracted.
    ``dim`` is as in :mod:`kdeband.estimator`.
    """
    grid = build_grid(sample, kernel, h, grid_cap=grid_cap, dim=dim)
    d = grid.dim
    raw = integrate_squared(laplacian(grid))
    correction = 2 * d * (2 * d + 1) / (kernel.width_w ** d * h ** (4 + d) * sample.size_Np)
    return RoughnessResult(raw=raw, correction=correction, corrected=raw - correction)


corrected_roughness_1d = partial(corrected_roughness, dim=1)
corrected_roughness_3d = partial(corrected_roughness, dim=3)
