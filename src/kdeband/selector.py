"""Data-driven optimal bandwidth selection by iterated plug-in.

For a kernel K on R^d with roughness R(K) and per-axis second moment
mu2, the asymptotic mean integrated squared error of the density
estimate at bandwidth h is

    AMISE(h) = R(K) / (h^d Np) + h^4 * R_d(f) * (mu2 / 2)^2,

where R_d(f) is the curvature roughness of the true density (integral of
(laplacian f)^2, which is f''^2 in 1D).  Minimising over h gives the
closed-form optimum

    h_opt = [ d R(K) / (R_d mu2^2) ]^(1/(4+d)) * Np^(-1/(4+d)).

R_d(f) is unknown, so it is estimated from the sample itself with
:mod:`kdeband.roughness` and the two equations are iterated to a fixed
point: measure the corrected roughness at the current h, plug it into the
h_opt formula, repeat until the relative change in h falls below the
tolerance.  If the corrected roughness comes back non-positive (noise
dominated), the bandwidth is multiplied by a backoff factor and the
iteration continues from there.

A converged run returns the bandwidth of its last roughness measurement,
not that measurement's plug-in image, at which nothing was measured.
Re-measuring there reproduces the last record, so the fixed-point
residual at the returned bandwidth is within the tolerance by
construction.  A run that hits the update cap returns its last iterate.

The full history is returned as a :class:`BandwidthTrace` so callers can
inspect convergence behaviour; nothing about the procedure requires
knowledge of the true density.  Both functions take d from their
inputs: :func:`optimal_bandwidth` from the kernel, and
:func:`select_bandwidth` from the sample and the kernel, which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BackoffExhausted,
    DegenerateSample,
    NonPositiveBandwidth,
    NonPositiveRoughness,
    _bounded_real,
    _check_count,
    _normal,
    _out_of_range,
    _positive_real,
)
from .estimator import Sample
from .kernels import Kernel, common_dim
from .roughness import corrected_roughness

__all__ = [
    "SelectorConfig",
    "IterationRecord",
    "BandwidthTrace",
    "optimal_bandwidth",
    "amise",
    "select_bandwidth",
]


@dataclass(frozen=True)
class SelectorConfig:
    """Tunables of the fixed-point iteration.

    Attributes
    ----------
    rel_tolerance : float
        Stop once |h_new - h_old| / h_old drops to this level.
    max_iterations : int
        Cap on bandwidth updates (backoffs are counted separately); an
        integer >= 1, stored as an int.
    initial_scale_c0 : float
        The starting bandwidth is c0 * std * Np^(-1/(4+d)).
    backoff_factor : float
        Multiplier applied to h when corrected roughness is non-positive.
    max_backoffs : int
        Total backoffs allowed before giving up; an integer >= 1, stored
        as an int.
    """

    rel_tolerance: float = 1e-3
    max_iterations: int = 100
    initial_scale_c0: float = 2.0
    backoff_factor: float = 2.0
    max_backoffs: int = 60

    def __post_init__(self):
        object.__setattr__(
            self, "rel_tolerance", _bounded_real(self.rel_tolerance, "rel_tolerance", 0.0, 1.0))
        for name in ("max_iterations", "max_backoffs"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))
        object.__setattr__(
            self, "initial_scale_c0", _positive_real(self.initial_scale_c0, "initial_scale_c0"))
        object.__setattr__(
            self, "backoff_factor", _bounded_real(self.backoff_factor, "backoff_factor", 1.0))


@dataclass(frozen=True)
class IterationRecord:
    """One step of the iteration.

    ``raw_roughness`` and ``corrected_roughness`` were measured at the
    step's input bandwidth; ``h`` is the bandwidth the step produced
    (the plug-in update, or the backed-off value when
    ``backoff_applied`` is set).
    """

    h: float
    raw_roughness: float
    corrected_roughness: float
    backoff_applied: bool


@dataclass(frozen=True)
class BandwidthTrace:
    """Complete history of a selection run.

    ``final_h`` is the selected bandwidth.  When ``converged`` is set it
    is the input bandwidth of the last record (``iterations[-2].h``, or
    the starting bandwidth for a one-record run): the corrected roughness
    was measured there, and the last record's ``h`` is its plug-in image,
    within the relative tolerance.  Otherwise it is the last record's
    ``h``.
    """

    iterations: tuple[IterationRecord, ...]
    converged: bool
    final_h: float


def optimal_bandwidth(roughness: float, kernel: Kernel, Np: int) -> float:
    """Closed-form AMISE-optimal bandwidth for a known curvature roughness
    R_d, in the kernel's dimension d.  A roughness so small or large that
    the bandwidth leaves the normal floats raises DomainError."""
    d = kernel.dim
    Np = _check_count(Np)
    roughness = _positive_real(roughness, "curvature roughness", NonPositiveRoughness)
    mu2 = kernel.second_moment_mu2
    p = 1.0 / (4 + d)
    with _out_of_range("roughness scale", "the optimal bandwidth"):
        return _normal((d * kernel.roughness_RK / (roughness * mu2 ** 2)) ** p * Np ** -p)


def amise(h: float, kernel: Kernel, roughness: float, Np: int) -> float:
    """Asymptotic MISE of the estimate at bandwidth h, in the kernel's d.

    AMISE(h) = R(K)/(h^d Np) + h^4 * R_d * (mu2/2)^2.

    Arguments that take the result out of the normal floats, or a power
    in it past overflow or to zero, raise DomainError.
    """
    d = kernel.dim
    Np = _check_count(Np)
    h = _positive_real(h, "bandwidth", NonPositiveBandwidth)
    roughness = _positive_real(roughness, "curvature roughness", NonPositiveRoughness)
    with _out_of_range("bandwidth or roughness scale", "the AMISE"):
        variance = kernel.roughness_RK / (h ** d * Np)
        bias = h ** 4 * roughness * (kernel.second_moment_mu2 / 2.0) ** 2
        return _normal(variance + bias)


def select_bandwidth(
    sample: Sample,
    kernel: Kernel,
    config: SelectorConfig | None = None,
    *,
    grid_cap: int | None = None,
) -> BandwidthTrace:
    """Select the bandwidth from the data alone.

    Starts from h0 = c0 * std_bar * Np^(-1/(4+d)), with std_bar the mean
    of the per-axis standard deviations, and iterates the corrected
    roughness measurement against the closed-form optimum until the
    bandwidth is stable to the configured relative tolerance.  On
    convergence ``final_h`` is the bandwidth of the last measurement;
    without it, the last iterate (see :class:`BandwidthTrace`).  A sample
    with fewer than 2 points or with zero spread along any axis raises
    DegenerateSample; one whose scale takes the selection out of
    floating-point range raises DomainError.
    """
    config = config or SelectorConfig()
    d = common_dim(None, sample=sample.dim, kernel=kernel.dim)
    Np = sample.size_Np
    if Np < 2:
        raise DegenerateSample("bandwidth selection needs at least 2 points")
    if np.any(sample.min == sample.max):
        raise DegenerateSample(
            "sample has zero spread along some axis; no finite bandwidth exists"
        )
    # Out-of-range scales over- or underflow somewhere in the start
    # bandwidth, the grid or the noise term.
    with _out_of_range("sample scale", "bandwidth selection"):
        h = _normal(config.initial_scale_c0 * sample.std * Np ** (-1.0 / (4 + d)))
        records: list[IterationRecord] = []
        n_updates = 0
        n_backoffs = 0
        converged = False
        while n_updates < config.max_iterations:
            res = corrected_roughness(sample, kernel, h, grid_cap=grid_cap)
            backoff = res.corrected <= 0.0
            if backoff:
                if n_backoffs >= config.max_backoffs:
                    raise BackoffExhausted(
                        f"corrected roughness stayed non-positive after "
                        f"{config.max_backoffs} backoffs (h reached {h:g})"
                    )
                h_new = h * config.backoff_factor
                n_backoffs += 1
            else:
                h_new = optimal_bandwidth(res.corrected, kernel, Np)
                n_updates += 1
            records.append(
                IterationRecord(
                    h=h_new,
                    raw_roughness=res.raw,
                    corrected_roughness=res.corrected,
                    backoff_applied=backoff,
                )
            )
            if not backoff and abs(h_new - h) / h <= config.rel_tolerance:
                # keep the bandwidth the roughness was measured at: h_new was
                # never measured, and re-measuring at h reproduces this record
                converged = True
                break
            h = h_new
    return BandwidthTrace(iterations=tuple(records), converged=converged, final_h=h)
