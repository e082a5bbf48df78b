"""Deterministic synthetic samples for the validation studies.

Every sampler takes a non-negative integer seed and builds its own
``numpy.random.default_rng(seed)``, so a (sampler, Np, seed) triple pins
the returned sample exactly.  The generator identity is exported as
``RNG_NAME`` and recorded in experiment reports, because reproducing the
byte-identical sample stream requires the same generator and numpy
version.

Available laws:

* standard normal in 1D and 3D,
* the triangular-shaped-cloud kernel itself used as a density (it is a
  valid pdf: non-negative with unit integral), drawn by rejection,
* a three-component normal mixture with well separated scales,
* radii of a truncated Hernquist sphere, drawn by inverting the enclosed
  mass fraction M(<r)/MT = (r/(r+r_c))^2.

The study table in :mod:`kdeband.reference` pairs each sampler with its
reference law under the study's name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _bounded_real, _check_count, _check_index, _positive_real
from .estimator import Sample, _adopt
from .kernels import eval_kernel, kernel_constants

__all__ = [
    "RNG_NAME",
    "HernquistParams",
    "TRIMODAL_MEANS",
    "TRIMODAL_SIGMAS",
    "TRIMODAL_WEIGHTS",
    "sample_gaussian_1d",
    "sample_tsc_density",
    "sample_trimodal",
    "sample_gaussian_3d",
    "sample_hernquist_radii",
]

RNG_NAME = f"numpy.random.Generator(PCG64), numpy=={np.__version__}"

# Three-component normal mixture: means, per-component sigmas, equal weights.
TRIMODAL_MEANS = (0.0, -4.0, 4.0)
TRIMODAL_SIGMAS = (1.0, 2.0, 0.5)
TRIMODAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class HernquistParams:
    """Parameters of the truncated Hernquist sphere.

    The mass density is rho(r) = (MT/(2 pi)) * (r_c/r) / (r + r_c)^3,
    sampled only between the two truncation radii (given in units of
    r_c).  MT is carried along for profile conversions; the radial pdf
    itself is MT-independent.  Every field must be finite.
    """

    total_mass_MT: float = 1.0
    scale_length_rc: float = 1.0
    truncation_min_r_over_rc: float = 0.05
    truncation_max_r_over_rc: float = 1000.0

    def __post_init__(self):
        for name in ("total_mass_MT", "scale_length_rc"):
            object.__setattr__(self, name, _positive_real(getattr(self, name), name))
        low = _bounded_real(self.truncation_min_r_over_rc, "truncation_min_r_over_rc", 0.0,
                            closed=True)
        high = _bounded_real(self.truncation_max_r_over_rc, "truncation_max_r_over_rc", low)
        object.__setattr__(self, "truncation_min_r_over_rc", low)
        object.__setattr__(self, "truncation_max_r_over_rc", high)

    @property
    def r_window(self) -> tuple[float, float]:
        """The truncation radii (r_min, r_max) in absolute units."""
        rc = self.scale_length_rc
        return (self.truncation_min_r_over_rc * rc, self.truncation_max_r_over_rc * rc)


def _hernquist_mass_fraction(r, rc):
    """Enclosed mass fraction M(<r)/MT of the untruncated sphere."""
    return (r / (r + rc)) ** 2


def _generator(seed: int) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` for a seed that is an index (an
    integer >= 0, not a bool); any other seed raises DomainError, where
    numpy would raise a bare ValueError or TypeError, or take True as 1."""
    return np.random.default_rng(_check_index(seed, "seed"))


def sample_gaussian_1d(Np: int, seed: int) -> Sample:
    """Np standard normal draws."""
    Np = _check_count(Np)
    rng = _generator(seed)
    return _adopt(Sample, points=rng.standard_normal(Np))


def sample_gaussian_3d(Np: int, seed: int) -> Sample:
    """Np isotropic standard normal draws in 3D."""
    Np = _check_count(Np)
    rng = _generator(seed)
    return _adopt(Sample, points=rng.standard_normal((Np, 3)))


def sample_tsc_density(Np: int, seed: int) -> Sample:
    """Draw from the TSC shape used as a pdf, by rejection.

    Proposal: y uniform on [-3/2, 3/2], height uniform on [0, 3/4]
    (the kernel's maximum), acceptance rate 4/9.  Chunk sizes depend
    only on the remaining deficit, so the draw is reproducible for a
    given seed.
    """
    Np = _check_count(Np)
    tsc = kernel_constants("tsc", 1)
    rng = _generator(seed)
    out = np.empty(Np, dtype=float)
    filled = 0
    while filled < Np:
        m = max(4096, int(np.ceil((Np - filled) * 9.0 / 4.0 * 1.05)))
        y = rng.uniform(-1.5, 1.5, m)
        u = rng.uniform(0.0, 0.75, m)
        acc = y[u <= eval_kernel(tsc, y)]
        take = min(Np - filled, acc.size)
        out[filled : filled + take] = acc[:take]
        filled += take
    return _adopt(Sample, points=out)


def sample_trimodal(Np: int, seed: int) -> Sample:
    """Draw from the equal-weight three-component normal mixture."""
    Np = _check_count(Np)
    rng = _generator(seed)
    labels = rng.integers(0, 3, Np)
    mus = np.asarray(TRIMODAL_MEANS)[labels]
    sigs = np.asarray(TRIMODAL_SIGMAS)[labels]
    return _adopt(Sample, points=mus + sigs * rng.standard_normal(Np))


def sample_hernquist_radii(Np: int, params: HernquistParams, seed: int) -> Sample:
    """Radii of a truncated Hernquist sphere by inverse transform.

    The enclosed mass fraction F(r) = (r/(r+r_c))^2 inverts in closed
    form: r = r_c sqrt(q) / (1 - sqrt(q)).  Drawing q uniformly between
    F(r_min) and F(r_max) yields radii from the truncated law exactly.
    """
    Np = _check_count(Np)
    rc = params.scale_length_rc
    f_lo, f_hi = (_hernquist_mass_fraction(r, rc) for r in params.r_window)
    rng = _generator(seed)
    q = rng.uniform(f_lo, f_hi, Np)
    s = np.sqrt(q)
    return _adopt(Sample, points=rc * s / (1.0 - s))
