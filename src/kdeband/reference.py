"""The validation studies: synthetic samplers, closed-form reference laws
and the study table.

Each study pairs a sampler, which draws a reproducible synthetic sample,
with the law the sample is drawn from, the analytic counterpart of the
data-driven machinery.  Every sampler takes a count Np whose Np d
float64 values fit in one numpy array (else DomainError) and a
non-negative integer seed, and builds its own
``numpy.random.default_rng(seed)``, so a (sampler, Np, seed) triple pins
the returned sample exactly.  The generator identity is
exported as ``RNG_NAME`` and recorded in experiment reports, because
reproducing the byte-identical sample stream requires the same generator
and numpy version.

The laws:

* standard normal in 1D and 3D,
* the triangular-shaped-cloud kernel itself used as a density (it is a
  valid pdf: non-negative with unit integral), drawn by rejection,
* a three-component normal mixture with well separated scales,
* radii of a truncated Hernquist sphere, drawn by inverting the enclosed
  mass fraction M(<r)/MT = (r/(r+r_c))^2.

Each law is one :class:`AnalyticDensity` whose ``dim`` is fixed by the
law: its exact pdf is :func:`eval_density`, its exact curvature roughness

    R_d = integral (laplacian f)^2,  which is R_1 = integral f''(x)^2 dx,

is ``density.roughness()``, and the exact AMISE-optimal bandwidth that
selection is trying to recover is :func:`analytic_optimal_bandwidth`.
One table, ``_LAWS``, is the study table: keyed by study name
(``gauss1d``, ``tscdens1d``, ``trimodal``, ``gauss3d``, ``hernquist``,
which are also the CLI's names), each row holds the law's d, its sampler,
its pdf, its R_d and its experiment's default point counts.  The laws are
closed form; only the samplers draw.

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
    _check_count,
    _check_index,
    _float_array,
    _normal,
    _out_of_range,
    _positive_real,
)
from .estimator import (
    Kernel,
    Sample,
    _adopt,
    _as_rows,
    common_dim,
    eval_kernel,
    kernel_constants,
)
from .selector import optimal_bandwidth

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
    "HERNQUIST_EXTERNAL_REFERENCE",
]

RNG_NAME = f"numpy.random.Generator(PCG64), numpy=={np.__version__}"

# Three-component normal mixture: means, per-component sigmas, equal weights.
TRIMODAL_MEANS = (0.0, -4.0, 4.0)
TRIMODAL_SIGMAS = (1.0, 2.0, 0.5)
TRIMODAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _window(low, high, low_name: str, high_name: str) -> tuple[float, float]:
    """A truncation window (low, high) as floats, 0 <= low < high < inf;
    else DomainError naming the bound that breaks it."""
    low = _bounded_real(low, low_name, 0.0, closed=True)
    return low, _bounded_real(high, high_name, low)


@dataclass(frozen=True)
class HernquistParams:
    """Parameters of the truncated Hernquist sphere.

    The mass density is rho(r) = (MT/(2 pi)) * (r_c/r) / (r + r_c)^3,
    sampled only between the two truncation radii (given in units of
    r_c).  MT is carried along for profile conversions; the radial pdf
    itself is MT-independent.  Every field must be finite, and so must
    the truncation radii in absolute units, ``r_window``, with
    r_min < r_max.
    """

    total_mass_MT: float = 1.0
    scale_length_rc: float = 1.0
    truncation_min_r_over_rc: float = 0.05
    truncation_max_r_over_rc: float = 1000.0

    def __post_init__(self):
        for name in ("total_mass_MT", "scale_length_rc"):
            object.__setattr__(self, name, _positive_real(getattr(self, name), name))
        low, high = _window(self.truncation_min_r_over_rc, self.truncation_max_r_over_rc,
                            "truncation_min_r_over_rc", "truncation_max_r_over_rc")
        object.__setattr__(self, "truncation_min_r_over_rc", low)
        object.__setattr__(self, "truncation_max_r_over_rc", high)
        _window_mass(_window(*self.r_window, "truncation_min_r_over_rc * scale_length_rc",
                             "truncation_max_r_over_rc * scale_length_rc"), self.scale_length_rc)

    @property
    def r_window(self) -> tuple[float, float]:
        """The truncation radii (r_min, r_max) in absolute units."""
        rc = self.scale_length_rc
        return (self.truncation_min_r_over_rc * rc, self.truncation_max_r_over_rc * rc)


def _halved(x, rc):
    """(c, a) with a = c x + c rc, and c = 1/2 where x + rc overflows, else
    1 (where a is x + rc to the bit).  So a is finite, and a Hernquist ratio
    taken of c x, c rc and a is the one of x, rc and x + rc.  Where
    c = 1/2, a^3 overflows, so _ratio never keeps a plain formula in a^3
    there."""
    with np.errstate(over="ignore"):
        c = np.where(x + rc == np.inf, 0.5, 1.0)
    return c, c * x + c * rc


def _hernquist_mass_fraction(r, rc):
    """Enclosed mass fraction M(<r)/MT of the untruncated sphere."""
    c, a = _halved(r, rc)
    return (c * r / a) ** 2


def _window_mass(window: tuple[float, float] | None, rc: float) -> float:
    """The untruncated Hernquist law's mass F(r_max) - F(r_min) inside the
    window (r_min, r_max) at scale length rc, 1.0 for no window;
    DomainError naming the window where it holds none in floats (F(r_min)
    and F(r_max) round to one float)."""
    if window is None:
        return 1.0
    lo, hi = window
    mass = float(_hernquist_mass_fraction(hi, rc) - _hernquist_mass_fraction(lo, rc))
    if not mass > 0.0:
        raise DomainError(f"the truncation window ({lo!r}, {hi!r}) holds no mass in floats "
                          f"at r_c = {rc!r}: F(r_min) and F(r_max) round to one float")
    return mass


def _draw_count(Np, d: int = 1) -> int:
    """The count of a draw of Np points in d dimensions; DomainError where
    their Np d float64 values exceed np.iinfo(np.intp).max bytes, past
    the largest array numpy can shape."""
    Np = _check_count(Np)
    largest = np.iinfo(np.intp).max // (8 * d)
    if Np > largest:
        raise DomainError(f"Np must be at most {largest} for a draw in d = {d}, got {Np}")
    return Np


def _generator(seed: int) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` for a seed that is an index (an
    integer >= 0, not a bool); any other seed raises DomainError, where
    numpy would raise a bare ValueError or TypeError, or take True as 1."""
    return np.random.default_rng(_check_index(seed, "seed"))


def sample_gaussian_1d(Np: int, seed: int) -> Sample:
    """Np standard normal draws."""
    Np = _draw_count(Np)
    rng = _generator(seed)
    return _adopt(Sample, points=rng.standard_normal(Np))


def sample_gaussian_3d(Np: int, seed: int) -> Sample:
    """Np isotropic standard normal draws in 3D."""
    Np = _draw_count(Np, 3)
    rng = _generator(seed)
    return _adopt(Sample, points=rng.standard_normal((Np, 3)))


def sample_tsc_density(Np: int, seed: int) -> Sample:
    """Draw from the TSC shape used as a pdf, by rejection.

    Proposal: y uniform on [-3/2, 3/2], height uniform on [0, 3/4]
    (the kernel's maximum), acceptance rate 4/9.  Chunk sizes depend
    only on the remaining deficit, so the draw is reproducible for a
    given seed.
    """
    Np = _draw_count(Np)
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
    Np = _draw_count(Np)
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
    Each radius is clipped to the window: near F = 1, q may round to 1
    (r = r_c / 0), or the quotient past r_max.
    """
    Np = _draw_count(Np)
    rc = params.scale_length_rc
    f_lo, f_hi = (_hernquist_mass_fraction(r, rc) for r in params.r_window)
    rng = _generator(seed)
    q = rng.uniform(f_lo, f_hi, Np)
    s = np.sqrt(q)
    with np.errstate(divide="ignore", over="ignore"):
        radii = rc * s / (1.0 - s)
    return _adopt(Sample, points=np.clip(radii, *params.r_window, out=radii))


@dataclass(frozen=True)
class AnalyticDensity:
    """A reference law with closed-form pdf and curvature roughness R_d.

    ``identifier`` names one of the studies listed in ``_LAWS``, which
    also fixes the law's dimension ``dim``: ``"gauss1d"``, ``"tscdens1d"``,
    ``"trimodal"`` and ``"hernquist"`` in 1D, ``"gauss3d"`` in 3D.  The
    remaining fields only apply to the Hernquist law: ``rc`` is the scale
    length and ``r_window`` an optional finite (r_min, r_max) truncation
    in absolute units; ``None`` means untruncated.
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
            object.__setattr__(self, "r_window",
                               _window(*window.tolist(), "r_window's r_min", "r_window's r_max"))
        _window_mass(self.r_window, self.rc)

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
    return AnalyticDensity("gauss1d")


def tsc_density_1d() -> AnalyticDensity:
    return AnalyticDensity("tscdens1d")


def trimodal_1d() -> AnalyticDensity:
    return AnalyticDensity("trimodal")


def hernquist_radial_pdf(
    rc: float = 1.0, r_window: tuple[float, float] | None = None
) -> AnalyticDensity:
    return AnalyticDensity("hernquist", rc=rc, r_window=r_window)


def gaussian_3d() -> AnalyticDensity:
    return AnalyticDensity("gauss3d")


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
    """The normal pdf.  From about |z| = 1.9e154, -0.5 * z * z overflows to
    -inf, and exp(-inf) is the +0.0 the pdf underflows to anyway, so the
    overflow is not reported."""
    with np.errstate(over="ignore"):
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


def _hernquist_pdf(density, x):
    """p(x) = 2 rc x / (x + rc)^3 / Z, with Z the window's mass: the plain
    formula's value where it neither over- nor underflows on the way, else
    the library's rule (_ratio).  Points outside the window are taken at
    x = 0, where p is +0.0."""
    if np.any(x < 0.0):
        raise DomainError("radial density needs r >= 0")
    rc, z = density.rc, _window_mass(density.r_window, density.rc)
    if density.r_window is not None:
        lo, hi = density.r_window
        x = np.where((x >= lo) & (x <= hi), x, 0.0)
    c, a = _halved(x, rc)
    with np.errstate(all="ignore"):
        num, den = 2.0 * rc * x, a ** 3
        part = num / den
        # part rounds on the way only where a window's mass then divides it.
        steps = (num, den) if z == 1.0 else (num, den, part)
        return _ratio(part / z, steps, (2.0 * c * c * c, rc, x), (a, a, a, z),
                      "the Hernquist pdf")


def _hernquist_g(s: float) -> float:
    """Antiderivative of (s-2)^2 / s^10; see module docstring.  +0.0 where
    its powers overflow (s past about 1.8e34), as at s = inf: there G is
    below 1e-240, under half an ulp of G at any r_min of a window that
    holds mass in floats (r_min/r_c below about 2^54)."""
    try:
        return -1.0 / (7.0 * s ** 7) + 1.0 / (2.0 * s ** 8) - 4.0 / (9.0 * s ** 9)
    except OverflowError:
        return 0.0


def _hernquist_roughness(density) -> float:
    # In units of rc, p''(r)^2 = 144 (r-1)^2/(1+r)^10 whose antiderivative
    # is 144 G(1+r); truncation rescales by 1/Z^2.
    rc = density.rc
    if density.r_window is None:
        lo_s, hi_s = 1.0, np.inf
    else:
        lo, hi = density.r_window
        lo_s, hi_s = 1.0 + lo / rc, 1.0 + hi / rc
    z = _window_mass(density.r_window, rc)
    return 144.0 * (_hernquist_g(hi_s) - _hernquist_g(lo_s)) / (z * z * rc ** 5)


# Published comparison values for the truncated-sphere study at Np = 1.05e6
# (analytic vs data-driven bandwidth).  The scale and window conventions
# behind them were not fully specified, so the hernquist experiment
# document records them for qualitative comparison only, never as a
# pass/fail oracle.
HERNQUIST_EXTERNAL_REFERENCE = {
    "analytic_h": 0.1712,
    "data_based_h": 0.1678,
    "relative_error_percent": -1.9,
    "note": (
        "published comparison values for a truncated-sphere sample of "
        "1.05e6 radii; conventions not fully specified, qualitative only"
    ),
}


def _gaussian3_pdf(density, points):
    r2 = np.einsum("ij,ij->i", points, points)
    return np.exp(-0.5 * r2) / (2.0 * np.pi) ** 1.5


class _Law(NamedTuple):
    """A study: its law's dimension, its sampler ``draw(Np, seed, hq)``
    (``hq`` the HernquistParams, read by the Hernquist sampler alone), its
    pdf ``pdf(density, x)``, its R_d ``roughness(density)`` and its
    experiment's default point counts."""

    dim: int
    draw: Callable
    pdf: Callable
    roughness: Callable
    np: tuple[int, ...]


_DECADES_1D = (1_000, 10_000, 100_000, 1_000_000)

_LAWS = {
    "gauss1d": _Law(1, lambda Np, seed, hq: sample_gaussian_1d(Np, seed),
                    lambda density, x: _normal_pdf(x, 0.0, 1.0),
                    lambda density: 3.0 / (8.0 * np.sqrt(np.pi)), _DECADES_1D),
    "tscdens1d": _Law(1, lambda Np, seed, hq: sample_tsc_density(Np, seed),
                      _tsc_density_pdf, lambda density: 6.0, _DECADES_1D),
    "trimodal": _Law(1, lambda Np, seed, hq: sample_trimodal(Np, seed),
                     _trimodal_pdf, _trimodal_roughness, _DECADES_1D),
    "hernquist": _Law(1, lambda Np, seed, hq: sample_hernquist_radii(Np, hq, seed),
                      _hernquist_pdf, _hernquist_roughness, (1_050_000,)),
    "gauss3d": _Law(3, lambda Np, seed, hq: sample_gaussian_3d(Np, seed), _gaussian3_pdf,
                    lambda density: 15.0 / (32.0 * np.pi ** 1.5), (1_000, 10_000, 100_000)),
}


def analytic_optimal_bandwidth(
    density: AnalyticDensity, kernel: Kernel, Np: int, dimension: int | None = None
) -> float:
    """Exact AMISE-optimal bandwidth for a reference law and kernel.

    ``density`` and ``kernel`` must share one dimension d, and must have
    dimension ``dimension`` where it is given, an index (an integer >= 0,
    not a bool); else DomainError.
    """
    if dimension is not None:
        dimension = _check_index(dimension, "dimension")
    common_dim(dimension, density=density.dim, kernel=kernel.dim)
    return optimal_bandwidth(density.roughness(), kernel, Np)


def _ratio(plain, steps, num, den, name: str):
    """``plain``, a formula's value of the product of ``num`` over the
    product of ``den``, where it is finite and each of ``steps``, the
    products it rounds on the way, is a normal float; elsewhere, where the
    formula over- or underflowed on the way, the same ratio taken by
    mantissas and exponents (np.frexp), so that nothing warns: a value
    below the floats is +0.0 (or subnormal), and one past them raises
    DomainError naming ``name``."""
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    plain_ok = np.abs(plain) <= huge
    for step in steps:
        plain_ok &= (np.abs(step) >= tiny) & (np.abs(step) <= huge)
    if np.all(plain_ok):
        return plain
    mantissa, exponent = 1.0, 0
    with np.errstate(all="ignore"):
        for factor in num:
            m, e = np.frexp(factor)
            mantissa, exponent = mantissa * m, exponent + e
        for factor in den:
            m, e = np.frexp(factor)
            mantissa, exponent = mantissa / m, exponent - e
        out = np.where(plain_ok, plain, np.ldexp(mantissa, exponent))
    if np.any(np.isinf(out)):
        raise DomainError(f"{name} is out of range: it exceeds the largest float")
    return out


def hernquist_profile(r, params: HernquistParams):
    """Mass density rho(r) = MT r_c / (2 pi r (r + r_c)^3) of the sphere.

    The plain formula's value where it neither over- nor underflows on the
    way; elsewhere a density below the floats is +0.0 and one past them
    raises DomainError (see _ratio)."""
    r = _float_array(r, "r")
    if np.any(r <= 0.0):
        raise DomainError("hernquist_profile needs r > 0")
    mt, rc = params.total_mass_MT, params.scale_length_rc
    c, a = _halved(r, rc)
    with np.errstate(all="ignore"):
        num, near, cube = mt * rc, 2.0 * np.pi * r, a ** 3
        den = near * cube
        out = _ratio(num / den, (num, near, cube, den), (mt, rc),
                     (2.0 * np.pi / (c * c * c), r, a, a, a), "hernquist_profile")
    return out if out.ndim else float(out)


def profile_from_radial_pdf(pdf_values, r, total_mass_MT: float):
    """Convert a radial pdf p(r) into a mass density rho(r) = MT p / (4 pi r^2).

    The plain formula's value where it neither over- nor underflows on the
    way; elsewhere a density below the floats is +0.0 and one past them
    raises DomainError (see _ratio)."""
    r = _float_array(r, "r")
    if np.any(r <= 0.0):
        raise DomainError("profile_from_radial_pdf needs r > 0")
    total_mass_MT = _positive_real(total_mass_MT, "total_mass_MT")
    pdf_values = _float_array(pdf_values, "pdf_values")
    if pdf_values.shape != r.shape:
        raise DomainError(f"pdf_values must have r's shape {r.shape}, not {pdf_values.shape}")
    with np.errstate(all="ignore"):
        num, square = total_mass_MT * pdf_values, r ** 2
        den = 4.0 * np.pi * square
        plain = num / den
    out = _ratio(plain, (num, square, den), (total_mass_MT, pdf_values), (4.0 * np.pi, r, r),
                 "profile_from_radial_pdf")
    return out if out.ndim else float(out)
