"""Tests for the deterministic synthetic samplers.

Each law is checked three ways: exact reproducibility for a fixed seed,
low-order moments against the analytic values, and a distributional
goodness-of-fit test.  For the latter every sampler is mapped through its
own cumulative distribution (probability integral transform), which must
yield uniform variates on [0, 1]; uniformity is scored with a 50-bin
chi-square statistic compared to the 99.9% quantile of chi2(49), and for
the inverse-transform sampler also with a Kolmogorov-Smirnov statistic.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from kdeband.errors import DomainError
from kdeband.estimator import Sample, eval_kernel, kernel_constants
from kdeband.reference import _LAWS
from kdeband.reference import (
    RNG_NAME,
    TRIMODAL_MEANS,
    TRIMODAL_SIGMAS,
    TRIMODAL_WEIGHTS,
    HernquistParams,
    sample_gaussian_1d,
    sample_gaussian_3d,
    sample_hernquist_radii,
    sample_trimodal,
    sample_tsc_density,
)

CHI2_CRIT = stats.chi2.ppf(0.999, 49)  # 50 equal-probability bins


def _uniform_chi2(u, bins=50):
    """Chi-square statistic of u against the uniform law on [0, 1]."""
    counts, _ = np.histogram(u, bins=bins, range=(0.0, 1.0))
    expected = u.size / bins
    return float(np.sum((counts - expected) ** 2) / expected)


def _uniform_ks(u):
    """Two-sided Kolmogorov-Smirnov distance of u from uniform on [0, 1]."""
    s = np.sort(u)
    n = s.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - s), np.max(s - (grid - 1.0 / n))))


def _tsc_cdf(x):
    """Closed-form CDF of the TSC shape used as a density."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x <= -0.5
    hi = x >= 0.5
    mid = ~(lo | hi)
    out[lo] = np.clip(1.5 + x[lo], 0.0, None) ** 3 / 6.0
    out[mid] = 0.5 + 0.75 * x[mid] - x[mid] ** 3 / 3.0
    out[hi] = 1.0 - np.clip(1.5 - x[hi], 0.0, None) ** 3 / 6.0
    return out


def _trimodal_cdf(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, mu, sig in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
        out += w * stats.norm.cdf(x, loc=mu, scale=sig)
    return out


def _hernquist_pit(r, params):
    """Map truncated Hernquist radii to uniform [0, 1] via the mass fraction."""
    rc = params.scale_length_rc
    f = lambda s: (s / (s + rc)) ** 2
    q_lo = f(params.truncation_min_r_over_rc * rc)
    q_hi = f(params.truncation_max_r_over_rc * rc)
    return (f(np.asarray(r, dtype=float)) - q_lo) / (q_hi - q_lo)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_samplers_are_deterministic():
    """The same (Np, seed) reproduces every sample exactly; a different
    seed produces a different one."""
    draws = [
        lambda seed: sample_gaussian_1d(2000, seed=seed).points,
        lambda seed: sample_tsc_density(2000, seed=seed).points,
        lambda seed: sample_trimodal(2000, seed=seed).points,
        lambda seed: sample_gaussian_3d(2000, seed=seed).points,
        lambda seed: sample_hernquist_radii(2000, HernquistParams(), seed=seed).points,
    ]
    for draw in draws:
        assert np.array_equal(draw(7), draw(7))
        assert not np.array_equal(draw(7), draw(8))


def test_sampler_return_types():
    for sample in (
        sample_gaussian_1d(10, seed=0),
        sample_tsc_density(10, seed=0),
        sample_trimodal(10, seed=0),
        sample_hernquist_radii(10, HernquistParams(), seed=0),
    ):
        assert isinstance(sample, Sample) and sample.dim == 1
        assert not sample.points.flags.writeable
    sample3 = sample_gaussian_3d(10, seed=0)
    assert isinstance(sample3, Sample) and sample3.dim == 3
    assert sample3.points.shape == (10, 3)
    assert not sample3.points.flags.writeable


def test_draw_keeps_one_array_of_the_sample():
    """A sampler freezes the array it draws rather than copying it: the
    traced peak of a (2e5, 3) normal draw is 1.28 times the sample's bytes
    (2.16 while the sample copied the draw)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample = _LAWS["gauss3d"].draw(200_000, 1, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * sample.points.nbytes


# ---------------------------------------------------------------------------
# standard normal, 1D and 3D
# ---------------------------------------------------------------------------


def test_gaussian_1d_moments_and_gof():
    x = sample_gaussian_1d(100_000, seed=1).points
    assert abs(np.mean(x)) < 0.02
    assert abs(np.var(x) - 1.0) < 0.03
    assert _uniform_chi2(stats.norm.cdf(x)) < CHI2_CRIT


def test_gaussian_3d_moments_and_gof():
    pts = sample_gaussian_3d(100_000, seed=2).points
    for axis in range(3):
        assert abs(np.mean(pts[:, axis])) < 0.02
        assert abs(np.var(pts[:, axis]) - 1.0) < 0.03
    r2 = np.sum(pts ** 2, axis=1)
    assert abs(np.mean(r2) - 3.0) < 0.05
    # the radius of an isotropic standard normal follows a chi(3) law
    assert _uniform_chi2(stats.chi.cdf(np.sqrt(r2), 3)) < CHI2_CRIT


# ---------------------------------------------------------------------------
# TSC shape as a density
# ---------------------------------------------------------------------------


def test_tsc_cdf_oracle_anchors():
    """Anchor the in-test CDF before using it as a referee: the piecewise
    integrals give 1/6, 1/2, 5/6 at the breakpoints and 0/1 outside."""
    assert_allclose(
        _tsc_cdf(np.array([-1.5, -0.5, 0.0, 0.5, 1.5])),
        [0.0, 1.0 / 6.0, 0.5, 5.0 / 6.0, 1.0],
        rtol=1e-14,
        atol=1e-15,
    )
    # cross-check against a direct quadrature of the kernel shape
    grid = np.linspace(-1.5, 1.5, 30_001)
    dens = eval_kernel(kernel_constants("tsc", 1), grid)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    idx = np.searchsorted(grid, [-1.0, -0.25, 0.3, 1.2])
    assert_allclose(_tsc_cdf(grid[idx]), cum[idx], atol=1e-8)


def test_tsc_density_support_moments_gof():
    x = sample_tsc_density(100_000, seed=3).points
    assert np.all(np.abs(x) <= 1.5)
    assert abs(np.mean(x)) < 0.01
    # the variance of the TSC shape is its second moment mu2 = 1/4
    assert abs(np.var(x) - 0.25) < 0.02
    assert _uniform_chi2(_tsc_cdf(x)) < CHI2_CRIT


def test_tsc_rejection_acceptance_rate():
    """The rejection envelope (uniform on [-3/2, 3/2] x [0, 3/4]) accepts
    with probability (area under the kernel)/(3 * 3/4) = 4/9; an
    independent simulation of the accept test reproduces that rate."""
    rng = np.random.default_rng(123)
    m = 100_000
    y = rng.uniform(-1.5, 1.5, m)
    u = rng.uniform(0.0, 0.75, m)
    frac = np.mean(u <= eval_kernel(kernel_constants("tsc", 1), y))
    assert abs(frac - 4.0 / 9.0) / (4.0 / 9.0) < 0.02


# ---------------------------------------------------------------------------
# trimodal mixture
# ---------------------------------------------------------------------------


def test_trimodal_construction_and_labels():
    """The draw is component labels first, then one standard normal per
    point, so it can be reconstructed exactly from the seed; the label
    counts match the equal weights to within four binomial sigmas."""
    Np, seed = 300_000, 5
    x = sample_trimodal(Np, seed=seed).points
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, Np)
    z = rng.standard_normal(Np)
    rebuilt = np.asarray(TRIMODAL_MEANS)[labels] + np.asarray(TRIMODAL_SIGMAS)[labels] * z
    assert np.array_equal(x, rebuilt)

    sigma = np.sqrt(Np * (1.0 / 3.0) * (2.0 / 3.0))
    for k in range(3):
        assert abs(np.sum(labels == k) - Np / 3.0) < 4.0 * sigma


def test_trimodal_moments_and_gof():
    x = sample_trimodal(300_000, seed=5).points
    # mixture mean is (0 - 4 + 4)/3 = 0
    assert abs(np.mean(x)) < 0.03
    assert _uniform_chi2(_trimodal_cdf(x[:100_000])) < CHI2_CRIT


# ---------------------------------------------------------------------------
# Hernquist radii
# ---------------------------------------------------------------------------


def test_hernquist_untruncated_median():
    """Without truncation the median radius is r_c (1 + sqrt(2)), the
    solution of (r/(r+r_c))^2 = 1/2."""
    params = HernquistParams(truncation_min_r_over_rc=0.0, truncation_max_r_over_rc=1e9)
    r = sample_hernquist_radii(1_000_000, params, seed=10).points
    expected = 1.0 + np.sqrt(2.0)
    assert abs(np.median(r) - expected) / expected < 0.01


def test_hernquist_truncation_bounds():
    params = HernquistParams()
    r = sample_hernquist_radii(100_000, params, seed=11).points
    assert np.all(r >= 0.05)
    assert np.all(r <= 1000.0)
    wide = HernquistParams(
        scale_length_rc=2.0, truncation_min_r_over_rc=0.5, truncation_max_r_over_rc=10.0
    )
    r2 = sample_hernquist_radii(10_000, wide, seed=11).points
    assert np.all(r2 >= 0.5 * 2.0)
    assert np.all(r2 <= 10.0 * 2.0)


def test_hernquist_gof():
    params = HernquistParams()
    r = sample_hernquist_radii(1_000_000, params, seed=12).points
    u = _hernquist_pit(r, params)
    assert np.all((u >= 0.0) & (u <= 1.0))
    # 99% KS band for a million exact inverse-transform draws
    assert _uniform_ks(u) < 1.63 / np.sqrt(u.size)
    assert _uniform_chi2(u[:100_000]) < CHI2_CRIT


def test_hernquist_rc_scaling_is_exact():
    """r_c only sets the length unit: with the same seed the radii for
    r_c = 2 are exactly twice the radii for r_c = 1."""
    base = sample_hernquist_radii(5000, HernquistParams(scale_length_rc=1.0), seed=13).points
    doubled = sample_hernquist_radii(5000, HernquistParams(scale_length_rc=2.0), seed=13).points
    assert np.array_equal(doubled, 2.0 * base)


def test_hernquist_radii_of_a_window_past_half_the_largest_float():
    """With rc = 1e308 and the window (0, 1) r_c, r + rc overflowed in the
    mass fractions, both read 0, and every radius was 0.  The radii are
    now rc = 1's, in units of 1e308."""
    def draw(rc):
        params = HernquistParams(scale_length_rc=rc, truncation_min_r_over_rc=0.0,
                                 truncation_max_r_over_rc=1.0)
        return sample_hernquist_radii(1000, params, seed=5).points

    assert_allclose(draw(1e308) / 1e308, draw(1.0), rtol=1e-15, atol=0.0)
    assert draw(1e308).max() > 0.9e308


# ---------------------------------------------------------------------------
# validation and metadata
# ---------------------------------------------------------------------------


def test_hernquist_params_validation():
    with pytest.raises(DomainError):
        HernquistParams(total_mass_MT=0.0)
    with pytest.raises(DomainError):
        HernquistParams(scale_length_rc=-1.0)
    with pytest.raises(DomainError):
        HernquistParams(truncation_min_r_over_rc=-0.1)
    with pytest.raises(DomainError):
        HernquistParams(truncation_min_r_over_rc=5.0, truncation_max_r_over_rc=5.0)
    for bad in (np.inf, np.nan):
        for field in ("total_mass_MT", "scale_length_rc", "truncation_max_r_over_rc"):
            with pytest.raises(DomainError):
                HernquistParams(**{field: bad})
    with pytest.raises(DomainError):
        HernquistParams(truncation_min_r_over_rc=np.nan)


@pytest.mark.parametrize("kwargs, field", [
    ({"scale_length_rc": 1e308, "truncation_max_r_over_rc": 1e10}, "truncation_max_r_over_rc"),
    ({"scale_length_rc": 1e300, "truncation_min_r_over_rc": 1e10,
      "truncation_max_r_over_rc": 1e20}, "truncation_min_r_over_rc"),
    ({"scale_length_rc": 1e-300, "truncation_min_r_over_rc": 0.0,
      "truncation_max_r_over_rc": 1e-30}, "truncation_max_r_over_rc"),
], ids=["r_max-inf", "r_min-inf", "r_max-zero"])
def test_hernquist_window_in_absolute_units_is_finite_and_open(kwargs, field):
    """An r_max (or r_min) of inf, or an r_max that underflows to r_min,
    was accepted: the sampler then raised OverflowError or drew nan."""
    with pytest.raises(DomainError, match=rf"{field} \* scale_length_rc must be a real"):
        HernquistParams(**kwargs)


@pytest.mark.parametrize("field", ["truncation_min_r_over_rc", "truncation_max_r_over_rc"])
def test_non_numeric_truncation_radius_raises_domain_error(field):
    """A truncation radius that is not a number is a domain error naming
    it, not the bare TypeError of comparing it with a float."""
    with pytest.raises(DomainError, match=field):
        HernquistParams(**{field: "x"})


def test_sample_count_validation():
    with pytest.raises(DomainError):
        sample_gaussian_1d(0, seed=0)
    with pytest.raises(DomainError):
        sample_tsc_density(-1, seed=0)
    with pytest.raises(DomainError):
        sample_trimodal(0, seed=0)
    with pytest.raises(DomainError):
        sample_gaussian_3d(0, seed=0)
    with pytest.raises(DomainError):
        sample_hernquist_radii(0, HernquistParams(), seed=0)
    # a count must be a finite integer: no overflow, and no silent truncation
    for bad in (np.inf, np.nan, 2.7):
        with pytest.raises(DomainError):
            sample_gaussian_1d(bad, seed=1)
        with pytest.raises(DomainError):
            sample_gaussian_3d(bad, seed=1)
    same = sample_gaussian_1d(3.0, seed=1).points == sample_gaussian_1d(3, seed=1).points
    assert same.all()


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: sample_gaussian_1d(10, seed),
        lambda seed: sample_tsc_density(10, seed),
        lambda seed: sample_trimodal(10, seed),
        lambda seed: sample_gaussian_3d(10, seed),
        lambda seed: sample_hernquist_radii(10, HernquistParams(), seed),
    ],
    ids=["gauss1d", "tscdens1d", "trimodal", "gauss3d", "hernquist"],
)
def test_negative_seed_raises_domain_error(draw):
    """numpy's generator rejects a negative seed with a bare ValueError;
    the samplers name it as a domain error instead, and seed 0 is valid."""
    with pytest.raises(DomainError, match="seed"):
        draw(-1)
    assert draw(0).size_Np == 10


@pytest.mark.parametrize("seed", [1.5, "a", 2.0, None])
def test_non_integer_seed_raises_domain_error(seed):
    """Only an integer seed >= 0 pins a sample; any other is a domain error
    naming the seed, not numpy's bare TypeError."""
    with pytest.raises(DomainError, match="seed"):
        sample_gaussian_1d(5, seed)
    assert sample_gaussian_1d(5, np.int64(3)).points.tobytes() == \
        sample_gaussian_1d(5, 3).points.tobytes()


def test_rng_name_identifies_generator_and_numpy():
    assert RNG_NAME.startswith("numpy.random.Generator(PCG64)")
    assert np.__version__ in RNG_NAME
