"""Noise-corrected roughness: arithmetic, scale laws, and bias behaviour.

The statistical tests compare seed-averaged measurements against an
oracle built in this file: the expected tabulated curvature of the
smoothed density (kernel-convolved Gaussian, differenced on the same
lattice the estimator uses) plus the lattice noise floor computed from
the kernel's own stencil autocorrelation.  See the module docstring of
``kdeband.roughness`` for the derivation being checked.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from kdeband import (
    DomainError,
    GridTooLarge,
    NonPositiveBandwidth,
    build_grid,
    Sample,
    corrected_roughness,
    eval_kernel,
    kernel_constants,
    select_bandwidth,
)

TSC = kernel_constants("tsc", 1)
TSC3 = kernel_constants("tsc", 3)

R1_GAUSS = 3.0 / (8.0 * np.sqrt(np.pi))
R3_GAUSS = 15.0 / (32.0 * np.pi ** 1.5)


def _gauss_sample(Np, seed):
    return Sample(np.random.default_rng(seed).standard_normal(Np))


def _gauss_sample_3d(Np, seed):
    return Sample(np.random.default_rng(seed).standard_normal((Np, 3)))


# ---------------------------------------------------------------------------
# correction-term arithmetic
# ---------------------------------------------------------------------------

def test_correction_term_1d_arithmetic():
    """w=3, h=0.2, Np=1e5 -> 6/(3 * 0.2^5 * 1e5) = 0.0625."""
    s = _gauss_sample(100_000, 1)
    res = corrected_roughness(s, TSC, 0.2)
    assert res.correction == 6.0 / (3.0 * 0.2 ** 5 * 100_000)
    assert_allclose(res.correction, 0.0625, rtol=1e-12)


def test_correction_term_3d_arithmetic():
    """w=3, h=0.5, Np=1e5 -> 42/(27 * 0.5^7 * 1e5) ~ 1.9911e-3."""
    s = _gauss_sample_3d(20_000, 1)
    res = corrected_roughness(s, TSC3, 0.5)
    expected = 42.0 / (27.0 * 0.5 ** 7 * 20_000)
    assert res.correction == expected
    res5 = corrected_roughness(_gauss_sample_3d(100_000, 1), TSC3, 0.5)
    assert_allclose(res5.correction, 1.9911e-3, rtol=1e-4)


def test_corrected_equals_raw_minus_correction():
    """The three fields satisfy corrected = raw - correction exactly."""
    s = _gauss_sample(5_000, 3)
    for h in (0.15, 0.3, 0.6):
        res = corrected_roughness(s, TSC, h)
        assert res.corrected == res.raw - res.correction
        assert res.correction >= 0.0 and res.raw >= 0.0
    s3 = _gauss_sample_3d(5_000, 3)
    res3 = corrected_roughness(s3, TSC3, 0.7)
    assert res3.corrected == res3.raw - res3.correction


def test_correction_scale_law():
    """Doubling h scales the correction by exactly 2^-5 (1D), 2^-7 (3D)."""
    s = _gauss_sample(2_000, 5)
    c1 = corrected_roughness(s, TSC, 0.3).correction
    c2 = corrected_roughness(s, TSC, 0.6).correction
    assert c2 == c1 / 32.0
    s3 = _gauss_sample_3d(2_000, 5)
    d1 = corrected_roughness(s3, TSC3, 0.5).correction
    d2 = corrected_roughness(s3, TSC3, 1.0).correction
    assert d2 == d1 / 128.0


# ---------------------------------------------------------------------------
# flagged negative roughness
# ---------------------------------------------------------------------------

def test_tiny_h_flags_negative_1d():
    """At extreme small h the noise term dominates; no exception raised."""
    s = _gauss_sample(1_000, 11)
    res = corrected_roughness(s, TSC, 1e-4, grid_cap=10_000_000)
    assert res.corrected < 0.0


def test_tiny_h_3d_under_subtracts():
    """In 3D the printed constant 42/w^3 *under*-estimates the lattice
    noise (the exact stencil-autocorrelation integral is ~2.3x larger for
    TSC3), so the corrected value stays positive even deep in the
    noise-dominated regime, tracking the unsubtracted part of the noise
    floor.  Contrast with 1D, where 6/w over-subtracts and the corrected
    value goes negative (test above).
    """
    s = _gauss_sample_3d(1_000, 11)
    res = corrected_roughness(s, TSC3, 0.05)
    assert res.raw > res.correction > 0.0
    assert res.corrected > 0.0
    # the residual is close to (true - subtracted) noise: within 25% of
    # (3.6506 - 42/27) / (Np h^7), the exact constant from quadrature of
    # the 7-point stencil combination of kernel translates
    residual = (3.6506 - 42.0 / 27.0) / (1_000 * 0.05 ** 7)
    assert_allclose(res.corrected, residual, rtol=0.25)


# ---------------------------------------------------------------------------
# oracle for the seed-averaged corrected roughness
# ---------------------------------------------------------------------------

def _smoothed_curvature_roughness(h, kernel, extent=9.0):
    """Roughness of the lattice-differenced smoothed Gaussian.

    Tabulates E[f_hat](x) = (K_h * phi)(x) on the node lattice {k h},
    applies the same central second difference as the estimator, and
    integrates its square by node sums.  This is the exact noise-free
    expectation of the raw roughness pipeline (up to the (Np-1)/Np
    pair-counting factor, negligible here).
    """
    half = 0.5 * kernel.width_w
    kmax = int(np.ceil(extent / h)) + 2
    nodes = h * np.arange(-kmax, kmax + 1)

    def smoothed(x):
        val, _ = quad(
            lambda u: eval_kernel(kernel, u)
            * np.exp(-0.5 * (x - h * u) ** 2) / np.sqrt(2.0 * np.pi),
            -half, half, points=[-0.5, 0.5], limit=200,
        )
        return val

    ef = np.array([smoothed(x) for x in nodes])
    d2 = (ef[2:] + ef[:-2] - 2.0 * ef[1:-1]) / h ** 2
    return float(np.sum(d2 ** 2) * h)


def _stencil_noise_constant(kernel):
    """Exact lattice noise constant: integral of S(t)^2 dt with
    S(t) = W(t+1) + W(t-1) - 2 W(t).

    The Poisson variance of the differenced deposit integrates to
    (this constant) / (Np h^5); the subtracted correction 6/w replaces
    it by a rougher estimate, and the oracle uses the exact value.
    """
    half = 0.5 * kernel.width_w + 1.0

    def s(t):
        return (
            eval_kernel(kernel, t + 1.0)
            + eval_kernel(kernel, t - 1.0)
            - 2.0 * eval_kernel(kernel, t)
        )

    n = 2_000_000
    step = 2.0 * half / n
    mid = -half + (np.arange(n) + 0.5) * step
    return float(np.sum(s(mid) ** 2) * step)


def test_stencil_noise_constant_tsc():
    """For TSC the exact noise constant is 19/12 (from B-spline
    autocorrelations 6 R - 8 A(1) + 2 A(2) = 6*11/20 - 8*13/60 + 2/120),
    strictly below the 6/w = 2 used by the subtracted correction."""
    c = _stencil_noise_constant(TSC)
    assert_allclose(c, 19.0 / 12.0, rtol=1e-6)
    assert c < 6.0 / TSC.width_w


def test_seed_averaged_corrected_roughness_matches_oracle():
    """Mean corrected roughness over 50 seeds matches the lattice oracle.

    At h=0.21, Np=1e5 the expectation is NOT the ideal 3/(8 sqrt(pi)) ~
    0.2116: kernel smoothing plus the h-step difference quotient lower
    the curvature power by ~10%, and the correction subtracts 6/w =2
    where the exact lattice noise is 19/12, overshooting downward.  The
    oracle accounts for both; the ideal value is asserted to fall
    outside the observed band as documentation of that bias.
    """
    h, Np, n_seeds = 0.21, 100_000, 50
    vals = np.array([
        corrected_roughness(_gauss_sample(Np, seed), TSC, h).corrected
        for seed in range(1, n_seeds + 1)
    ])
    mean = vals.mean()
    oracle = (
        _smoothed_curvature_roughness(h, TSC)
        + (_stencil_noise_constant(TSC) - 6.0 / TSC.width_w) / (Np * h ** 5)
    )
    assert_allclose(mean, oracle, rtol=0.02)
    # the smoothing bias is real: the ideal roughness sits well above
    assert mean < 0.95 * R1_GAUSS


def test_bias_reduction_toward_truth():
    """|mean(corrected) - R1| < |mean(raw) - R1| at the optimal h.

    This is the documented intent of the correction.  At the 1D optimum
    for Np=1e4 the smoothing bias of the raw pipeline (~ -11%) happens to
    cancel against the noise floor (~ +18%), so the raw mean lands nearer
    the ideal value than the corrected mean does; the corrected estimate
    is faithful to the *lattice* expectation instead.  Expected to fail;
    see the Known limitations section of the README for the analysis.
    """
    h, Np, n_seeds = 0.3340452250230561, 10_000, 50
    raw, corr = [], []
    for seed in range(1, n_seeds + 1):
        res = corrected_roughness(_gauss_sample(Np, seed), TSC, h)
        raw.append(res.raw)
        corr.append(res.corrected)
    raw_gap = abs(np.mean(raw) - R1_GAUSS)
    corr_gap = abs(np.mean(corr) - R1_GAUSS)
    assert corr_gap < raw_gap


def test_consistency_trend_across_decades():
    """Mean |corrected - R1|/R1 does not degrade as Np grows.

    Evaluated at each decade's analytic optimal bandwidth over 50 seeds;
    one inversion inside statistical noise is tolerated.
    """
    n_seeds = 50
    errors = []
    for Np in (1_000, 10_000, 100_000):
        h = 0.2107682881168361 * (100_000 / Np) ** 0.2
        errs = [
            abs(corrected_roughness(_gauss_sample(Np, s), TSC, h).corrected
                - R1_GAUSS) / R1_GAUSS
            for s in range(1, n_seeds + 1)
        ]
        errors.append(float(np.mean(errs)))
    inversions = sum(
        1 for a, b in zip(errors, errors[1:]) if b > a
    )
    assert inversions <= 1, f"error trend {errors} rises more than once"


def test_roughness_3d_near_optimum():
    """Mean 3D corrected roughness within 15% of 15/(32 pi^1.5)."""
    h, Np, n_seeds = 0.394, 100_000, 20
    vals = [
        corrected_roughness(_gauss_sample_3d(Np, seed), TSC3, h).corrected
        for seed in range(1, n_seeds + 1)
    ]
    assert_allclose(np.mean(vals), R3_GAUSS, rtol=0.15)


# ---------------------------------------------------------------------------
# error propagation
# ---------------------------------------------------------------------------

def test_nonpositive_bandwidth_rejected():
    s = _gauss_sample(100, 1)
    with pytest.raises(NonPositiveBandwidth):
        corrected_roughness(s, TSC, 0.0)
    s3 = _gauss_sample_3d(100, 1)
    with pytest.raises(NonPositiveBandwidth):
        corrected_roughness(s3, TSC3, -1.0)


def test_grid_cap_propagates():
    s = _gauss_sample(1_000, 1)
    with pytest.raises(GridTooLarge):
        corrected_roughness(s, TSC, 0.001, grid_cap=100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cap", ["x", np.nan, np.inf, 2.5, 0, -3],
                         ids=["string", "nan", "inf", "fraction", "zero", "negative"])
@pytest.mark.parametrize("step", ["build_grid", "corrected_roughness", "select_bandwidth"])
def test_grid_cap_that_is_not_a_count_raises_domain_error(step, cap):
    """A grid cap is a count, read by the one count rule: anything but an
    integer >= 1 raises DomainError naming grid_cap, in the deposit and in
    each step that hands the cap on to it, with no warning."""
    s = _gauss_sample(1_000, 1)
    calls = {
        "build_grid": lambda: build_grid(s, TSC, 0.3, grid_cap=cap),
        "corrected_roughness": lambda: corrected_roughness(s, TSC, 0.3, grid_cap=cap),
        "select_bandwidth": lambda: select_bandwidth(s, TSC, grid_cap=cap),
    }
    with pytest.raises(DomainError, match="grid_cap"):
        calls[step]()


def test_grid_cap_as_integral_float_or_numpy_integer():
    """An integral float or a numpy integer is the same cap as the int."""
    s = _gauss_sample(1_000, 1)
    want = build_grid(s, TSC, 0.3, grid_cap=100).values
    for cap in (100.0, np.int64(100)):
        assert build_grid(s, TSC, 0.3, grid_cap=cap).values.tobytes() == want.tobytes()
    for cap in (10.0, np.int32(10)):
        with pytest.raises(GridTooLarge, match="above the cap of 10$"):
            build_grid(s, TSC, 0.3, grid_cap=cap)


@pytest.mark.filterwarnings("error")
def test_out_of_range_scale_raises_domain_error():
    """At 2^300 times a 3D standard normal the deposit is in range, but its
    Laplacian underflows to zero and the noise term's h^7 overflows:
    DomainError, not raw = 0.0 followed by a bare OverflowError."""
    s = Sample(np.random.default_rng(0).standard_normal((2000, 3)) * 2.0 ** 300)
    with pytest.raises(DomainError, match="out of range"):
        corrected_roughness(s, TSC3, 0.375 * 2.0 ** 300)
