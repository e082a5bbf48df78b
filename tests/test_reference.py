"""Tests for the closed-form reference densities and roughnesses.

Every closed form is checked against an independent adaptive quadrature
of its defining integral (unit mass for the pdfs, integral of f''^2 for
the curvature roughnesses), so the frozen constants used elsewhere in
the suite are anchored to first principles here.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from kdeband.errors import DomainError
from kdeband.estimator import kernel_constants
from kdeband.reference import (
    AnalyticDensity,
    analytic_optimal_bandwidth,
    eval_density,
    gaussian_1d,
    gaussian_3d,
    hernquist_profile,
    hernquist_radial_pdf,
    profile_from_radial_pdf,
    trimodal_1d,
    tsc_density_1d,
)
from kdeband.reference import (
    TRIMODAL_MEANS,
    TRIMODAL_SIGMAS,
    TRIMODAL_WEIGHTS,
    HernquistParams,
)

# Frozen closed-form values, cross-checked against quadrature below.
R1_GAUSS = 3.0 / (8.0 * np.sqrt(np.pi))
R1_TRIMODAL = 0.7823575540653088
R1_HERNQUIST_UNTRUNC = 88.0 / 7.0
R1_HERNQUIST_TRUNC = 7.203576203719135  # rc=1, window (0.05, 1000)
R3_GAUSS = 0.08418146349617182  # 15 / (32 pi^(3/2))
TRIMODAL_AT_4 = 0.26602843538050425

DEFAULT_WINDOW = (0.05, 1000.0)


def _normal_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))


def _trimodal_fpp(x):
    """Second derivative of the mixture pdf, from the normal identity
    g'' = ((z^2 - 1)/sigma^2) g."""
    total = 0.0
    for w, mu, sig in zip(TRIMODAL_WEIGHTS, TRIMODAL_MEANS, TRIMODAL_SIGMAS):
        z = (x - mu) / sig
        total += w * (z * z - 1.0) / sig ** 2 * _normal_pdf(x, mu, sig)
    return total


def _hernquist_fpp(r):
    """Second derivative of p(r) = 2r/(1+r)^3 in units of rc."""
    return 12.0 * (r - 1.0) / (1.0 + r) ** 5


# ---------------------------------------------------------------------------
# unit mass
# ---------------------------------------------------------------------------


def test_densities_integrate_to_one():
    cases = [
        (gaussian_1d(), -40.0, 40.0, ()),
        (tsc_density_1d(), -1.5, 1.5, (-0.5, 0.5)),
        (trimodal_1d(), -40.0, 40.0, ()),
        (hernquist_radial_pdf(), 0.0, np.inf, ()),
        (hernquist_radial_pdf(rc=2.5), 0.0, np.inf, ()),
        (hernquist_radial_pdf(r_window=DEFAULT_WINDOW), 0.05, 1000.0, ()),
        (hernquist_radial_pdf(rc=2.0, r_window=(0.5, 40.0)), 0.5, 40.0, ()),
    ]
    for dens, lo, hi, breaks in cases:
        mass, err = quad(
            lambda x: eval_density(dens, x), lo, hi, points=list(breaks) or None, limit=400
        )
        assert_allclose(mass, 1.0, rtol=1e-8)


def test_density_3d_integrates_to_one():
    mass, _ = quad(
        lambda r: 4.0 * np.pi * r * r * eval_density(gaussian_3d(), [r, 0.0, 0.0]),
        0.0,
        40.0,
        limit=200,
    )
    assert_allclose(mass, 1.0, rtol=1e-10)


# ---------------------------------------------------------------------------
# curvature roughness closed forms vs quadrature
# ---------------------------------------------------------------------------


def test_gaussian_roughness():
    got = gaussian_1d().roughness()
    assert_allclose(got, R1_GAUSS, rtol=1e-15)
    numeric, _ = quad(lambda x: ((x * x - 1.0) * _normal_pdf(x, 0, 1)) ** 2, -30, 30, limit=200)
    assert_allclose(got, numeric, rtol=1e-10)


def test_tsc_density_roughness():
    """f'' of the TSC shape is -2 on the core and +1 on the wings, so the
    exact roughness is 4*1 + 1*2 = 6; a finite-difference pass over the
    evaluated pdf reproduces it."""
    got = tsc_density_1d().roughness()
    assert got == 6.0
    dx = 1e-3
    x = np.arange(-1.6, 1.6, dx)
    f = eval_density(tsc_density_1d(), x)
    fpp = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx ** 2
    assert_allclose(np.sum(fpp ** 2) * dx, 6.0, rtol=0.02)


def test_trimodal_roughness():
    got = trimodal_1d().roughness()
    assert_allclose(got, R1_TRIMODAL, rtol=1e-13)
    numeric, _ = quad(lambda x: _trimodal_fpp(x) ** 2, -40, 40, limit=400)
    assert_allclose(got, numeric, rtol=1e-7)


def test_trimodal_roughness_cutoff_invariance():
    """The quadrature window does not matter once the tails are dead."""
    a, _ = quad(lambda x: _trimodal_fpp(x) ** 2, -15, 15, limit=400)
    b, _ = quad(lambda x: _trimodal_fpp(x) ** 2, -60, 60, limit=800)
    assert_allclose(a, b, rtol=1e-12)


def test_hernquist_roughness_untruncated():
    got = hernquist_radial_pdf().roughness()
    assert_allclose(got, R1_HERNQUIST_UNTRUNC, rtol=1e-14)
    numeric, _ = quad(lambda r: _hernquist_fpp(r) ** 2, 0, np.inf, limit=400)
    assert_allclose(got, numeric, rtol=1e-10)


def test_hernquist_roughness_truncated():
    dens = hernquist_radial_pdf(r_window=DEFAULT_WINDOW)
    got = dens.roughness()
    assert_allclose(got, R1_HERNQUIST_TRUNC, rtol=1e-13)
    z = (1000.0 / 1001.0) ** 2 - (0.05 / 1.05) ** 2
    numeric, _ = quad(lambda r: (_hernquist_fpp(r) / z) ** 2, 0.05, 1000.0, limit=400)
    assert_allclose(got, numeric, rtol=1e-9)


def test_hernquist_roughness_rc_scaling():
    """The roughness carries dimension length^-5, so doubling rc divides
    the untruncated value by 32."""
    assert_allclose(
        hernquist_radial_pdf(rc=2.0).roughness(),
        R1_HERNQUIST_UNTRUNC / 32.0,
        rtol=1e-14,
    )


def test_gaussian_3d_roughness():
    got = gaussian_3d().roughness()
    assert_allclose(got, R3_GAUSS, rtol=1e-15)
    assert_allclose(got, 15.0 / (32.0 * np.pi ** 1.5), rtol=1e-15)
    g = lambda r: np.exp(-0.5 * r * r) / (2.0 * np.pi) ** 1.5
    numeric, _ = quad(
        lambda r: 4.0 * np.pi * r * r * ((r * r - 3.0) * g(r)) ** 2, 0, 30, limit=200
    )
    assert_allclose(got, numeric, rtol=1e-10)


# ---------------------------------------------------------------------------
# optimal bandwidths from the reference laws
# ---------------------------------------------------------------------------


def test_analytic_optimal_bandwidth_examples():
    tsc = kernel_constants("tsc", 1)
    h_gauss = analytic_optimal_bandwidth(gaussian_1d(), tsc, 100_000, dimension=1)
    assert_allclose(h_gauss, 0.21078, atol=1e-4)
    assert_allclose(h_gauss, 0.2107682881168361, rtol=1e-12)

    h_tscd = analytic_optimal_bandwidth(tsc_density_1d(), tsc, 100_000, dimension=1)
    assert_allclose(h_tscd, 0.10796, atol=1e-4)
    assert_allclose(h_tscd, 0.10796084730466028, rtol=1e-12)

    ngp3 = kernel_constants("ngp3", 3)
    h_3d = analytic_optimal_bandwidth(gaussian_3d(), ngp3, 10_000, dimension=3)
    expected = (3.0 * (6.0 / np.pi) / (R3_GAUSS * 0.05 ** 2)) ** (1.0 / 7.0) * 10_000 ** (
        -1.0 / 7.0
    )
    assert_allclose(h_3d, expected, rtol=1e-13)
    assert_allclose(h_3d, 1.1538198913151692, rtol=1e-12)


def test_analytic_optimal_bandwidth_dimension_checks():
    with pytest.raises(DomainError):
        analytic_optimal_bandwidth(gaussian_1d(), kernel_constants("tsc3", 3), 100, dimension=1)
    with pytest.raises(DomainError):
        analytic_optimal_bandwidth(gaussian_3d(), kernel_constants("tsc", 1), 100, dimension=3)
    with pytest.raises(DomainError):
        analytic_optimal_bandwidth(gaussian_1d(), kernel_constants("tsc", 1), 100, dimension=2)


def test_analytic_optimal_bandwidth_takes_d_from_its_inputs():
    """Without a dimension, d is the one the law and the kernel share."""
    tsc3 = kernel_constants("tsc3", 3)
    assert analytic_optimal_bandwidth(gaussian_3d(), tsc3, 10_000) == (
        analytic_optimal_bandwidth(gaussian_3d(), tsc3, 10_000, dimension=3))
    with pytest.raises(DomainError, match="dimension mismatch"):
        analytic_optimal_bandwidth(gaussian_1d(), tsc3, 100)


# ---------------------------------------------------------------------------
# pdf evaluation
# ---------------------------------------------------------------------------


def test_eval_density_gaussian_and_tsc():
    assert_allclose(eval_density(gaussian_1d(), 0.0), 1.0 / np.sqrt(2.0 * np.pi), rtol=1e-15)
    assert eval_density(gaussian_1d(), 1.0) == eval_density(gaussian_1d(), -1.0)
    assert eval_density(tsc_density_1d(), 0.0) == 0.75
    assert eval_density(tsc_density_1d(), 1.0) == 0.125
    assert eval_density(tsc_density_1d(), 2.0) == 0.0


def test_eval_density_trimodal_example():
    """At x=4 the third component sits at its peak: the pdf is
    (phi(4) + phi(4)/2 + 2 phi(0)) / 3."""
    got = eval_density(trimodal_1d(), 4.0)
    direct = (
        _normal_pdf(4.0, 0.0, 1.0) + _normal_pdf(4.0, -4.0, 2.0) + _normal_pdf(4.0, 4.0, 0.5)
    ) / 3.0
    assert_allclose(got, direct, rtol=1e-14)
    assert_allclose(got, TRIMODAL_AT_4, rtol=1e-13)
    assert_allclose(got, 0.26603, atol=1e-4)


def test_eval_density_hernquist():
    dens = hernquist_radial_pdf()
    assert eval_density(dens, 1.0) == 0.25  # 2*1*1/(1+1)^3
    assert eval_density(dens, 0.0) == 0.0
    with pytest.raises(DomainError):
        eval_density(dens, -0.1)
    with pytest.raises(DomainError):
        eval_density(dens, np.array([0.5, -2.0]))

    trunc = hernquist_radial_pdf(r_window=(0.5, 10.0))
    z = (10.0 / 11.0) ** 2 - (0.5 / 1.5) ** 2
    assert_allclose(eval_density(trunc, 1.0), 0.25 / z, rtol=1e-14)
    assert eval_density(trunc, 0.2) == 0.0  # below the window
    assert eval_density(trunc, 20.0) == 0.0  # above the window


def test_hernquist_pdf_at_zero_of_a_tiny_scale_length():
    """With rc = 1e-300, (0 + rc)^3 underflows to 0: the pdf at r = 0 still
    reads 0, not 0/0, and warns nothing (warnings are errors here)."""
    dens = hernquist_radial_pdf(rc=1e-300)
    assert eval_density(dens, 0.0) == 0.0
    assert eval_density(dens, np.array([0.0, 1.0])).tolist() == [0.0, 2e-300]


@pytest.mark.parametrize("rc, x", [(1e-300, 1e-300), (1e-300, 1e-200), (1e300, 1e10),
                                   (1e300, 1e300)])
def test_hernquist_pdf_where_its_quotient_leaves_the_floats(rc, x):
    """2 rc x and (x + rc)^3 both underflow (rc = 1e-300) or both overflow
    (rc = 1e300), yet the pdf is finite, warns nothing (warnings are
    errors here), and is within a few ulps of the exact 2 rc x / (x + rc)^3:
    2.5e299, about 2e100, 0.0 (2e-590 rounds to it) and 2.5e-301."""
    exact = 2 * Fraction(rc) * Fraction(x) / (Fraction(x) + Fraction(rc)) ** 3
    want = float(exact)
    got = eval_density(hernquist_radial_pdf(rc=rc), x)
    assert abs(got - want) <= 4 * math.ulp(want)
    assert eval_density(hernquist_radial_pdf(rc=rc), np.array([x]))[0] == got


def test_hernquist_pdf_of_a_window_past_half_the_largest_float():
    """With rc = 1e308 and r_window (0, 1e308), r + rc overflowed in the
    window's mass, which read 0, so the pdf read nan with two
    RuntimeWarnings (errors here).  The mass is 1/4, as for rc = 1, and
    the pdf is within a few ulps of the exact 8 rc x / (x + rc)^3."""
    dens = hernquist_radial_pdf(rc=1e308, r_window=(0.0, 1e308))
    assert eval_density(dens, np.array([1.0])).tolist() == [0.0]
    for x in (1e300, 2e307, 5e307):
        exact = 8 * Fraction(1e308) * Fraction(x) / (Fraction(x) + Fraction(1e308)) ** 3
        want = float(exact)
        assert abs(eval_density(dens, x) - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("x", [1e308, 1.5e308, np.finfo(float).max])
def test_hernquist_pdf_where_x_plus_rc_overflows(x):
    """At rc = 1e308, x + rc overflows from x of about 8e307 on, and the
    pdf read 0.0 there, where the exact 2 rc x / (x + rc)^3 is a subnormal
    (2.5e-309 at x = rc).  Taken of the halves, it is positive and within
    a few subnormal ulps of the exact value, as a scalar and as an array,
    and at x = 0 it is 0.0 without a warning (warnings are errors here)."""
    dens = hernquist_radial_pdf(rc=1e308)
    exact = 2 * Fraction(1e308) * Fraction(x) / (Fraction(x) + Fraction(1e308)) ** 3
    got = eval_density(dens, x)
    assert 0.0 < got and abs(got - float(exact)) <= 4 * math.ulp(0.0)
    assert eval_density(dens, np.array([0.0, x])).tolist() == [0.0, got]


@pytest.mark.parametrize("density", [gaussian_1d(), trimodal_1d()], ids=["gauss1d", "trimodal"])
@pytest.mark.parametrize("x", [2e154, 1e200, 1e300, -1e300])
def test_normal_pdf_far_out_is_zero_without_a_warning(density, x):
    """From about |x| = 1.9e154 (less for trimodal's sigma = 0.5 component)
    -0.5 * z * z overflows; the pdf is the +0.0 it underflows to, and warns
    nothing (warnings are errors here), as a scalar and as an array."""
    got = eval_density(density, x)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert eval_density(density, np.array([x, 0.0]))[0] == 0.0


def test_eval_density_vectorization():
    xs = np.linspace(-2, 2, 7)
    out = eval_density(gaussian_1d(), xs)
    assert out.shape == xs.shape
    assert isinstance(eval_density(gaussian_1d(), 0.5), float)


def test_eval_density_3d_shapes():
    origin = eval_density(gaussian_3d(), [0.0, 0.0, 0.0])
    assert_allclose(origin, (2.0 * np.pi) ** -1.5, rtol=1e-15)
    assert isinstance(origin, float)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = eval_density(gaussian_3d(), pts)
    assert out.shape == (3,)
    assert out[1] == out[2]  # isotropy
    with pytest.raises(DomainError):
        eval_density(gaussian_3d(), np.zeros((4, 2)))
    # one value per row for every (M, 3) input; a float only for a 3-vector
    one = eval_density(gaussian_3d(), np.zeros((1, 3)))
    assert isinstance(one, np.ndarray) and one.shape == (1,) and one[0] == origin
    assert eval_density(gaussian_3d(), np.zeros((0, 3))).shape == (0,)


# ---------------------------------------------------------------------------
# mass-density profiles
# ---------------------------------------------------------------------------


def test_hernquist_profile_examples():
    params = HernquistParams()
    assert_allclose(hernquist_profile(1.0, params), 1.0 / (16.0 * np.pi), rtol=1e-15)
    assert_allclose(hernquist_profile(2.0, params), 1.0 / (108.0 * np.pi), rtol=1e-15)
    heavy = HernquistParams(total_mass_MT=2.0)
    assert_allclose(hernquist_profile(1.0, heavy), 2.0 / (16.0 * np.pi), rtol=1e-15)
    with pytest.raises(DomainError):
        hernquist_profile(0.0, params)
    with pytest.raises(DomainError):
        hernquist_profile(np.array([1.0, -1.0]), params)


def test_profile_from_radial_pdf():
    assert_allclose(profile_from_radial_pdf(0.25, 1.0, 1.0), 0.25 / (4.0 * np.pi), rtol=1e-15)
    assert profile_from_radial_pdf(0.0, 3.0, 1.0) == 0.0
    assert_allclose(
        profile_from_radial_pdf(0.25, 1.0, 2.0),
        2.0 * profile_from_radial_pdf(0.25, 1.0, 1.0),
        rtol=1e-15,
    )
    with pytest.raises(DomainError):
        profile_from_radial_pdf(0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        profile_from_radial_pdf(0.1, 1.0, 0.0)


def test_profile_from_radial_pdf_rejects_an_infinite_mass():
    """An infinite total mass is not a positive finite real: it used to
    give an infinite profile."""
    with pytest.raises(DomainError, match="total_mass_MT"):
        profile_from_radial_pdf([1.0], [1.0], np.inf)


def test_non_numeric_window_raises_domain_error():
    """A window bound that is not a number is a domain error naming the
    window, not the bare TypeError of comparing it with a float."""
    with pytest.raises(DomainError, match="r_window"):
        hernquist_radial_pdf(r_window=("a", "b"))
    with pytest.raises(DomainError, match="r_window"):
        hernquist_radial_pdf(r_window=(0.5, "b"))


@pytest.mark.parametrize("window", [5.0, (1.0,), (1.0, 2.0, 3.0)],
                         ids=["scalar", "one-bound", "three-bounds"])
def test_window_that_is_not_a_pair_raises_domain_error(window):
    """A window is a pair (r_min, r_max): any other shape is a domain error
    naming the window, not the bare error of unpacking it."""
    with pytest.raises(DomainError, match="r_window"):
        hernquist_radial_pdf(r_window=window)


def test_non_numeric_radii_raise_domain_error():
    """Radii that are not numbers are a domain error naming them, not
    numpy's bare ValueError."""
    with pytest.raises(DomainError, match="r must be"):
        hernquist_profile("a", HernquistParams())


def test_profile_from_radial_pdf_of_another_shape_raises_domain_error():
    """Three pdf values at two radii raised numpy's broadcast ValueError."""
    with pytest.raises(DomainError, match=r"pdf_values must have r's shape \(2,\), not \(3,\)"):
        profile_from_radial_pdf([1, 2, 3], [1, 2], 1.0)


def _exact_float(value: Fraction) -> float:
    """The float nearest an exact ratio, inf where it lies past the floats."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def test_mass_density_profiles_at_extreme_scales_follow_the_library_rules():
    """Seeded radii, scales, masses and pdf values across the floats, 2^k
    for k from -1074 to 1023 (scales 2^-1000 to 2^1000), with warnings as
    errors: each profile is within a few ulps of the exact ratio of its
    float inputs (2 pi and 4 pi as rounded), +0.0 or subnormal where that
    lies below the normal floats, and raises DomainError where it lies
    past them.  Among the cases: r = 1e-320 and 1e200 and r_c = 1e300."""
    rng = np.random.default_rng(83)

    def draw(low, high, size):
        return np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(low, high, size)).tolist()

    rs = draw(-1074, 1023, 120) + [1e-320, 1e200, 1.0]
    scales = draw(-1000, 1000, 120) + [1.0, 1.0, 1e300]
    masses = draw(-1000, 1000, 120) + [1.0, 1.0, 1.0]
    pdfs = draw(-1074, 1023, 120) + [1.0, 1e10, 0.0]
    checked = {"finite": 0, "zero": 0, "overflow": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, rc, mt, pdf in zip(rs, scales, masses, pdfs):
            params = HernquistParams(total_mass_MT=mt, scale_length_rc=rc,
                                     truncation_max_r_over_rc=2.0)
            R, RC, MT = Fraction(r), Fraction(rc), Fraction(mt)
            cases = [
                (lambda: hernquist_profile(r, params),
                 MT * RC / (Fraction(2.0 * np.pi) * R * (R + RC) ** 3)),
                (lambda: profile_from_radial_pdf(pdf, r, mt),
                 MT * Fraction(pdf) / (Fraction(4.0 * np.pi) * R * R)),
            ]
            for call, exact in cases:
                want = _exact_float(exact)
                if want == math.inf:
                    with pytest.raises(DomainError, match="out of range"):
                        call()
                    checked["overflow"] += 1
                    continue
                got = call()
                assert isinstance(got, float) and got >= 0.0
                assert abs(got - want) <= 4e-15 * want + 2.0 ** -1073, (r, rc, mt, pdf)
                checked["finite" if want else "zero"] += 1
    assert min(checked.values()) >= 20, checked


def test_profile_round_trip():
    """Converting the untruncated radial pdf through 4 pi r^2 recovers the
    mass-density profile exactly, for any total mass."""
    rng = np.random.default_rng(0)
    r = 10.0 ** rng.uniform(-3, 1.7, 1000)
    for mt in (1.0, 3.5):
        params = HernquistParams(total_mass_MT=mt)
        pdf = eval_density(hernquist_radial_pdf(), r)
        assert_allclose(
            profile_from_radial_pdf(pdf, r, mt), hernquist_profile(r, params), rtol=1e-12
        )


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


def test_density_constructor_validation():
    with pytest.raises(DomainError):
        AnalyticDensity("sombrero")
    with pytest.raises(DomainError):
        hernquist_radial_pdf(rc=0.0)
    with pytest.raises(DomainError):
        hernquist_radial_pdf(r_window=(-1.0, 5.0))
    with pytest.raises(DomainError):
        hernquist_radial_pdf(r_window=(5.0, 5.0))
    with pytest.raises(DomainError):
        hernquist_radial_pdf(r_window=(7.0, 2.0))
    for rc in (np.inf, np.nan):
        with pytest.raises(DomainError):
            hernquist_radial_pdf(rc=rc)
    for window in ((0.05, np.inf), (np.nan, 5.0), (0.05, np.nan)):
        with pytest.raises(DomainError):
            hernquist_radial_pdf(r_window=window)
    for rc in (1e-70, 1e70, 1e-62):
        with pytest.raises(DomainError, match="out of range"):
            hernquist_radial_pdf(rc=rc).roughness()
