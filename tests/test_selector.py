"""Tests for closed-form optimal bandwidths, AMISE, and the fixed-point selector.

Expected values are frozen from the closed-form formulas evaluated
independently (exact kernel constants, analytic density roughnesses):

    h_opt_1d = [R(K)  / (R_1 mu2^2)]^(1/5) * Np^(-1/5)
    h_opt_3d = [3R(K3)/ (R_3 mu2^2)]^(1/7) * Np^(-1/7)
"""

import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kdeband
from kdeband.errors import (
    BackoffExhausted,
    DegenerateSample,
    DomainError,
    NonPositiveBandwidth,
    NonPositiveRoughness,
)
from kdeband.estimator import Kernel, Sample, kernel_constants
from kdeband.reference import analytic_optimal_bandwidth, gaussian_1d, gaussian_3d
from kdeband.selector import corrected_roughness
from kdeband.reference import (
    HernquistParams,
    sample_gaussian_1d,
    sample_gaussian_3d,
    sample_hernquist_radii,
    sample_trimodal,
)
from kdeband.selector import (
    BandwidthTrace,
    IterationRecord,
    SelectorConfig,
    amise,
    optimal_bandwidth,
    select_bandwidth,
)

R1_GAUSS = 3.0 / (8.0 * np.sqrt(np.pi))  # integral of (phi'')^2
R3_GAUSS = 15.0 / (32.0 * np.pi ** 1.5)  # integral of (laplacian phi_3)^2

# Frozen closed-form optima (formula evaluated with exact constants).
H_TSC_GAUSS_1E5 = 0.2107682881168361
H_TSC_GAUSS_1E4 = 0.3340452250230561
H_TSC_FLAT6_1E5 = 0.10796084730466028
H_NGP3_GAUSS_1E4 = 1.1538198913151692
H_NGP3_GAUSS_1E3 = 1.6032275403005312
H_TSC3_GAUSS_1E4 = 0.548013918493559
H_TSC3_GAUSS_1E3 = 0.761462870600568
H_TSC3_GAUSS_1E5 = 0.39439776574503543


# ---------------------------------------------------------------------------
# closed-form optima
# ---------------------------------------------------------------------------


def test_optimal_bandwidth_1d_gaussian_tsc():
    """TSC on the standard normal curvature at Np=1e5 gives h ~ 0.21078."""
    h = optimal_bandwidth(R1_GAUSS, kernel_constants("tsc", 1), 100_000)
    assert_allclose(h, 0.21078, atol=1e-4)
    assert_allclose(h, H_TSC_GAUSS_1E5, rtol=1e-12)


def test_optimal_bandwidth_1d_flat_roughness():
    """A known curvature roughness of 6 at Np=1e5 gives h ~ 0.10796 for TSC."""
    h = optimal_bandwidth(6.0, kernel_constants("tsc", 1), 100_000)
    assert_allclose(h, 0.10796, atol=1e-4)
    assert_allclose(h, H_TSC_FLAT6_1E5, rtol=1e-12)


def test_optimal_bandwidth_1d_np_scaling():
    """h scales as Np^(-1/5): multiplying Np by 32 halves the bandwidth."""
    kern = kernel_constants("tsc", 1)
    h1 = optimal_bandwidth(R1_GAUSS, kern, 100_000)
    h2 = optimal_bandwidth(R1_GAUSS, kern, 32 * 100_000)
    assert_allclose(h2, h1 / 2.0, rtol=1e-15)


def test_optimal_bandwidth_3d_gaussian_ngp3():
    """NGP3 on the 3D standard normal at Np=1e4, checked against an
    in-test evaluation of the same closed form with exact constants."""
    kern = kernel_constants("ngp3", 3)
    h = optimal_bandwidth(R3_GAUSS, kern, 10_000)
    expected = (3.0 * (6.0 / np.pi) / (R3_GAUSS * (1.0 / 20.0) ** 2)) ** (1.0 / 7.0) * 10_000 ** (
        -1.0 / 7.0
    )
    assert_allclose(h, expected, rtol=1e-14)
    assert_allclose(h, H_NGP3_GAUSS_1E4, rtol=1e-12)


def test_optimal_bandwidth_3d_np_scaling():
    """h scales as Np^(-1/7): multiplying Np by 128 halves the bandwidth."""
    kern = kernel_constants("tsc3", 3)
    h1 = optimal_bandwidth(R3_GAUSS, kern, 10_000)
    h2 = optimal_bandwidth(R3_GAUSS, kern, 128 * 10_000)
    assert_allclose(h2, h1 / 2.0, rtol=1e-15)


def test_optimal_bandwidth_3d_tsc3_frozen_values():
    kern = kernel_constants("tsc3", 3)
    assert_allclose(optimal_bandwidth(R3_GAUSS, kern, 100_000), H_TSC3_GAUSS_1E5, rtol=1e-12)
    assert_allclose(optimal_bandwidth(R3_GAUSS, kern, 10_000), H_TSC3_GAUSS_1E4, rtol=1e-12)


def test_optimal_bandwidth_matches_reference_helper():
    """The reference-module convenience wrapper agrees with the direct formula."""
    dens = gaussian_1d()
    h_direct = optimal_bandwidth(
        dens.roughness(), kernel_constants("tsc", 1), 100_000
    )
    h_wrapped = analytic_optimal_bandwidth(dens, kernel_constants("tsc", 1), 100_000, dimension=1)
    assert h_wrapped == h_direct


def test_optimal_bandwidth_rejects_nonpositive_roughness():
    with pytest.raises(NonPositiveRoughness):
        optimal_bandwidth(0.0, kernel_constants("tsc", 1), 1000)
    with pytest.raises(NonPositiveRoughness):
        optimal_bandwidth(-1.0, kernel_constants("cic", 1), 1000)
    with pytest.raises(NonPositiveRoughness):
        optimal_bandwidth(0.0, kernel_constants("tsc3", 3), 1000)
    with pytest.raises(NonPositiveRoughness):
        optimal_bandwidth(-0.5, kernel_constants("ngp3", 3), 1000)
    with pytest.raises(NonPositiveRoughness):
        optimal_bandwidth(np.inf, kernel_constants("tsc", 1), 100)
    with pytest.raises(DomainError, match="out of range"):
        optimal_bandwidth(1e-320, kernel_constants("tsc", 1), 100)


def test_optimal_bandwidth_rejects_bad_np():
    with pytest.raises(DomainError):
        optimal_bandwidth(1.0, kernel_constants("tsc", 1), 0)
    with pytest.raises(DomainError):
        optimal_bandwidth(1.0, kernel_constants("tsc3", 3), -5)
    for Np in (np.inf, np.nan, 2.7):
        with pytest.raises(DomainError):
            optimal_bandwidth(1.0, kernel_constants("tsc", 1), Np)
        with pytest.raises(DomainError):
            analytic_optimal_bandwidth(gaussian_1d(), kernel_constants("tsc", 1), Np, 1)
    assert optimal_bandwidth(1.0, kernel_constants("tsc", 1), 1e5) == optimal_bandwidth(
        1.0, kernel_constants("tsc", 1), 100_000)


# ---------------------------------------------------------------------------
# AMISE
# ---------------------------------------------------------------------------


def test_amise_example_value():
    """With R(K)=1, mu2=1, roughness 1, Np=100, h=0.1:
    AMISE = 1/(0.1*100) + 0.1^4 * 1 * (1/2)^2 = 0.100025."""
    synthetic = Kernel(family="ngp", dim=1, width_w=1, normalization=1.0, roughness_RK=1.0,
                       second_moment_mu2=1.0)
    assert_allclose(amise(0.1, synthetic, 1.0, 100), 0.100025, rtol=1e-12)


def test_amise_minimized_at_closed_form_optimum():
    """On a 101-point log-spaced grid spanning [h_opt/4, 4 h_opt], the AMISE
    minimum lands on the grid point nearest the closed-form optimum, for a
    spread of roughnesses, sample sizes, and kernels."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        rough = float(10.0 ** rng.uniform(-2, 2))
        Np = int(rng.integers(100, 10_000_000))
        kern = kernel_constants(("ngp", "cic", "tsc")[int(rng.integers(0, 3))], 1)
        h_opt = optimal_bandwidth(rough, kern, Np)
        grid = np.geomspace(h_opt / 4.0, 4.0 * h_opt, 101)
        values = np.array([amise(h, kern, rough, Np) for h in grid])
        i_min = int(np.argmin(values))
        i_opt = int(np.argmin(np.abs(grid - h_opt)))
        assert i_min == i_opt


def test_amise_validation():
    kern = kernel_constants("tsc", 1)
    with pytest.raises(NonPositiveBandwidth):
        amise(0.0, kern, 1.0, 100)
    with pytest.raises(NonPositiveRoughness):
        amise(0.1, kern, 0.0, 100)
    with pytest.raises(NonPositiveBandwidth):
        amise(np.inf, kern, 1.0, 100)
    with pytest.raises(NonPositiveRoughness):
        amise(0.3, kern, np.inf, 100)
    for Np in (np.inf, np.nan, 2.7, 0):
        with pytest.raises(DomainError):
            amise(0.1, kern, 1.0, Np)
    with pytest.raises(DomainError, match="out of range"):
        amise(1e-110, kernel_constants("tsc3", 3), 1.0, 100)
    with pytest.raises(DomainError, match="out of range"):
        amise(1e100, kern, 1.0, 100)


# ---------------------------------------------------------------------------
# fixed-point selection, 1D
# ---------------------------------------------------------------------------


def _walk_trace(trace, config):
    """Yield (h_in, record) pairs reconstructing each step's input bandwidth."""
    h_in = None
    for rec in trace.iterations:
        yield h_in, rec
        h_in = rec.h


def test_select_gaussian_1d_example():
    """A 1e5-point standard normal sample selects a bandwidth within 5 percent
    of the closed-form optimum, converging in at most 20 plug-in updates."""
    sample = sample_gaussian_1d(100_000, seed=1)
    trace = select_bandwidth(sample, kernel_constants("tsc", 1))
    assert trace.converged
    assert trace.final_h == trace.iterations[-2].h
    rel_err = abs(trace.final_h - H_TSC_GAUSS_1E5) / H_TSC_GAUSS_1E5
    assert rel_err < 0.05
    n_updates = sum(1 for rec in trace.iterations if not rec.backoff_applied)
    assert n_updates <= 20


def test_trace_fixed_point_invariants():
    """Every plug-in record's output bandwidth is exactly the closed-form
    optimum of its measured corrected roughness, and the final step's
    relative change is within the configured tolerance."""
    kern = kernel_constants("tsc", 1)
    sample = sample_gaussian_1d(20_000, seed=3)
    config = SelectorConfig()
    trace = select_bandwidth(sample, kern, config)
    assert trace.converged
    Np = sample.size_Np
    for rec in trace.iterations:
        if not rec.backoff_applied:
            assert rec.corrected_roughness > 0.0
            assert rec.h == optimal_bandwidth(rec.corrected_roughness, kern, Np)
            assert rec.raw_roughness > rec.corrected_roughness
    # reconstruct the final relative change from the last two bandwidths
    hs = [rec.h for rec in trace.iterations]
    h_prev = hs[-2] if len(hs) >= 2 else None
    if h_prev is not None:
        assert abs(hs[-1] - h_prev) / h_prev <= config.rel_tolerance


def test_backoff_path_doubles_bandwidth():
    """Starting the iteration at an absurdly small bandwidth drives the
    corrected roughness negative; the selector then doubles h (flagging each
    doubling) until the measurement turns positive, and still converges.
    The first backoff also pins down the starting bandwidth
    h0 = c0 * std * Np^(-1/5)."""
    config = SelectorConfig(initial_scale_c0=1e-3)
    sample = sample_gaussian_1d(1000, seed=11)
    trace = select_bandwidth(sample, kernel_constants("tsc", 1), config)
    assert trace.converged
    assert trace.iterations[0].backoff_applied
    h0 = config.initial_scale_c0 * sample.std * sample.size_Np ** -0.2
    assert_allclose(trace.iterations[0].h, h0 * config.backoff_factor, rtol=1e-12)

    n_backoffs = 0
    h_in = h0
    for rec in trace.iterations:
        if rec.backoff_applied:
            assert rec.corrected_roughness <= 0.0
            assert rec.h == h_in * config.backoff_factor
            n_backoffs += 1
        h_in = rec.h
    assert n_backoffs >= 3
    # once recovered, the answer matches an unperturbed run
    plain = select_bandwidth(sample, kernel_constants("tsc", 1))
    assert_allclose(trace.final_h, plain.final_h, rtol=1e-3)


def test_backoff_exhausted():
    """With only one backoff allowed from a hopeless starting point the
    selector gives up loudly instead of looping."""
    config = SelectorConfig(initial_scale_c0=1e-3, max_backoffs=1)
    sample = sample_gaussian_1d(1000, seed=11)
    with pytest.raises(BackoffExhausted):
        select_bandwidth(sample, kernel_constants("tsc", 1), config)


def test_not_converged_reports_false():
    """Capping the update count below what convergence needs returns the
    best bandwidth so far with converged=False rather than raising."""
    config = SelectorConfig(max_iterations=1)
    sample = sample_gaussian_1d(5000, seed=4)
    trace = select_bandwidth(sample, kernel_constants("tsc", 1), config)
    assert not trace.converged
    assert sum(1 for r in trace.iterations if not r.backoff_applied) == 1
    assert trace.final_h == trace.iterations[-1].h
    assert trace.final_h > 0.0


def test_select_scale_equivariance():
    """Rescaling the data by 10 rescales the selected bandwidth by 10."""
    values = sample_gaussian_1d(20_000, seed=6).points
    kern = kernel_constants("tsc", 1)
    h_base = select_bandwidth(Sample(values), kern).final_h
    h_scaled = select_bandwidth(Sample(10.0 * values), kern).final_h
    assert_allclose(h_scaled, 10.0 * h_base, rtol=1e-6)


def test_select_determinism():
    """The same sample and configuration reproduce the trace bit for bit."""
    values = sample_gaussian_1d(10_000, seed=9).points
    kern = kernel_constants("cic", 1)
    t1 = select_bandwidth(Sample(values), kern)
    t2 = select_bandwidth(Sample(values.copy()), kern)
    assert t1.final_h == t2.final_h
    assert t1.converged == t2.converged
    assert t1.iterations == t2.iterations


def test_degenerate_samples_rejected():
    kern = kernel_constants("tsc", 1)
    with pytest.raises(DegenerateSample):
        select_bandwidth(Sample(np.full(100, 3.5)), kern)
    with pytest.raises(DegenerateSample):
        select_bandwidth(Sample(np.array([1.0])), kern)
    kern3 = kernel_constants("tsc3", 3)
    with pytest.raises(DegenerateSample):
        select_bandwidth(Sample(np.full((50, 3), 2.0)), kern3)
    with pytest.raises(DegenerateSample):
        select_bandwidth(Sample(np.zeros((1, 3))), kern3)


# ---------------------------------------------------------------------------
# fixed-point selection, 3D
# ---------------------------------------------------------------------------


def test_select_gaussian_3d_example():
    """A 1e4-point 3D standard normal sample with TSC3 lands within 5 percent
    of the closed-form optimum and satisfies the plug-in fixed-point
    relation exactly."""
    kern = kernel_constants("tsc3", 3)
    sample = sample_gaussian_3d(10_000, seed=2)
    trace = select_bandwidth(sample, kern)
    assert trace.converged
    rel_err = abs(trace.final_h - H_TSC3_GAUSS_1E4) / H_TSC3_GAUSS_1E4
    assert rel_err < 0.05
    for rec in trace.iterations:
        if not rec.backoff_applied:
            assert rec.h == optimal_bandwidth(rec.corrected_roughness, kern, sample.size_Np)


def test_ngp3_less_accurate_than_tsc3():
    """At Np=1e3 the zeroth-order NGP3 kernel selects noticeably worse
    bandwidths than TSC3, measured against each kernel's own closed-form
    optimum and averaged over seeds."""
    errs = {"ngp3": [], "tsc3": []}
    targets = {"ngp3": H_NGP3_GAUSS_1E3, "tsc3": H_TSC3_GAUSS_1E3}
    for family in ("ngp3", "tsc3"):
        kern = kernel_constants(family, 3)
        for seed in (1, 2, 3):
            sample = sample_gaussian_3d(1000, seed=seed)
            trace = select_bandwidth(sample, kern)
            errs[family].append(abs(trace.final_h - targets[family]) / targets[family])
    assert np.mean(errs["ngp3"]) > np.mean(errs["tsc3"])


def test_converged_final_h_was_measured():
    """A converged run returns the input bandwidth of its last update, so
    re-measuring the corrected roughness at final_h reproduces the last
    record bit for bit, and the fixed-point residual there is the recorded
    last step, within the tolerance.  NGP3 at Np=1e3 has a step-function
    roughness, where the unmeasured last iterate could land far off."""
    config = SelectorConfig()
    cases = [
        (sample_gaussian_3d(1000, seed=seed), kernel_constants("ngp3", 3))
        for seed in (2, 3, 4)
    ]
    cases.append((sample_gaussian_1d(10_000, seed=1), kernel_constants("tsc", 1)))
    for sample, kern in cases:
        if sample.dim == 3:
            trace = select_bandwidth(sample, kern, config)
            res = corrected_roughness(sample, kern, trace.final_h)
            h_next = optimal_bandwidth(res.corrected, kern, sample.size_Np)
        else:
            trace = select_bandwidth(sample, kern, config)
            res = corrected_roughness(sample, kern, trace.final_h)
            h_next = optimal_bandwidth(res.corrected, kern, sample.size_Np)
        assert trace.converged
        last = trace.iterations[-1]
        assert not last.backoff_applied
        assert res.raw == last.raw_roughness
        assert res.corrected == last.corrected_roughness
        assert h_next == last.h
        assert abs(h_next - trace.final_h) / trace.final_h <= config.rel_tolerance


def test_select_3d_rotation_stability():
    """The radial kernels make the estimate nearly rotation invariant; a
    rigid rotation of the sample moves the selected bandwidth by < 2%."""

    def rot(axis, angle):
        c, s = np.cos(angle), np.sin(angle)
        i, j = [(1, 2), (0, 2), (0, 1)][axis]
        m = np.eye(3)
        m[i, i] = c
        m[j, j] = c
        m[i, j] = -s
        m[j, i] = s
        return m

    rotation = rot(2, 0.7) @ rot(1, 0.4) @ rot(0, 1.1)
    assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-14)

    points = sample_gaussian_3d(10_000, seed=5).points
    kern = kernel_constants("tsc3", 3)
    h_base = select_bandwidth(Sample(points), kern).final_h
    h_rot = select_bandwidth(Sample(points @ rotation.T), kern).final_h
    assert abs(h_rot - h_base) / h_base < 0.02


# ---------------------------------------------------------------------------
# configuration and dataclass plumbing
# ---------------------------------------------------------------------------


def test_selector_config_validation():
    with pytest.raises(DomainError):
        SelectorConfig(rel_tolerance=1.0)
    with pytest.raises(DomainError):
        SelectorConfig(rel_tolerance=0.0)
    with pytest.raises(DomainError):
        SelectorConfig(rel_tolerance=-1e-3)
    with pytest.raises(DomainError):
        SelectorConfig(max_iterations=0)
    with pytest.raises(DomainError):
        SelectorConfig(initial_scale_c0=0.0)
    with pytest.raises(DomainError):
        SelectorConfig(backoff_factor=1.0)
    with pytest.raises(DomainError):
        SelectorConfig(initial_scale_c0=np.inf)
    with pytest.raises(DomainError):
        SelectorConfig(backoff_factor=np.inf)
    with pytest.raises(DomainError):
        SelectorConfig(max_backoffs=0)


@pytest.mark.parametrize("field", ["max_iterations", "max_backoffs"])
def test_config_update_caps_are_positive_integers(field):
    """A fractional or infinite cap is not a cap: 1.5 used to run 2
    updates and inf none at all.  Integral floats are stored as ints."""
    for value in (1.5, np.inf, 0):
        with pytest.raises(DomainError, match=field):
            SelectorConfig(**{field: value})
    capped = getattr(SelectorConfig(**{field: 3.0}), field)
    assert capped == 3 and type(capped) is int


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: SelectorConfig(max_iterations="x"), "max_iterations"),
        (lambda: optimal_bandwidth(1.0, kernel_constants("tsc", 1), "100"), "Np"),
        (lambda: sample_gaussian_1d("5", 0), "Np"),
    ],
    ids=["config", "optimal_bandwidth", "sampler"],
)
def test_non_numeric_count_raises_domain_error(call, field):
    """A count that is not a number at all is a domain error naming it,
    not numpy's bare TypeError."""
    with pytest.raises(DomainError, match=field):
        call()


@pytest.mark.parametrize("field, value", [("rel_tolerance", "x"), ("backoff_factor", None)])
def test_non_numeric_config_real_raises_domain_error(field, value):
    """A bounded real that is not a number is a domain error naming it,
    not the bare TypeError of comparing it with a float."""
    with pytest.raises(DomainError, match=field):
        SelectorConfig(**{field: value})


def test_trace_records_are_frozen():
    rec = IterationRecord(h=0.1, raw_roughness=1.0, corrected_roughness=0.9, backoff_applied=False)
    trace = BandwidthTrace(iterations=(rec,), converged=True, final_h=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.h = 0.2
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.final_h = 0.2
    with pytest.raises(dataclasses.FrozenInstanceError):
        SelectorConfig().rel_tolerance = 0.5


def test_roughness_3d_reference_constant():
    """Anchor the 3D gaussian roughness used in the frozen optima."""
    assert_allclose(gaussian_3d().roughness(), R3_GAUSS, rtol=1e-15)


# ---------------------------------------------------------------------------
# one dimension-generic pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixed_columns",
    [{2: 0.0}, {1: 5.0, 2: -1.0}],
    ids=["planar", "line"],
)
def test_degenerate_3d_geometry_rejected(fixed_columns):
    """A 3D sample with zero spread along one axis has no finite optimal
    bandwidth, even though the mean per-axis spread is positive."""
    points = np.random.default_rng(0).standard_normal((100_000, 3))
    for axis, value in fixed_columns.items():
        points[:, axis] = value
    with pytest.raises(DegenerateSample):
        select_bandwidth(Sample(points), kernel_constants("tsc3", 3))


_S3 = Sample(np.random.default_rng(0).standard_normal((100, 3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: kdeband.select_bandwidth_3d(_S3, kernel_constants("tsc", 1)),
        lambda: kdeband.estimate_density_3d(_S3, kernel_constants("tsc", 1), 0.5, np.zeros(3)),
        lambda: kdeband.optimal_bandwidth_1d(R1_GAUSS, kernel_constants("tsc3", 3), 1000),
        lambda: kdeband.select_bandwidth_1d(_S3, kernel_constants("tsc", 1)),
    ],
    ids=["select_3d-kernel_1d", "estimate_3d-kernel_1d", "optimal_1d-kernel_3d",
         "select_1d-sample_3d"],
)
def test_dimension_mismatch_names_both_dimensions(call):
    with pytest.raises(DomainError, match=r"1-D.*3-D|3-D.*1-D"):
        call()


def _golden_sample(law, Np, seed):
    if law == "gauss3d":
        return sample_gaussian_3d(Np, seed)
    if law == "hernquist":
        return sample_hernquist_radii(Np, HernquistParams(), seed)
    if law == "trimodal":
        return sample_trimodal(Np, seed)
    return sample_gaussian_1d(Np, seed)


# Recorded before the 1D and 3D code paths were merged into one: float.hex
# of final_h, the record count, and the last record's raw and corrected
# roughness.  Merging must not move a single bit.
GOLDEN = [
    ("gauss1d", 10_000, 1, "ngp", "0x1.3ad95779d5af8p-1", 3,
     "0x1.5e0c62cb45636p-3", "0x1.50130d6380014p-3"),
    ("gauss1d", 10_000, 1, "cic", "0x1.b4f9ffdc734cdp-2", 4,
     "0x1.87139af410b4fp-3", "0x1.5ba8d75d9d9b7p-3"),
    ("gauss1d", 10_000, 1, "tsc", "0x1.68c4c00755944p-2", 4,
     "0x1.98165b1821f0bp-3", "0x1.4ca09db7374abp-3"),
    ("trimodal", 100_000, 2, "tsc", "0x1.58f4243a262c7p-3", 5,
     "0x1.98630e69a03dep-1", "0x1.4cda342975784p-1"),
    ("hernquist", 100_000, 3, "tsc", "0x1.794465edd5ce3p-4", 9,
     "0x1.05910fd02550cp+4", "0x1.aa9654a1d545ep+3"),
    ("gauss3d", 10_000, 1, "ngp3", "0x1.4609c801cb6d3p+0", 6,
     "0x1.60176d38bd215p-5", "0x1.59c2d0254cbb9p-5"),
    ("gauss3d", 10_000, 1, "tsc3", "0x1.1c26db458edaap-1", 4,
     "0x1.6192c42c3ce91p-4", "0x1.3a4883f1dafb0p-4"),
]


@pytest.mark.parametrize("law, Np, seed, family, final_h, n_records, raw, corrected", GOLDEN)
def test_selection_matches_recorded_bits(law, Np, seed, family, final_h, n_records, raw,
                                         corrected):
    sample = _golden_sample(law, Np, seed)
    if law == "gauss3d":
        trace = select_bandwidth(sample, kernel_constants(family, 3))
    else:
        trace = select_bandwidth(sample, kernel_constants(family, 1))
    assert trace.converged
    assert trace.final_h.hex() == final_h
    assert len(trace.iterations) == n_records
    assert trace.iterations[-1].raw_roughness.hex() == raw
    assert trace.iterations[-1].corrected_roughness.hex() == corrected


def test_selection_keeps_recorded_bits_in_small_chunks(monkeypatch):
    """A 1e5-point selection whose deposits take 3000 points at a time
    keeps the recorded bits."""
    monkeypatch.setattr(kdeband.estimator, "_POINT_CHUNK", 3000)
    test_selection_matches_recorded_bits(*GOLDEN[3])


# The ten dimension-named names the benchmark in perfbench/ resolves on
# the package, each with its generic function and its d.  They go, with
# the test below, once the benchmark calls the generic names.
_FIXED_DIM = [
    ("kernel_constants_1d", "kernel_constants", 1),
    ("kernel_constants_3d", "kernel_constants", 3),
    ("build_grid_1d", "build_grid", 1),
    ("build_grid_3d", "build_grid", 3),
    ("corrected_roughness_1d", "corrected_roughness", 1),
    ("optimal_bandwidth_1d", "optimal_bandwidth", 1),
    ("select_bandwidth_1d", "select_bandwidth", 1),
    ("select_bandwidth_3d", "select_bandwidth", 3),
    ("estimate_density_1d", "estimate_density", 1),
    ("estimate_density_3d", "estimate_density", 3),
]


def _bits(result):
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, kdeband.Grid):
        return result.values.tobytes(), np.asarray(result.origin).tobytes(), result.spacing
    return result


@pytest.mark.parametrize("name, generic, d", _FIXED_DIM)
def test_dimension_named_function_is_the_generic_one(name, generic, d):
    """Each name resolves on the package but is not public, and gives the
    generic function's bits on a small d-dimensional input.  The eight that
    take a kernel raise DomainError naming both dimensions for a kernel of
    the other d; kernel_constants_1d rejects a 3D family."""
    assert name not in kdeband.__all__
    fixed, fn = getattr(kdeband, name), getattr(kdeband, generic)
    if generic == "kernel_constants":
        assert fixed("TSC") == fn("tsc", d) and fixed("TSC").dim == d
        if d == 1:
            with pytest.raises(DomainError, match="for d = 1"):
                fixed("tsc3")
        return
    other = 4 - d  # 1 <-> 3
    kernel, wrong = kernel_constants("tsc", d), kernel_constants("tsc", other)
    points = np.random.default_rng(5).standard_normal(500 if d == 1 else (500, d))
    first = 3.0 if generic == "optimal_bandwidth" else Sample(points)
    rest = {"build_grid": (0.5,), "corrected_roughness": (0.5,), "optimal_bandwidth": (500,),
            "select_bandwidth": (), "estimate_density": (0.5, points[:50])}[generic]
    assert _bits(fixed(first, kernel, *rest)) == _bits(fn(first, kernel, *rest))
    with pytest.raises(DomainError, match=rf"expected {d}-D, kernel is {other}-D"):
        fixed(first, wrong, *rest)


def test_dimension_named_public_names_are_pinned():
    """Every public name that carries a dimension, and why it does; a new
    one must be added here with its reason, or made generic instead."""
    allowed = {
        # the grid size caps differ per dimension (nodes vs cells)
        "DEFAULT_GRID_CAP_1D", "DEFAULT_GRID_CAP_3D",
    }
    named = {n for n in kdeband.__all__ if re.search(r"_1d|_3d|1D|3D", n)}
    assert named == allowed


def test_package_namespace_is_the_method():
    """kdeband.__all__ holds the method alone: the errors, the kernels,
    Sample and Grid, the deposit, stencil and quadrature, the roughness,
    the selector and estimate_density.  The validation studies are the
    submodules kdeband.samplers and kdeband.reference."""
    assert sorted(kdeband.__all__) == sorted([
        "__version__",
        "KdebandError", "NonPositiveBandwidth", "NonPositiveRoughness", "GridTooLarge",
        "GridTooSmall", "DegenerateSample", "BackoffExhausted", "DomainError",
        "Kernel", "kernel_constants", "eval_kernel", "KERNEL_FAMILIES",
        "Sample", "Grid", "build_grid", "laplacian", "integrate_squared",
        "DEFAULT_GRID_CAP_1D", "DEFAULT_GRID_CAP_3D", "estimate_density",
        "RoughnessResult", "corrected_roughness",
        "SelectorConfig", "IterationRecord", "BandwidthTrace", "optimal_bandwidth", "amise",
        "select_bandwidth",
    ])
    assert not set(kdeband.__all__) & set(kdeband.samplers.__all__ + kdeband.reference.__all__)



# ---------------------------------------------------------------------------
# seeded properties
# ---------------------------------------------------------------------------

def _property_case(d):
    """A seeded Gaussian sample and the TSC kernel in d dimensions."""
    if d == 1:
        return sample_gaussian_1d(10_000, seed=61).points, kernel_constants("tsc", 1)
    return sample_gaussian_3d(5_000, seed=61).points, kernel_constants("tsc", 3)


@pytest.mark.parametrize("d", [1, 3])
def test_select_invariant_under_permutation(d):
    """Reordering the sample moves the selection by rounding alone: the
    deposit adds the same weights in another order."""
    points, kernel = _property_case(d)
    base = kdeband.select_bandwidth(kdeband.Sample(points), kernel)
    for seed in (1, 2):
        order = np.random.default_rng(seed).permutation(points.shape[0])
        trace = kdeband.select_bandwidth(kdeband.Sample(points[order]), kernel)
        assert len(trace.iterations) == len(base.iterations)
        assert_allclose(trace.final_h, base.final_h, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("k", [-7, -3, 1, 5, 20])
def test_select_equivariant_under_power_of_two_scaling(d, k):
    """x -> 2^k x scales the selected bandwidth by 2^k.  The start, grid,
    stencil and quadrature scale exactly, but the plug-in's 1/(4+d) power
    rounds, so the bandwidths agree to rounding, not bit for bit."""
    points, kernel = _property_case(d)
    base = kdeband.select_bandwidth(kdeband.Sample(points), kernel)
    scaled = kdeband.select_bandwidth(kdeband.Sample(2.0 ** k * points), kernel)
    assert len(scaled.iterations) == len(base.iterations)
    assert_allclose(scaled.final_h, 2.0 ** k * base.final_h, rtol=1e-13, atol=0.0)


# Decades far enough out that the selection over- or underflows, and
# decades it survives; 10^32 in 3D survives all but the squared Laplacian,
# part of which falls below the smallest normal float.
EXTREME_SCALE_EXPONENTS = [-300, -200, -100, -40, -30, 30, 32, 40, 100, 200, 300]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 3])
def test_select_at_extreme_scales_converges_or_raises_named_error(d):
    """x -> 10^e x either scales the selected bandwidth by 10^e, to
    rounding, or raises DomainError naming the scale; never a numpy or
    Python arithmetic error, a floating-point warning, or a bandwidth that
    over- or underflow has spoiled."""
    points, kernel = _property_case(d)
    base = kdeband.select_bandwidth(kdeband.Sample(points), kernel).final_h
    for e in EXTREME_SCALE_EXPONENTS:
        scale = 10.0 ** e
        try:
            trace = kdeband.select_bandwidth(kdeband.Sample(scale * points), kernel)
        except DomainError as err:
            assert "scale is out of range" in str(err)
            continue
        assert trace.converged
        assert_allclose(trace.final_h / scale, base, rtol=1e-13, atol=0.0)


# 2^k scalings that the grid deposit and direct evaluation take in every
# d, and the scalings near 1e102, 1e140, 1e-140, 1e-160 and 1e155 that take
# the squared radii or the normalisation of some d out of normal floats.
GRID_SCALE_EXPONENTS_IN_RANGE = [-300, -100, -1, 1, 100, 300]
GRID_SCALE_EXPONENTS = GRID_SCALE_EXPONENTS_IN_RANGE + [340, 465, -465, -530, 515]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_grid_and_direct_evaluation_at_power_of_two_scales_are_exact_or_raise(family, d):
    """x -> 2^k x and h -> 2^k h divide the deposit grid and the direct
    estimate by 2^(kd) bit for bit, or raise DomainError naming the scale;
    never a floating-point warning, a bare arithmetic error, or a zero or
    non-finite value.  h = 3/8 has an exact cube, so the normalisation
    Np h^d is exact at every scale: the C library's pow behind h ** d
    (glibc 2.36, say) is not correctly rounded for about one argument in a
    thousand."""
    rng = np.random.default_rng(67)
    points = rng.standard_normal(2_000 if d == 1 else (2_000, 3))
    queries = rng.standard_normal(50 if d == 1 else (50, 3))
    kernel = kdeband.kernel_constants(family, d)
    estimate = kdeband.estimate_density
    h = 0.375
    grid = kdeband.build_grid(Sample(points), kernel, h)
    direct = estimate(Sample(points), kernel, h, queries)
    for k in GRID_SCALE_EXPONENTS:
        scale = 2.0 ** k
        sample = Sample(scale * points)
        for compute, expected in (
            (lambda: kdeband.build_grid(sample, kernel, scale * h), grid),
            (lambda: estimate(sample, kernel, scale * h, scale * queries), direct),
        ):
            try:
                got = compute()
            except DomainError as err:
                assert "scale is out of range" in str(err)
                assert k not in GRID_SCALE_EXPONENTS_IN_RANGE
                continue
            if isinstance(got, kdeband.Grid):
                assert np.array_equal(got.origin, scale * expected.origin)
                got, expected = got.values, expected.values
            assert np.array_equal(got, expected * 2.0 ** (-k * d))


def test_select_past_the_lattice_domain_raises():
    """A sample 1e12 from zero with spread 1e-3 needs h near 5e-4, where
    the grid's nodes lie 2^51 h from zero and round by whole nodes: the
    selection raises DomainError on its first deposit, where it once ran
    100 updates to an unconverged h = 5.27e-4."""
    points = 1e12 + 1e-3 * np.random.default_rng(0).standard_normal(1000)
    with pytest.raises(DomainError, match="offset is out of range"):
        kdeband.select_bandwidth(kdeband.Sample(points), kernel_constants("tsc", 1))


HOSTILE_LAWS = {
    "cauchy": lambda rng, shape: rng.standard_cauchy(shape),
    "lognormal": lambda rng, shape: rng.lognormal(0.0, 1.0, shape),
    "rounded-normal": lambda rng, shape: np.round(rng.normal(0.0, 1.0, shape), 1),
    "three-valued": lambda rng, shape: rng.integers(0, 3, shape).astype(float),
}


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("law", sorted(HOSTILE_LAWS))
def test_hostile_samples_converge_or_raise_named_error(law, d):
    """Heavy tails, skew, ties and a 3-valued sample end in a converged
    selection or in a KdebandError subclass that names the cause, never in
    a numpy exception or an unconverged trace."""
    kernel = kernel_constants("tsc", 1) if d == 1 else kernel_constants("tsc", 3)
    shape = 20_000 if d == 1 else (5_000, 3)
    for seed in range(3):
        points = HOSTILE_LAWS[law](np.random.default_rng(seed), shape)
        try:
            # The default 3D cap lets a shrinking h allocate about 1 GB
            # before GridTooLarge; 4e6 nodes ends each case the same way.
            trace = kdeband.select_bandwidth(
                kdeband.Sample(points), kernel, grid_cap=4_000_000
            )
        except kdeband.KdebandError as err:
            assert type(err) is not kdeband.KdebandError
            continue
        assert trace.converged
        assert np.isfinite(trace.final_h) and trace.final_h > 0.0
