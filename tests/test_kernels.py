"""Kernel shapes and constants against independent quadrature oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from kdeband import (
    DomainError,
    Kernel,
    eval_kernel,
    kernel_constants,
)
from kdeband.kernels import profile_branches, radial_profile

FAMILIES = ("ngp", "cic", "tsc")

# Exact constants, derived by hand from the piecewise shapes and frozen
# here as the oracle (each is an elementary polynomial integral).
EXPECTED_1D = {
    "ngp": (1, 1.0, 1.0 / 12.0),
    "cic": (2, 2.0 / 3.0, 1.0 / 6.0),
    "tsc": (3, 11.0 / 20.0, 1.0 / 4.0),
}
EXPECTED_3D = {
    "ngp": (1, 6.0 / np.pi, 6.0 / np.pi, 1.0 / 20.0),
    "cic": (2, 3.0 / np.pi, 6.0 / (5.0 * np.pi), 2.0 / 15.0),
    "tsc": (3, 2.0 / np.pi, 43.0 / (70.0 * np.pi), 13.0 / 60.0),
}


# ---------------------------------------------------------------------------
# 1D constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_constants_1d_exact(family):
    """Stored descriptors carry the exact rational constants."""
    k = kernel_constants(family, 1)
    w, rk, mu2 = EXPECTED_1D[family]
    assert k.family == family
    assert k.width_w == w
    assert k.roughness_RK == rk
    assert k.second_moment_mu2 == mu2


@pytest.mark.parametrize("family", FAMILIES)
def test_constants_1d_match_quadrature(family):
    """R(K) and mu2 agree with adaptive quadrature of the evaluation."""
    k = kernel_constants(family, 1)
    half = k.width_w / 2.0
    breaks = [b for b in (-1.0, -0.5, 0.5, 1.0) if abs(b) < half]
    rk, _ = quad(lambda u: eval_kernel(k, u) ** 2, -half, half, points=breaks)
    mu2, _ = quad(lambda u: u * u * eval_kernel(k, u), -half, half, points=breaks)
    assert_allclose(rk, k.roughness_RK, rtol=1e-10)
    assert_allclose(mu2, k.second_moment_mu2, rtol=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_unit_integral_1d(family):
    """Midpoint rule with 1e6 nodes over the support integrates to 1."""
    k = kernel_constants(family, 1)
    half = k.width_w / 2.0
    n = 1_000_000
    step = (2.0 * half) / n
    mid = -half + (np.arange(n) + 0.5) * step
    total = eval_kernel(k, mid).sum() * step
    assert_allclose(total, 1.0, rtol=1e-8)


# ---------------------------------------------------------------------------
# 1D evaluation
# ---------------------------------------------------------------------------

def test_eval_1d_examples():
    """Spot values of each piecewise branch."""
    tsc = kernel_constants("tsc", 1)
    ngp = kernel_constants("ngp", 1)
    cic = kernel_constants("cic", 1)
    assert eval_kernel(tsc, 0.0) == 0.75
    assert eval_kernel(ngp, 0.7) == 0.0
    assert eval_kernel(tsc, 1.0) == 0.125
    assert eval_kernel(cic, -0.25) == 0.75


def test_closed_boundaries():
    """Branch boundaries are closed: the first listed branch wins."""
    ngp = kernel_constants("ngp", 1)
    assert eval_kernel(ngp, 0.5) == 1.0
    assert eval_kernel(ngp, -0.5) == 1.0
    assert eval_kernel(ngp, np.nextafter(0.5, 1.0)) == 0.0
    cic = kernel_constants("cic", 1)
    assert eval_kernel(cic, 1.0) == 0.0
    assert eval_kernel(cic, np.nextafter(1.0, 2.0)) == 0.0


def test_tsc_branches_join():
    """The TSC parabola pieces agree at their shared boundaries."""
    tsc = kernel_constants("tsc", 1)
    # both branch formulas give the same value at |u| = 1/2 and 3/2
    assert eval_kernel(tsc, 0.5) == 0.5
    assert abs(0.5 * (1.5 - 0.5) ** 2 - (0.75 - 0.5 ** 2)) < 1e-15
    assert eval_kernel(tsc, 1.5) == 0.0
    for u0 in (0.5, 1.5):
        lo = eval_kernel(tsc, u0 - 1e-9)
        hi = eval_kernel(tsc, u0 + 1e-9)
        assert abs(lo - hi) < 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_symmetry_bit_exact(family):
    """K(u) == K(-u) exactly for 1e4 random offsets."""
    k = kernel_constants(family, 1)
    rng = np.random.default_rng(42)
    u = rng.uniform(-2.0, 2.0, 10_000)
    assert np.array_equal(eval_kernel(k, u), eval_kernel(k, -u))


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_outside_support(family):
    """K vanishes beyond |u| = w/2 and is non-negative inside."""
    k = kernel_constants(family, 1)
    half = k.width_w / 2.0
    rng = np.random.default_rng(7)
    inside = rng.uniform(-half, half, 1000)
    outside = np.concatenate([rng.uniform(half, 3 * half, 500) + 1e-12,
                              -rng.uniform(half, 3 * half, 500) - 1e-12])
    assert np.all(eval_kernel(k, inside) >= 0.0)
    assert np.all(eval_kernel(k, outside) == 0.0)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_bounded_radial_profile_is_bit_equal(family, dim):
    """Given bounds on r, the profile computes one branch (or zeros past
    the support) where the bounds allow it, and every value keeps the bits
    of the full selection over the branches: at the breakpoints 0.5, 1.0
    and 1.5 themselves, beside them, and for bounds that straddle one."""
    k = kernel_constants(family, 1) if dim == 1 else kernel_constants(family, 3)
    marks = np.array([0.0, 0.5, 1.0, 1.5])
    rng = np.random.default_rng(31)
    r = np.sort(np.concatenate([
        rng.uniform(0.0, 2.0, 2000), marks,
        np.nextafter(marks, 2.0), np.nextafter(marks[1:], 0.0),
    ]))
    full = radial_profile(k, r)
    after = {m: float(np.nextafter(m, 2.0)) for m in (0.5, 1.0, 1.5)}
    windows = [
        (0.0, 0.5), (after[0.5], 1.0), (after[1.0], 1.5), (after[1.5], 2.0),
        (0.0, 1.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0),
        (0.4, 0.6), (0.9, 1.1), (1.4, 1.6), (0.0, 2.0),
        (0.5, 0.5), (1.0, 1.0), (1.5, 1.5),
        # lo inside the last branch, hi past its top
        (0.2, 1.2), (0.6, 1.7), (after[0.5], 2.0), (1.2, 1.8),
    ]
    for lo, hi in windows:
        inside = (r >= lo) & (r <= hi)
        for bounds in ((lo, hi), (r[inside].min(), r[inside].max())):
            got = radial_profile(k, r[inside], bounds)
            assert got.dtype == full.dtype
            assert got.tobytes() == full[inside].tobytes(), (lo, hi, bounds)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_radial_profile_clamps_only_where_shape_ends_at_zero(family, dim, monkeypatch):
    """Bounds from inside the last branch to past its top compute that
    branch on min(r, top), without the selection over all branches, where
    W is zero at its last top (CIC, TSC).  NGP ends at full height, so it
    keeps the selection.  The bits are the selection's either way."""
    k = kernel_constants(family, 1) if dim == 1 else kernel_constants(family, 3)
    top = profile_branches(k)[-1][0]
    r = np.sort(np.concatenate([
        np.linspace(top - 0.25, top + 0.5, 301), [top, np.nextafter(top, 2.0)],
    ]))
    full = radial_profile(k, r)
    selects = []
    select = np.select
    monkeypatch.setattr(np, "select", lambda *a, **kw: selects.append(1) or select(*a, **kw))
    got = radial_profile(k, r, (r[0], r[-1]))
    assert got.tobytes() == full.tobytes()
    assert bool(selects) == (family == "ngp")


# ---------------------------------------------------------------------------
# 3D constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_constants_3d_exact(family):
    """Stored 3D descriptors carry the exact constants."""
    k = kernel_constants(family, 3)
    w, norm, rk3, mu2 = EXPECTED_3D[family]
    assert k.family == family + "3"
    assert k.width_w == w
    assert_allclose(k.normalization, norm, rtol=1e-15)
    assert_allclose(k.roughness_RK, rk3, rtol=1e-15)
    assert_allclose(k.second_moment_mu2, mu2, rtol=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_constants_3d_match_quadrature(family):
    """Radial quadrature reproduces normalization, R(K3) and mu2.

    With K3(x) = A W(|x|): the unit integral is 4 pi A int r^2 W dr,
    R(K3) = 4 pi A^2 int r^2 W^2 dr, and the per-axis second moment is
    (1/3) 4 pi A int r^4 W dr by isotropy.
    """
    k = kernel_constants(family, 3)
    half = k.width_w / 2.0
    a = k.normalization

    breaks = [b for b in (0.5, 1.0) if b < half]

    def radial(f):
        val, _ = quad(f, 0.0, half, points=breaks)
        return 4.0 * np.pi * val

    unit = radial(lambda r: r * r * a * _shape(k, r))
    rk3 = radial(lambda r: r * r * (a * _shape(k, r)) ** 2)
    mu2 = radial(lambda r: r ** 4 * a * _shape(k, r)) / 3.0
    assert_allclose(unit, 1.0, rtol=1e-10)
    assert_allclose(rk3, k.roughness_RK, rtol=1e-10)
    assert_allclose(mu2, k.second_moment_mu2, rtol=1e-10)


def _shape(kernel3, r):
    """Dimensionless profile W(r) recovered from the normalised kernel."""
    return radial_profile(kernel3, r) / kernel3.normalization


# ---------------------------------------------------------------------------
# 3D evaluation
# ---------------------------------------------------------------------------

def test_eval_3d_examples():
    """Values at the origin and outside the support."""
    ngp3 = kernel_constants("ngp", 3)
    tsc3 = kernel_constants("tsc", 3)
    cic3 = kernel_constants("cic", 3)
    assert_allclose(eval_kernel(ngp3, np.zeros(3)), 6.0 / np.pi, rtol=1e-15)
    assert_allclose(eval_kernel(tsc3, np.zeros(3)), 3.0 / (2.0 * np.pi), rtol=1e-15)
    assert eval_kernel(cic3, np.array([1.5, 0.0, 0.0])) == 0.0
    assert eval_kernel(cic3, np.array([0.9, 0.9, 0.9])) == 0.0


def test_eval_3d_vectorized_rows():
    """(M, 3) input evaluates each row; matches single-vector calls."""
    k = kernel_constants("tsc", 3)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, (50, 3))
    batch = eval_kernel(k, pts)
    single = np.array([eval_kernel(k, p) for p in pts])
    assert np.array_equal(batch, single)


def test_eval_3d_radial_reduction():
    """The value depends only on |x|: sign flips are bit-exact, and any
    equal-norm pair agrees to machine precision."""
    k = kernel_constants("cic", 3)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (200, 3))
    flipped = pts * np.array([-1.0, 1.0, -1.0])
    assert np.array_equal(eval_kernel(k, pts), eval_kernel(k, flipped))
    r = 0.6
    a = eval_kernel(k, np.array([r, 0.0, 0.0]))
    b = eval_kernel(k, np.array([0.0, r, 0.0]))
    c = eval_kernel(k, np.array([r / np.sqrt(3.0)] * 3))
    assert a == b
    assert_allclose(c, a, rtol=1e-14)


def test_eval_3d_radial_matches_vector_form():
    """radial_profile(r) equals eval_kernel at (r, 0, 0)."""
    for family in FAMILIES:
        k = kernel_constants(family, 3)
        rs = np.linspace(0.0, 2.0, 41)
        radial = radial_profile(k, rs)
        vecs = np.column_stack([rs, np.zeros_like(rs), np.zeros_like(rs)])
        assert np.array_equal(radial, eval_kernel(k, vecs))


def test_eval_3d_rejects_bad_shape():
    k = kernel_constants("tsc", 3)
    with pytest.raises(DomainError):
        eval_kernel(k, np.zeros((4, 2)))


def test_eval_kernel_rejects_a_hand_built_unknown_family():
    boxcar = Kernel("boxcar", 1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="unknown kernel family 'boxcar'"):
        eval_kernel(boxcar, 0.3)


def test_eval_kernel_result_shapes():
    """A 1D kernel maps any shape elementwise and a scalar to a float; a 3D
    kernel maps a 3-vector to a float and an (M, 3) array to M values, and
    rejects every other shape."""
    k, k3 = kernel_constants("tsc", 1), kernel_constants("tsc", 3)
    for x in (np.zeros(2), np.zeros((2, 3, 3)), 0.5):
        with pytest.raises(DomainError):
            eval_kernel(k3, x)
    assert type(eval_kernel(k, 0.25)) is float
    assert eval_kernel(k, np.zeros((2, 3))).shape == (2, 3)
    assert type(eval_kernel(k3, [0.25, 0.0, 0.0])) is float
    assert eval_kernel(k3, np.zeros((5, 3))).shape == (5,)
    assert eval_kernel(k3, np.zeros((0, 3))).shape == (0,)


def _edge_offsets(top):
    """Offsets that make radii huge, subnormal, signed zero and a support
    edge top exactly or one ulp either side, each with both signs."""
    edges = [np.nextafter(top, 0.0), top, np.nextafter(top, np.inf)]
    magnitudes = [1e200, 1e308, 5e-324, 0.0, 0.2] + edges
    return np.array([m * sign for m in magnitudes for sign in (1.0, -1.0)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_eval_kernel_never_warns_and_keeps_profile_bits(family, dim):
    """At offsets of +-1e200, +-1e308, +-5e-324, -0.0 and support edges
    +-1 ulp, in 1D and as 3D vectors and rows, eval_kernel warns of no
    overflow in a branch it discards: it reads 0 beyond the support and,
    elsewhere, the bits of radial_profile at the radius."""
    k = kernel_constants(family, 1) if dim == 1 else kernel_constants(family, 3)
    half = 0.5 * k.width_w
    u = _edge_offsets(half)
    if dim == 1:
        got, r = eval_kernel(k, u), np.abs(u)
        assert [eval_kernel(k, x) for x in u] == got.tolist()
    else:
        rows = np.zeros((u.size * 3, 3))
        for axis in range(3):
            rows[axis * u.size:(axis + 1) * u.size, axis] = u
        got, r = eval_kernel(k, rows), np.abs(rows).max(axis=1)
        assert [eval_kernel(k, row) for row in rows] == got.tolist()
        # squares that overflow, and a norm past the largest float
        huge = np.array([[1e200, 1e200, 1e200], [-1.7e308, 1.7e308, 0.0]])
        assert eval_kernel(k, huge).tolist() == [0.0, 0.0]
    inside = r <= half
    assert not np.any(got[~inside])
    assert got[inside].tobytes() == radial_profile(k, r[inside]).tobytes()


# ---------------------------------------------------------------------------
# token handling
# ---------------------------------------------------------------------------

def test_tokens_case_insensitive():
    assert kernel_constants("TSC", 1) is kernel_constants("tsc", 1)
    assert kernel_constants("NGP", 3) is kernel_constants("ngp", 3)
    assert kernel_constants("cic3", 3) is kernel_constants("cic", 3)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        kernel_constants("gaussian", 1)
    with pytest.raises(DomainError):
        kernel_constants("box", 3)
