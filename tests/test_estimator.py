"""Density evaluation, grid deposit, stencils, and quadrature."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kdeband import (
    DomainError,
    Sample,
    build_grid,
    kernel_constants,
    Grid1D,
    Grid3D,
    GridTooLarge,
    GridTooSmall,
    NonPositiveBandwidth,
    Sample1D,
    Sample3D,
    build_grid_1d,
    build_grid_3d,
    estimate_density_1d,
    estimate_density_3d,
    eval_kernel_1d,
    eval_kernel_3d,
    integrate_squared_1d,
    integrate_squared_3d,
    kernel_constants_1d,
    kernel_constants_3d,
    laplacian_grid,
    second_derivative_grid,
)

TSC = kernel_constants_1d("tsc")
NGP = kernel_constants_1d("ngp")
TSC3 = kernel_constants_3d("tsc")
NGP3 = kernel_constants_3d("ngp")


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------

def test_estimate_1d_examples():
    """Single-point sums reduce to scaled kernel values."""
    s = Sample1D(np.array([0.0]))
    assert estimate_density_1d(s, TSC, 1.0, [0.0])[0] == 0.75
    assert estimate_density_1d(s, TSC, 2.0, [0.0])[0] == 0.375
    # both points sit exactly on the closed NGP support boundary
    s2 = Sample1D(np.array([-0.5, 0.5]))
    assert estimate_density_1d(s2, NGP, 1.0, [0.0])[0] == 1.0


def test_estimate_3d_examples():
    """Single-point 3D sums and the finite-support zero."""
    s = Sample3D(np.zeros((1, 3)))
    assert_allclose(
        estimate_density_3d(s, TSC3, 1.0, np.zeros(3)), 3.0 / (2.0 * np.pi),
        rtol=1e-15,
    )
    assert_allclose(
        estimate_density_3d(s, NGP3, 2.0, np.zeros(3)), 3.0 / (4.0 * np.pi),
        rtol=1e-15,
    )
    far = np.array([[10.0, 0.0, 0.0], [0.0, -9.0, 3.0]])
    assert np.all(estimate_density_3d(s, TSC3, 1.0, far) == 0.0)


def test_estimate_1d_matches_direct_sum():
    """The windowed evaluation equals the naive sum over all points."""
    rng = np.random.default_rng(5)
    s = Sample1D(rng.normal(0.0, 1.0, 150))
    queries = rng.uniform(-3.0, 3.0, 40)
    h = 0.37
    got = estimate_density_1d(s, TSC, h, queries)
    naive = np.array(
        [np.sum(eval_kernel_1d(TSC, (q - s.points) / h)) for q in queries]
    ) / (s.size_Np * h)
    assert_allclose(got, naive, rtol=1e-12)


def test_estimate_3d_matches_brute_force():
    """Cell-list evaluation equals the naive double loop at Np <= 200."""
    rng = np.random.default_rng(9)
    s = Sample3D(rng.normal(0.0, 1.0, (200, 3)))
    queries = rng.uniform(-2.0, 2.0, (50, 3))
    h = 0.8
    got = estimate_density_3d(s, TSC3, h, queries)
    naive = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        naive[i] = np.sum(eval_kernel_3d(TSC3, (q - s.points) / h))
    naive /= s.size_Np * h ** 3
    assert_allclose(got, naive, rtol=1e-12, atol=1e-300)


def _brute_3d(s, kernel, h, queries):
    """The naive double loop over queries and points."""
    naive = np.array(
        [np.sum(eval_kernel_3d(kernel, (q - s.points) / h)) for q in queries]
    )
    return naive / (s.size_Np * h ** 3)


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_estimate_3d_edge_cases_match_brute_force(family):
    """Queries outside the bounding box and in empty cells, a point at
    exactly the support radius, far outliers at a tiny h, and a 1-point
    sample: the cell list equals the naive sum."""
    kernel = kernel_constants_3d(family)
    rng = np.random.default_rng(37)
    h = 0.5
    radius = 0.5 * kernel.width_w * h
    # two clusters with an empty slab between them
    pts = np.concatenate([rng.uniform(-2.0, -1.0, (80, 3)), rng.uniform(1.0, 2.0, (80, 3))])
    box = [-2.0 - radius, 2.0 + radius]
    outside = []
    for a in range(3):
        for side in box:
            q = np.zeros(3)
            q[a] = side + (0.1 if side > 0 else -0.1) * h
            outside.append(q)
            q = rng.uniform(-1.5, 1.5, 3)
            q[a] = side + (-0.4 if side > 0 else 0.4) * radius
            outside.append(q)
    gap = np.column_stack([rng.uniform(-0.2, 0.2, 10), rng.uniform(-1.5, 1.5, (10, 2))])
    on_edge = np.array([[0.0, 3.0, 0.0], [0.5, -3.0, 0.25]])
    pts = np.concatenate([pts, on_edge + [radius, 0.0, 0.0], on_edge - [0.0, 0.0, radius]])
    s = Sample3D(pts)
    queries = np.concatenate([outside, gap, on_edge, rng.uniform(-2.5, 2.5, (30, 3))])
    got = estimate_density_3d(s, kernel, h, queries)
    assert_allclose(got, _brute_3d(s, kernel, h, queries), rtol=1e-12, atol=1e-300)
    assert np.all(got[len(outside):len(outside) + len(gap)] == 0.0)
    if family == "ngp":
        # each on_edge query's only neighbours are its two points at
        # exactly R, on the closed branch of the top-hat
        assert_allclose(got[-32:-30], 2 * kernel.normalization / (s.size_Np * h ** 3), rtol=1e-15)

    # outliers at +-3e6 with h = 1e-3: about 4e9 cells per axis
    core = rng.normal(0.0, 2e-3, (200, 3))
    far = np.array([[3e6, -3e6, 3e6], [-3e6, 3e6, -3e6]])
    wide = Sample3D(np.concatenate([core, far, far + 2e-4]))
    q = np.concatenate([rng.normal(0.0, 2e-3, (20, 3)), far + 1e-4, far - 1e-2])
    got = estimate_density_3d(wide, kernel, 1e-3, q)
    assert_allclose(got, _brute_3d(wide, kernel, 1e-3, q), rtol=1e-12, atol=1e-300)
    assert np.all(got[20:22] > 0.0)

    one = Sample3D(np.array([[0.3, -0.2, 0.1]]))
    q = np.concatenate([rng.uniform(-1.0, 1.0, (20, 3)), [[0.3 + radius, -0.2, 0.1]]])
    assert_allclose(
        estimate_density_3d(one, kernel, h, q), _brute_3d(one, kernel, h, q),
        rtol=1e-12, atol=1e-300,
    )
    empty = estimate_density_3d(s, kernel, h, np.zeros((0, 3)))
    assert empty.shape == (0,) and empty.dtype == float


def test_non_finite_queries_rejected():
    """A NaN or infinite query point raises, as a non-finite sample point does."""
    s = Sample1D(np.array([0.0, 1.0]))
    s3 = Sample3D(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            estimate_density_1d(s, TSC, 0.5, [bad, 0.0])
        with pytest.raises(DomainError, match="finite"):
            estimate_density_3d(s3, TSC3, 0.5, [[0.0, bad, 0.0], [0.0, 0.0, 0.0]])


def test_estimates_non_negative_and_finite():
    rng = np.random.default_rng(17)
    s = Sample1D(rng.normal(0.0, 2.0, 500))
    vals = estimate_density_1d(s, TSC, 0.4, np.linspace(-8, 8, 200))
    assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))


# ---------------------------------------------------------------------------
# grid deposit: 1D
# ---------------------------------------------------------------------------

def test_grid_1d_coverage_and_lattice():
    """Padding rule, exact spacing, and absolute-lattice snapping."""
    s = Sample1D(np.array([0.0, 0.3, 1.0]))
    h = 0.5
    grid = build_grid_1d(s, TSC, h)
    assert grid.spacing == h
    xs = grid.node_coordinates()
    assert xs[0] <= 0.0 - 1.5 * h and xs[-1] >= 1.0 + 1.5 * h
    # origin is an exact multiple of h
    assert_allclose(grid.origin / h, round(grid.origin / h), atol=1e-12)


def test_grid_1d_matches_estimate_at_nodes():
    """Deposit (bincount) and direct evaluation agree on the nodes."""
    rng = np.random.default_rng(21)
    s = Sample1D(rng.normal(0.0, 1.0, 400))
    for kernel in (NGP, kernel_constants_1d("cic"), TSC):
        grid = build_grid_1d(s, kernel, 0.31)
        direct = estimate_density_1d(s, kernel, 0.31, grid.node_coordinates())
        assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)


def test_grid_1d_mass_conservation():
    """sum(values) * spacing recovers total probability.

    The deposit tabulates every kernel's full support, and the assignment
    shapes form a partition of unity on the lattice, so the node sum is 1
    up to rounding - well inside the documented [0.99, 1.01] check.
    """
    rng = np.random.default_rng(2)
    s = Sample1D(rng.normal(0.0, 1.0, 10_000))
    grid = build_grid_1d(s, TSC, 0.334)
    mass = float(np.sum(grid.values) * grid.spacing)
    assert abs(mass - 1.0) < 1e-9
    assert 0.99 <= mass <= 1.01


def test_grid_1d_too_large():
    s = Sample1D(np.array([0.0, 100.0]))
    with pytest.raises(GridTooLarge):
        build_grid_1d(s, TSC, 0.5, grid_cap=10)


# ---------------------------------------------------------------------------
# grid deposit: 3D
# ---------------------------------------------------------------------------

def test_grid_3d_coverage():
    """Per-axis extents cover [min - wh/2, max + wh/2] with spacing h."""
    rng = np.random.default_rng(31)
    s = Sample3D(rng.uniform(-1.0, 2.0, (60, 3)))
    h = 0.4
    grid = build_grid_3d(s, TSC3, h)
    assert grid.spacing == h
    half = 1.5 * h
    for a in range(3):
        ax = grid.axis_coordinates(a)
        assert ax[0] <= s.min[a] - half and ax[-1] >= s.max[a] + half
        assert_allclose(grid.origin[a] / h, round(grid.origin[a] / h), atol=1e-12)


def test_grid_3d_matches_estimate_at_nodes():
    """Deposit agrees with the cell-list evaluation on every node."""
    rng = np.random.default_rng(13)
    s = Sample3D(rng.normal(0.0, 0.7, (120, 3)))
    h = 0.5
    grid = build_grid_3d(s, TSC3, h)
    axes = [grid.axis_coordinates(a) for a in range(3)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    direct = estimate_density_3d(s, TSC3, h, mesh).reshape(grid.dims)
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)


def test_grid_3d_mass_conservation():
    """Cell-volume-weighted sum of a 1e5-point Gaussian deposit is ~1.

    The radial 3D kernels are not an exact partition of unity, so the
    tabulated mass only approximates 1; the documented window is
    [0.97, 1.03] at near-optimal h.
    """
    rng = np.random.default_rng(4)
    s = Sample3D(rng.normal(0.0, 1.0, (100_000, 3)))
    grid = build_grid_3d(s, TSC3, 0.394)
    mass = float(np.sum(grid.values) * grid.spacing ** 3)
    assert 0.97 <= mass <= 1.03


def test_grid_3d_too_large():
    rng = np.random.default_rng(1)
    s = Sample3D(rng.uniform(0.0, 1.0, (20, 3)))
    with pytest.raises(GridTooLarge, match="cells"):
        build_grid_3d(s, TSC3, 0.01, grid_cap=1000)


# ---------------------------------------------------------------------------
# grid deposit: skipped offsets
# ---------------------------------------------------------------------------

def test_ngp_boundary_point_weights_both_nodes():
    """A point exactly on the closed NGP boundary weights both nodes."""
    g = build_grid_1d(Sample1D([0.5]), NGP, 1.0)
    assert g.origin == 0.0 and g.values.tolist() == [1.0, 1.0]

    g3 = build_grid_3d(Sample3D([[0.5, 0.0, 0.0]]), NGP3, 1.0)
    assert g3.dims == (2, 3, 3)
    assert_allclose(g3.origin, [0.0, -1.0, -1.0])
    expected = np.zeros((2, 3, 3))
    expected[:, 1, 1] = NGP3.normalization
    assert np.array_equal(g3.values, expected)


def _lattice_sample(dim, h):
    """Points on multiples of h/8, many of them on support boundaries."""
    rng = np.random.default_rng(43)
    return Sample(rng.integers(-24, 25, (400 if dim == 1 else 300, dim)) * (h / 8))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_grid_matches_estimate_on_lattice_samples(family, dim):
    """On h/8-lattice samples the deposit equals direct evaluation at the nodes."""
    h = 0.5
    s = _lattice_sample(dim, h)
    kernel = kernel_constants(family, dim)
    grid = build_grid(s, kernel, h)
    axes = [grid.axis_coordinates(a) for a in range(dim)]
    if dim == 1:
        direct = estimate_density_1d(s, kernel, h, axes[0])
    else:
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        direct = estimate_density_3d(s, kernel, h, mesh).reshape(grid.dims)
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)


# sha256 of build_grid(...).values.tobytes() for _lattice_sample(dim, 0.5),
# recorded before the deposit skipped zero-weight offsets.
LATTICE_DEPOSIT_SHA256 = {
    ("ngp", 1): "03c20d61871775110965ebe7c8fcaf8deba6bd11e5b87323c87206b3748cd5bc",
    ("cic", 1): "2deded44b01a0d7bd5aac8e0ecbc3f5ea07b07af271029f7220a6ead854be323",
    ("tsc", 1): "55991f42a44b368725abb055cf3924d64d3a9524fcd40fc068a0953ee4f58793",
    ("ngp", 3): "df09e25bce4f0cc475956df25a8c50ac1bf3926e158f66a52d3b2050bc2ae61b",
    ("cic", 3): "c0d2b702174e8d126690c9c6ae456d6fe4f5e1588941a375a79d18572faf58ee",
    ("tsc", 3): "7e4f3a55004248fecd11a88210ec418249965a1c1a3b57045c3c6fc2a0d1cb98",
}


@pytest.mark.parametrize("family, dim", sorted(LATTICE_DEPOSIT_SHA256))
def test_lattice_deposit_matches_recorded_bits(family, dim):
    """Skipping zero-weight offsets leaves every deposited value's bits alone."""
    h = 0.5
    grid = build_grid(_lattice_sample(dim, h), kernel_constants(family, dim), h)
    digest = hashlib.sha256(grid.values.tobytes()).hexdigest()
    assert digest == LATTICE_DEPOSIT_SHA256[family, dim]


# ---------------------------------------------------------------------------
# equivariance properties
# ---------------------------------------------------------------------------

def test_translation_equivariance():
    """Shifting sample and queries by a constant leaves estimates alone."""
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 1.0, 300)
    queries = rng.uniform(-2.0, 2.0, 25)
    h, c = 0.42, 7.25
    base = estimate_density_1d(Sample1D(pts), TSC, h, queries)
    moved = estimate_density_1d(Sample1D(pts + c), TSC, h, queries + c)
    assert_allclose(moved, base, rtol=1e-12)

    pts3 = rng.normal(0.0, 1.0, (200, 3))
    q3 = rng.uniform(-1.5, 1.5, (20, 3))
    shift = np.array([3.5, -1.25, 0.75])
    base3 = estimate_density_3d(Sample3D(pts3), TSC3, h, q3)
    moved3 = estimate_density_3d(Sample3D(pts3 + shift), TSC3, h, q3 + shift)
    assert_allclose(moved3, base3, rtol=1e-12)


def test_grid_translation_by_lattice_step():
    """Shifting by an exact multiple of h shifts the grid, not the values."""
    rng = np.random.default_rng(14)
    s = Sample1D(rng.normal(0.0, 1.0, 200))
    h = 0.25
    c = 8 * h
    g0 = build_grid_1d(s, TSC, h)
    g1 = build_grid_1d(Sample1D(s.points + c), TSC, h)
    assert_allclose(g1.origin, g0.origin + c, rtol=1e-12)
    assert_allclose(g1.values, g0.values, rtol=1e-12, atol=1e-300)


def test_scale_relation():
    """x -> c x with h -> c h scales densities by 1/c (1D) and 1/c^3 (3D)."""
    rng = np.random.default_rng(23)
    c, h = 3.0, 0.5
    pts = rng.normal(0.0, 1.0, 250)
    queries = rng.uniform(-2.0, 2.0, 30)
    base = estimate_density_1d(Sample1D(pts), TSC, h, queries)
    scaled = estimate_density_1d(Sample1D(c * pts), TSC, c * h, c * queries)
    assert_allclose(scaled, base / c, rtol=1e-12)

    pts3 = rng.normal(0.0, 1.0, (150, 3))
    q3 = rng.uniform(-1.0, 1.0, (20, 3))
    base3 = estimate_density_3d(Sample3D(pts3), TSC3, h, q3)
    scaled3 = estimate_density_3d(Sample3D(c * pts3), TSC3, c * h, c * q3)
    assert_allclose(scaled3, base3 / c ** 3, rtol=1e-12)


def test_grid_scale_relation():
    """The deposit lattice is scale-consistent: same node indices, scaled
    coordinates, values divided by c."""
    rng = np.random.default_rng(29)
    s = Sample1D(rng.normal(0.0, 1.0, 300))
    c, h = 2.0, 0.3
    g0 = build_grid_1d(s, TSC, h)
    g1 = build_grid_1d(Sample1D(c * s.points), TSC, c * h)
    assert g1.n_nodes == g0.n_nodes
    assert_allclose(g1.origin, c * g0.origin, rtol=1e-12, atol=1e-300)
    assert_allclose(g1.values, g0.values / c, rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# finite-difference stencils
# ---------------------------------------------------------------------------

def test_second_derivative_examples():
    """Direct stencil arithmetic and exactness on low-order polynomials."""
    g = Grid1D(origin=0.0, spacing=1.0, values=np.array([0.0, 1.0, 0.0]))
    d2 = second_derivative_grid(g)
    assert d2.values.tolist() == [-2.0]
    assert d2.origin == 1.0 and d2.n_nodes == 1

    xs = -3.0 + 0.25 * np.arange(41)
    lin = Grid1D(origin=-3.0, spacing=0.25, values=2.0 * xs + 1.0)
    assert_allclose(second_derivative_grid(lin).values, 0.0, atol=1e-12)

    quad_vals = Grid1D(origin=-3.0, spacing=0.25, values=xs ** 2)
    assert_allclose(second_derivative_grid(quad_vals).values, 2.0, rtol=1e-10)


def test_second_derivative_exact_on_cubics():
    """Cubic terms cancel in the symmetric stencil."""
    spacing = 0.1
    xs = -2.0 + spacing * np.arange(51)
    g = Grid1D(origin=-2.0, spacing=spacing, values=xs ** 3 - 4.0 * xs)
    d2 = second_derivative_grid(g)
    assert_allclose(d2.values, 6.0 * xs[1:-1], rtol=1e-10, atol=1e-10)


def test_second_derivative_too_small():
    g = Grid1D(origin=0.0, spacing=1.0, values=np.array([1.0, 2.0]))
    with pytest.raises(GridTooSmall):
        second_derivative_grid(g)


def _grid3_from(fn, spacing, n):
    """Tabulate fn(x1,x2,x3) on an n^3 lattice centred at the origin."""
    ax = spacing * (np.arange(n) - (n - 1) / 2.0)
    x1, x2, x3 = np.meshgrid(ax, ax, ax, indexing="ij")
    return Grid3D(origin=np.array([ax[0]] * 3), spacing=spacing,
                  values=fn(x1, x2, x3))


def test_laplacian_examples():
    """Seven-point stencil values on simple fields."""
    g = _grid3_from(lambda a, b, c: a ** 2 + b ** 2 + c ** 2, 0.5, 9)
    lap = laplacian_grid(g)
    assert lap.dims == (7, 7, 7)
    assert_allclose(lap.values, 6.0, rtol=1e-10)
    assert_allclose(lap.origin, g.origin + g.spacing, rtol=1e-12)

    const = _grid3_from(lambda a, b, c: np.full_like(a, 3.7), 0.5, 5)
    assert_allclose(laplacian_grid(const).values, 0.0, atol=1e-12)

    mixed = _grid3_from(lambda a, b, c: a * b * c, 0.5, 7)
    assert_allclose(laplacian_grid(mixed).values, 0.0, atol=1e-10)


def test_laplacian_too_small():
    vals = np.zeros((3, 3, 2))
    g = Grid3D(origin=np.zeros(3), spacing=1.0, values=vals)
    with pytest.raises(GridTooSmall):
        laplacian_grid(g)


# ---------------------------------------------------------------------------
# quadrature of squared grids
# ---------------------------------------------------------------------------

def test_integrate_squared_1d_constant():
    g = Grid1D(origin=0.0, spacing=0.2, values=np.full(25, 3.0))
    assert_allclose(integrate_squared_1d(g), 9.0 * 25 * 0.2, rtol=1e-15)


def test_integrate_squared_1d_gaussian_curvature():
    """Tabulated (x^2-1) phi(x) squared integrates to 3/(8 sqrt(pi))."""
    spacing = 1e-3
    xs = -8.0 + spacing * np.arange(int(16.0 / spacing) + 1)
    f2 = (xs ** 2 - 1.0) * np.exp(-0.5 * xs ** 2) / np.sqrt(2.0 * np.pi)
    g = Grid1D(origin=xs[0], spacing=spacing, values=f2)
    assert_allclose(integrate_squared_1d(g), 0.21157, atol=1e-4)
    assert_allclose(integrate_squared_1d(g), 3.0 / (8.0 * np.sqrt(np.pi)), atol=1e-4)


def test_integrate_squared_1d_radial_pdf_curvature():
    """Tabulated 12(r-1)/(1+r)^5 squared integrates to 88/7."""
    spacing = 1e-4
    rs = spacing * np.arange(int(200.0 / spacing) + 1)
    f2 = 12.0 * (rs - 1.0) / (1.0 + rs) ** 5
    g = Grid1D(origin=0.0, spacing=spacing, values=f2)
    assert_allclose(integrate_squared_1d(g), 88.0 / 7.0, atol=1e-2)


def test_integrate_squared_3d_constant():
    g = Grid3D(origin=np.zeros(3), spacing=0.5,
               values=np.full((4, 5, 6), 2.0))
    assert_allclose(integrate_squared_3d(g), 4.0 * 120 * 0.125, rtol=1e-15)


def test_integrate_squared_3d_gaussian_laplacian():
    """Tabulated (r^2-3) f(x) squared integrates to 15/(32 pi^1.5)."""
    spacing = 0.05
    n = int(12.0 / spacing) + 1
    ax = spacing * (np.arange(n) - (n - 1) / 2.0)
    x1, x2, x3 = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    lap = (r2 - 3.0) * np.exp(-0.5 * r2) / (2.0 * np.pi) ** 1.5
    g = Grid3D(origin=np.array([ax[0]] * 3), spacing=spacing, values=lap)
    assert_allclose(integrate_squared_3d(g), 0.08418, atol=1e-3)
    assert_allclose(
        integrate_squared_3d(g), 15.0 / (32.0 * np.pi ** 1.5), atol=1e-3
    )


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_non_positive_bandwidth_rejected():
    s = Sample1D(np.array([0.0, 1.0]))
    s3 = Sample3D(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    for h in (0.0, -0.5, float("nan")):
        with pytest.raises(NonPositiveBandwidth):
            estimate_density_1d(s, TSC, h, [0.0])
        with pytest.raises(NonPositiveBandwidth):
            build_grid_1d(s, TSC, h)
        with pytest.raises(NonPositiveBandwidth):
            estimate_density_3d(s3, TSC3, h, np.zeros(3))
        with pytest.raises(NonPositiveBandwidth):
            build_grid_3d(s3, TSC3, h)


def test_sample_validation():
    with pytest.raises(DomainError):
        Sample1D(np.zeros((3, 2)))
    with pytest.raises(DomainError):
        Sample1D(np.array([0.0, np.inf]))
    with pytest.raises(DomainError):
        Sample3D(np.zeros((5, 2)))
    with pytest.raises(DomainError):
        Sample3D(np.array([[0.0, 0.0, np.nan]]))


def test_sample_summaries():
    s = Sample1D(np.array([1.0, 3.0, 5.0]))
    assert s.size_Np == 3 and s.min == 1.0 and s.max == 5.0
    assert_allclose(s.std, np.std([1.0, 3.0, 5.0]), rtol=1e-15)
    pts = np.array([[0.0, 2.0, 4.0], [2.0, 6.0, 8.0]])
    s3 = Sample3D(pts)
    assert s3.size_Np == 2
    assert_allclose(s3.min, [0.0, 2.0, 4.0])
    assert_allclose(s3.max, [2.0, 6.0, 8.0])
    assert_allclose(s3.std, np.mean(np.std(pts, axis=0)), rtol=1e-15)


def test_samples_are_immutable():
    s = Sample1D(np.array([0.0, 1.0]))
    with pytest.raises((ValueError, RuntimeError)):
        s.points[0] = 5.0
