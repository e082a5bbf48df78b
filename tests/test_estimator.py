"""Density evaluation, grid deposit, stencils, and quadrature."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kdeband import estimator
from kdeband.kernels import radial_profile
from kdeband import (
    DomainError,
    Sample,
    build_grid,
    kernel_constants,
    Grid,
    Kernel,
    GridTooLarge,
    GridTooSmall,
    NonPositiveBandwidth,
    estimate_density,
    eval_kernel,
    integrate_squared,
    laplacian,
    select_bandwidth,
)

TSC = kernel_constants("tsc", 1)
NGP = kernel_constants("ngp", 1)
TSC3 = kernel_constants("tsc", 3)
NGP3 = kernel_constants("ngp", 3)


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------

def test_estimate_1d_examples():
    """Single-point sums reduce to scaled kernel values."""
    s = Sample(np.array([0.0]))
    assert estimate_density(s, TSC, 1.0, [0.0])[0] == 0.75
    assert estimate_density(s, TSC, 2.0, [0.0])[0] == 0.375
    # both points sit exactly on the closed NGP support boundary
    s2 = Sample(np.array([-0.5, 0.5]))
    assert estimate_density(s2, NGP, 1.0, [0.0])[0] == 1.0


def test_estimate_3d_examples():
    """Single-point 3D sums and the finite-support zero."""
    s = Sample(np.zeros((1, 3)))
    assert_allclose(
        estimate_density(s, TSC3, 1.0, np.zeros(3)), 3.0 / (2.0 * np.pi),
        rtol=1e-15,
    )
    assert_allclose(
        estimate_density(s, NGP3, 2.0, np.zeros(3)), 3.0 / (4.0 * np.pi),
        rtol=1e-15,
    )
    far = np.array([[10.0, 0.0, 0.0], [0.0, -9.0, 3.0]])
    assert np.all(estimate_density(s, TSC3, 1.0, far) == 0.0)


def test_estimate_1d_matches_direct_sum():
    """The windowed evaluation equals the naive sum over all points."""
    rng = np.random.default_rng(5)
    s = Sample(rng.normal(0.0, 1.0, 150))
    queries = rng.uniform(-3.0, 3.0, 40)
    h = 0.37
    got = estimate_density(s, TSC, h, queries)
    naive = np.array(
        [np.sum(eval_kernel(TSC, (q - s.points) / h)) for q in queries]
    ) / (s.size_Np * h)
    assert_allclose(got, naive, rtol=1e-12)


def test_estimate_3d_matches_brute_force():
    """Cell-list evaluation equals the naive double loop at Np <= 200."""
    rng = np.random.default_rng(9)
    s = Sample(rng.normal(0.0, 1.0, (200, 3)))
    queries = rng.uniform(-2.0, 2.0, (50, 3))
    h = 0.8
    got = estimate_density(s, TSC3, h, queries)
    naive = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        naive[i] = np.sum(eval_kernel(TSC3, (q - s.points) / h))
    naive /= s.size_Np * h ** 3
    assert_allclose(got, naive, rtol=1e-12, atol=1e-300)


def _brute_3d(s, kernel, h, queries):
    """The naive double loop over queries and points, each radius rounded
    as the cell list rounds it, sqrt((dx^2 + dy^2) + dz^2) / h with
    d = point - query.  (A radius taken as sqrt(einsum(x, x)) of
    x = (q - p) / h may round to the other side of the support edge.)"""
    out = []
    for q in queries:
        d = s.points - q
        d *= d
        out.append(np.sum(radial_profile(kernel, np.sqrt(d[:, 0] + d[:, 1] + d[:, 2]) / h)))
    return np.array(out) / (s.size_Np * h ** 3)


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_estimate_3d_edge_cases_match_brute_force(family):
    """Queries outside the bounding box and in empty cells, a point at
    exactly the support radius, far outliers at a tiny h, and a 1-point
    sample: the cell list equals the naive sum."""
    kernel = kernel_constants(family, 3)
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
    s = Sample(pts)
    queries = np.concatenate([outside, gap, on_edge, rng.uniform(-2.5, 2.5, (30, 3))])
    got = estimate_density(s, kernel, h, queries)
    assert_allclose(got, _brute_3d(s, kernel, h, queries), rtol=1e-12, atol=1e-300)
    assert np.all(got[len(outside):len(outside) + len(gap)] == 0.0)
    if family == "ngp":
        # each on_edge query's only neighbours are its two points at
        # exactly R, on the closed branch of the top-hat
        assert_allclose(got[-32:-30], 2 * kernel.normalization / (s.size_Np * h ** 3), rtol=1e-15)

    # outliers at +-3e6 with h = 1e-3: about 4e9 cells per axis
    core = rng.normal(0.0, 2e-3, (200, 3))
    far = np.array([[3e6, -3e6, 3e6], [-3e6, 3e6, -3e6]])
    wide = Sample(np.concatenate([core, far, far + 2e-4]))
    q = np.concatenate([rng.normal(0.0, 2e-3, (20, 3)), far + 1e-4, far - 1e-2])
    got = estimate_density(wide, kernel, 1e-3, q)
    assert_allclose(got, _brute_3d(wide, kernel, 1e-3, q), rtol=1e-12, atol=1e-300)
    assert np.all(got[20:22] > 0.0)

    one = Sample(np.array([[0.3, -0.2, 0.1]]))
    q = np.concatenate([rng.uniform(-1.0, 1.0, (20, 3)), [[0.3 + radius, -0.2, 0.1]]])
    assert_allclose(
        estimate_density(one, kernel, h, q), _brute_3d(one, kernel, h, q),
        rtol=1e-12, atol=1e-300,
    )
    empty = estimate_density(s, kernel, h, np.zeros((0, 3)))
    assert empty.shape == (0,) and empty.dtype == float


# The 48 unit vectors (+-2, +-3, +-6) / 7, in every order.
_SEVENTHS = np.array([
    [sx * a, sy * b, sz * c]
    for a, b, c in itertools.permutations((2, 3, 6))
    for sx, sy, sz in itertools.product((-1, 1), repeat=3)
]) / 7.0


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_estimate_3d_clipped_windows_keep_every_boundary_point(family):
    """The cell list visits only the columns the support sphere reaches
    and, in each, only the chord's z cells.  Points on each query's
    support sphere about queries at offsets up to 2^20 -- along each axis
    at exactly R and one ulp inside and outside, and in 48 off-axis
    directions whose rounded radius lands on, just inside or just outside
    w/2 -- and h/2-lattice samples, give the naive sum, zeros exactly.
    NGP weighs a point at exactly R fully."""
    kernel = kernel_constants(family, 3)
    rng = np.random.default_rng(71)
    axes = np.vstack([np.eye(3), -np.eye(3)])

    def check(s, h, queries, reference):
        got = estimate_density(s, kernel, h, queries)
        want = reference(s, kernel, h, queries)
        assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(got == 0.0, want == 0.0)
        return got

    for h in (0.5, 2.0 ** -7):
        radius = 0.5 * kernel.width_w * h
        for offset in (0.0, 1024.0, 2.0 ** 20):
            centres = rng.integers(-64, 65, (4, 3)) * (h / 8) + offset
            queries = np.concatenate([centres, centres + rng.uniform(-radius, radius, (4, 3))])
            on_axis = [c + radius * axes for c in centres]
            exact = check(Sample(np.concatenate(on_axis)), h, queries, _brute_3d)
            assert np.all(exact[:4] > 0.0) if family == "ngp" else np.all(exact[:4] == 0.0)
            ulps = [np.nextafter(p, p + side * (p - c)) for c, p in zip(centres, on_axis)
                    for side in (-1, 1)]
            check(Sample(np.concatenate(ulps)), h, queries, _brute_3d)
            check(Sample(np.concatenate([c + radius * _SEVENTHS for c in centres])),
                  h, queries, _brute_3d)

    h = 0.5
    for offset in (0.0, 1024.0):
        s = Sample(rng.integers(-6, 7, (300, 3)) * (h / 2) + offset)
        check(s, h, rng.integers(-14, 15, (60, 3)) * (h / 4) + offset, _brute_3d)
    # h/2-lattice queries, each with points at R along every axis, at h
    # whose cell units round: windows without their margins miss some.
    for h in rng.uniform(0.05, 8.0, 20):
        radius = 0.5 * kernel.width_w * h
        for offset in (0.0, 1024.0):
            queries = rng.integers(-40, 41, (20, 3)) * (h / 2) + offset
            s = Sample((queries[:, None, :] + radius * axes).reshape(-1, 3))
            check(s, h, queries, _brute_3d)


@pytest.mark.parametrize("family", ["ngp", "cic"])
def test_estimate_3d_support_edge_at_any_h_matches_brute_force(family):
    """One point at R along each of the 48 directions (+-2, +-3, +-6) / 7
    from its own query, the queries 4R apart, at h that are not powers of
    two: each rounded radius lands on, just inside or just outside w/2,
    and each query's estimate is its one point's weight, so the cell list
    and _brute_3d agree exactly, zeros included."""
    kernel = kernel_constants(family, 3)
    rng = np.random.default_rng(73)
    lattice = np.array(list(itertools.product(range(4), range(4), range(3))))
    weighted = 0
    for h in np.concatenate([[0.37, 0.1, 1.3], rng.uniform(0.05, 5.0, 5)]):
        radius = 0.5 * kernel.width_w * h
        for offset in (0.0, 1024.0):
            queries = 4 * radius * lattice + rng.integers(-8, 9, (48, 3)) * (h / 8) + offset
            s = Sample(queries + radius * _SEVENTHS)
            got = estimate_density(s, kernel, h, queries)
            assert_array_equal(got, _brute_3d(s, kernel, h, queries))
            weighted += np.count_nonzero(got)
    assert 0 < weighted < 16 * 48  # points on both sides of the edge


def test_estimate_3d_far_queries_visit_no_column():
    """A query far outside the sample, out to +-1e307 where its coordinate
    in cell units overflows, sees no cell: it reads 0, leaves the other
    queries' estimates as they are, and allocates nothing beyond the cell
    list itself.  (Unclamped, an infinite coordinate made a nan window
    holding every occupied cell: about Np^2 pairs here.)"""
    rng = np.random.default_rng(3)
    s = Sample(rng.uniform(0.0, 1e4, (500, 3)))
    kernel, h = kernel_constants("tsc", 3), 0.01
    far = []
    for a in range(3):
        for v in (-1e307, -1e300, 1e300, 1e307):
            q = np.full(3, 5e3)
            q[a] = v
            far.append(q)
    far = np.array(far + [[-1e307, -1e307, 5e3], [1e307, 1e307, 1e307], [-1e307] * 3])
    near = s.points[:8] + 0.004
    got = estimate_density(s, kernel, h, np.concatenate([far, near]))
    assert np.all(got[: len(far)] == 0.0)
    assert_array_equal(got[len(far):], estimate_density(s, kernel, h, near))
    assert np.all(got[len(far):] > 0.0)
    empty = _traced_peak(estimate_density, s, kernel, h, np.zeros((0, 3)))
    assert _traced_peak(estimate_density, s, kernel, h, far) <= empty + 4096


# sha256 of estimate_density(...).tobytes() in one chunk of pairs, for
# 2e4 default_rng(29) standard-normal points and 200 queries (the next
# draws, times 1.5).  Recorded once the cells' points were sorted stably,
# the same as with every query visiting the whole cube of five cells per
# axis around it and the cells sorted by np.argsort(key, kind="stable").
# (The CIC and TSC digests recorded before, with numpy's unstable default
# sort, held on one CPU and numpy build only.)
ONE_CHUNK_3D_ESTIMATE_SHA256 = {
    ("ngp", 0.8): "6195d4a814d1428d966037781a206a988880f02042e4dccdd48567955e4d6216",
    ("cic", 0.5): "5164d5e4806b7b9eb2dbdcd6fab0be8b96807415e65ab303703e347fa0f89f59",
    ("tsc", 0.4): "8bbb5872c4b2ac2168aeebb387b801d0c3876787119fd70bc85d7bc14537cbfa",
}


@pytest.mark.parametrize("family, h", sorted(ONE_CHUNK_3D_ESTIMATE_SHA256))
def test_3d_estimate_in_one_chunk_matches_recorded_bits(family, h, monkeypatch):
    """Windows clipped to the support sphere drop only points outside it
    and keep the order of the rest, so with every pair in one chunk the
    estimates keep the bits of the cube windows.  Chunks of pairs can
    still split a query's sum at another point."""
    monkeypatch.setattr(estimator, "_PAIR_CHUNK", 1 << 40)
    rng = np.random.default_rng(29)
    sample = Sample(rng.standard_normal((20_000, 3)))
    queries = rng.standard_normal((200, 3)) * 1.5
    got = estimate_density(sample, kernel_constants(family, 3), h, queries)
    assert hashlib.sha256(got.tobytes()).hexdigest() == ONE_CHUNK_3D_ESTIMATE_SHA256[family, h]


def _multi_chunk_3d_case(case):
    """(sample, queries) of one recorded multi-chunk 3D evaluation case:
    2e4 default_rng(29) standard-normal points and 2000 queries (the next
    draws, times 1.5), or the clipped Cauchy hostile sample queried at its
    own points."""
    if case == "gauss":
        rng = np.random.default_rng(29)
        sample = Sample(rng.standard_normal((20_000, 3)))
        return sample, rng.standard_normal((2000, 3)) * 1.5
    sample = _hostile_sample_3d("cauchy")
    return sample, sample.points


# sha256 of estimate_density(...).tobytes() at the default _PAIR_CHUNK, for
# each case of _multi_chunk_3d_case, whose pairs span 5 to 14 chunks: a
# query's sum may be split between chunks and added to its estimate in
# parts.  Recorded while each chunk compacted its inside pairs with a
# boolean mask and selected the kernel's branches with np.select.
MULTI_CHUNK_3D_ESTIMATE_SHA256 = {
    ("gauss", "ngp", 0.8): "c96931c963240fc6372f4d3e15ad055970823025b4ab4a326fd3957f5e2fafce",
    ("gauss", "cic", 0.5): "f07e8b2e9f318230b9ce84f838b5cc096d950ea56cf7cf5f8ce049758d5de2dd",
    ("gauss", "tsc", 0.4): "338b6e6c83a77a2a88bc9e6549ac94e48eaab22324c0e90f9e87b0f73f11f998",
    ("cauchy", "ngp", 3.0): "3f0cef3c5a6f6559ce9fdc83a69f07169c876578f494e8fae5da5600e93f69bb",
    ("cauchy", "cic", 1.5): "610911024e45715223f8f170a47935cca77c381b899b9858aa2518b3881b4aaf",
    ("cauchy", "tsc", 1.0): "b84b419b107e196595b5f953f5106e9c4f006d67bae9ac23e2e85fc05abb80dc",
}


@pytest.mark.parametrize("case, family, h", sorted(MULTI_CHUNK_3D_ESTIMATE_SHA256))
def test_3d_estimate_in_many_chunks_matches_recorded_bits(case, family, h, monkeypatch):
    """The chunks of pairs, the order of the pairs in each and the order
    in which chunks add to the estimates keep their recorded bits."""
    chunks = []
    profile = estimator._profile_in_place

    def counted(kernel, r, bounds=None):
        chunks.append(r.size)
        return profile(kernel, r, bounds)

    monkeypatch.setattr(estimator, "_profile_in_place", counted)
    sample, queries = _multi_chunk_3d_case(case)
    got = estimate_density(sample, kernel_constants(family, 3), h, queries)
    assert len(chunks) >= 3
    assert hashlib.sha256(got.tobytes()).hexdigest() == MULTI_CHUNK_3D_ESTIMATE_SHA256[case, family, h]


def test_3d_cell_order_is_the_stable_sort(monkeypatch):
    """The cell list orders the points of each cell as the stable sort
    does, on a lattice sample where most cells hold many points, and
    where bound * size cannot be an int64 the stable sort itself runs."""
    seen = []
    stable_argsort = estimator._stable_argsort

    def recorded(key, bound):
        order = stable_argsort(key, bound)
        seen.append((key.copy(), order))
        return order

    monkeypatch.setattr(estimator, "_stable_argsort", recorded)
    rng = np.random.default_rng(43)
    sample = Sample(rng.integers(-4, 5, (6000, 3)) * 0.25)
    estimate_density(sample, TSC3, 0.5, rng.uniform(-1.0, 1.0, (20, 3)))
    (key, order), = seen
    assert np.unique(key).size < key.size // 20
    assert_array_equal(order, np.argsort(key, kind="stable"))
    assert_array_equal(stable_argsort(key, 2 ** 62), np.argsort(key, kind="stable"))


@pytest.mark.parametrize("bound", [1, 1 << 16, (1 << 16) + 1])
def test_stable_argsort_is_the_stable_sort_either_side_of_16_bits(bound):
    """Keys below 2^16 are sorted as uint16, and wider ones as distinct
    int64 keys: either way the permutation is the stable sort's."""
    key = np.random.default_rng(67).integers(0, bound, 50_000)
    key[:2] = bound - 1
    assert_array_equal(estimator._stable_argsort(key, bound), np.argsort(key, kind="stable"))


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_support_cutoff_is_the_largest_square_inside_the_support(family):
    """At h across the scale domain, 2^-400 to 2^400, the radius
    sqrt(T) / h of the cutoff T is at most w/2, as numpy computes it, and
    the radius of the next float above T is past w/2."""
    support = 0.5 * kernel_constants(family, 3).width_w
    exponents = np.random.default_rng(71).uniform(-400.0, 400.0, 400)
    for h in [2.0 ** -400, 1.0, 0.1, 2.0 ** 400] + [float(2.0 ** e) for e in exponents]:
        cut = estimator._support_cutoff_sq(h, support)
        r = np.sqrt(np.array([cut, np.nextafter(cut, np.inf)])) / h
        assert r[0] <= support < r[1], h


def _spy_on_unique(monkeypatch):
    """A list that gains one item per np.unique call."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(1) or
                        unique(*args, **kwargs))
    return calls, unique


@pytest.mark.parametrize("dtype", [np.int64, float], ids=["ints", "floats"])
def test_ranks_match_unique_on_the_table_and_the_sort_path(dtype, monkeypatch):
    """_ranks gives np.unique's distinct values and inverse, bit for bit
    and in their dtypes, whether the occupancy table ranks them or the
    sort does: seeded values, one value, and a largest value one below
    the table's bound (values.size) and at it."""
    rng = np.random.default_rng(61)
    cases = [rng.integers(0, 50, 3000), rng.integers(0, 3000, 3000),
             rng.integers(0, 10 ** 9, 3000), np.array([0]), np.array([7]),
             np.array([4, 1, 4, 0, 3]), np.array([5, 1, 5, 0, 3]),
             np.r_[rng.integers(0, 100, 999), 999], np.r_[rng.integers(0, 100, 999), 1000]]
    calls, unique = _spy_on_unique(monkeypatch)
    paths = set()
    for values in cases:
        values = values.astype(dtype)
        calls.clear()
        got = estimator._ranks(values)
        want = unique(values, return_inverse=True)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        sorted_ = not values.max() < values.size
        assert calls == [1] * sorted_
        paths.add(sorted_)
    assert paths == {False, True}


# sha256 of estimate_density(...).tobytes() for 2e4 default_rng(31)
# standard-normal points and one more at (1e7, 0, 0), queried at its own
# points: the x axis spans millions of cells, so its cells are ranked by
# the sort, not by an occupancy table.  Recorded while every axis and the
# columns were ranked by np.unique.
WIDE_3D_ESTIMATE_SHA256 = {
    ("ngp", 0.8): "1b575189379161435f24a63c36c6f46210c51c5e6a8fc88f89209b397bc2050f",
    ("cic", 0.5): "995479c7c113de7bd20154bd424f620c5018d4d1b3c0f6c9113cc6fc707cfdea",
    ("tsc", 0.4): "0c44cb328e97f68062587a1eb552658035375a894eff6c6f4b9a7f6888fa6058",
}


@pytest.mark.parametrize("family, h", sorted(WIDE_3D_ESTIMATE_SHA256))
def test_3d_estimate_of_a_wide_sample_matches_recorded_bits(family, h, monkeypatch):
    rng = np.random.default_rng(31)
    sample = Sample(np.vstack([rng.standard_normal((20_000, 3)), [[1e7, 0.0, 0.0]]]))
    calls, _ = _spy_on_unique(monkeypatch)
    got = estimate_density(sample, kernel_constants(family, 3), h, sample.points)
    assert calls, "the x axis is ranked by the sort"
    assert hashlib.sha256(got.tobytes()).hexdigest() == WIDE_3D_ESTIMATE_SHA256[family, h]


def test_3d_cell_build_of_a_gaussian_sorts_no_ranks(monkeypatch):
    """The cells of each axis and the occupied columns of a 2e5-point
    Gaussian are ranked by occupancy tables: np.unique never runs, and
    the stable sort of the cell keys is the one sort left."""
    sample = Sample(np.random.default_rng(1).standard_normal((200_000, 3)))
    calls, _ = _spy_on_unique(monkeypatch)
    estimate_density(sample, TSC3, 0.354, np.zeros((1, 3)))
    assert calls == []


def _estimate_1d_case(case, w):
    """(sample points, h, queries) of one recorded 1D evaluation case."""
    rng = np.random.default_rng(71)
    h = 0.37
    if case == "normal":
        return rng.standard_normal(5000), h, np.linspace(-4.0, 4.0, 401)
    if case == "offset":
        points = 1e12 + rng.uniform(-3.0, 3.0, 3000) * h
        return points, h, 1e12 + np.linspace(-4.0, 4.0, 301) * h
    if case == "lattice":
        return rng.integers(-12, 13, 3000) * (h / 2), h, np.arange(-14, 15) * (h / 2)
    if case == "edges":
        # Points at exactly q +- top h for every branch top of the three
        # families, and one ulp either side, about queries q on two scales.
        queries = np.concatenate([rng.uniform(-2.0, 2.0, 30), rng.integers(-8, 9, 10) * h])
        at = (queries[:, None] + np.array([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]) * h).ravel()
        points = np.concatenate([at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)])
        return points, h, queries
    # Queries far outside the sample, whose windows are empty, among near ones.
    far = np.array([-1e6, -50.0, -6.0 - w * h, 6.0 + w * h, 1e6, 1e300])
    return rng.uniform(-3.0, 3.0, 2000), h, np.concatenate([far, rng.uniform(-3.0, 3.0, 20)])


# sha256 of estimate_density(...).tobytes() for each case of
# _estimate_1d_case, recorded while each kernel branch was evaluated as a
# chain of new temporaries, one term at a time.
ESTIMATE_1D_SHA256 = {
    ("ngp", "normal"): "04c391d69613ec4190252a9f47dfd2e7c5683c0391340d35969c5dc6044900a0",
    ("ngp", "offset"): "364630234a93ef1ec87e82678a3148bd05a3186c00f58605d87fc0b29d40dad6",
    ("ngp", "lattice"): "d30fe8b623222e8a0a4e45f83668d5f5fe9fe0c4abfede839eb2bbf05a87a9eb",
    ("ngp", "edges"): "4c6e845512388e84ca872ffb7c862a4ecc4c0142e33244f3e7933098bf0f43f1",
    ("ngp", "far"): "aa484b9e8d9925b630427662da4fe1ea14ab1ff678edf1148befe2341f05896a",
    ("cic", "normal"): "6b6ca86b7559eae807043dd014cc512a318d67e419070891a1512ea206cad19f",
    ("cic", "offset"): "8fe06be539a397ee5f209fb523316a1b5dd300c78853f61545abdb5c404e9b0b",
    ("cic", "lattice"): "19cd12c14cbe2d3075de17ac8c0a9b71fc4a0144a2b420d36cc871a6885183c6",
    ("cic", "edges"): "a21e00a8e9ce532da6bcac3ab67f30ec34e1a84ce4533628f344a0e6edc193fc",
    ("cic", "far"): "40b9352f32c275121d39195cbb5a59de2a56cf4ddfdab3e1bb9196e2a907f9fc",
    ("tsc", "normal"): "80f5a383013bf823f79e22e846a7d547a1aae4c6898f758304c03c66bfda7a59",
    ("tsc", "offset"): "8831314490f4e92853fb41b844b2960735ef0bd03a7bb525d698e4d9b650a9b1",
    ("tsc", "lattice"): "8c60d2ef4b5b7e9ba5dded2f053fa4a4a4a95ec5cdbbd6eca181fc719319db40",
    ("tsc", "edges"): "016f1e2c5646e6f7863fbdaaaba9b675dfe32287451e46123f5bc6d619359f89",
    ("tsc", "far"): "1d2d11ad19891ba8bb3f255cf250b98c4d395f5f20a3a53e5ad2cb89ec50dcdd",
}


@pytest.mark.parametrize("family, case", sorted(ESTIMATE_1D_SHA256))
def test_estimate_1d_matches_recorded_bits(family, case):
    """A normal sample, a sample 1e12 from the origin, an h/2 lattice,
    points at and one ulp either side of every branch top about each
    query, and far queries with empty windows: every estimate keeps its
    recorded bits, and an empty window reads +0.0."""
    kernel = kernel_constants(family, 1)
    points, h, queries = _estimate_1d_case(case, kernel.width_w)
    got = estimate_density(Sample(points), kernel, h, queries)
    assert got.shape == queries.shape
    assert hashlib.sha256(got.tobytes()).hexdigest() == ESTIMATE_1D_SHA256[family, case]
    if case == "far":
        assert got[:6].tobytes() == np.zeros(6).tobytes()
        assert np.all(got[6:] > 0.0)


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_estimate_1d_bisects_once_per_query(family, monkeypatch):
    """Each query finds every branch edge in one np.searchsorted call (two
    more bound every query's window), evaluates its innermost branch once,
    as one slice, and each outer branch once per side."""
    kernel = kernel_constants(family, 1)
    sample = Sample(np.random.default_rng(4).standard_normal(500))
    queries = np.linspace(-3.0, 3.0, 7)
    want = estimate_density(sample, kernel, 0.4, queries)
    searches, evaluations = [], []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *args, **kw: searches.append(1) or searchsorted(*args, **kw))
    branches = estimator.profile_branches(kernel)

    def counted(index, evaluate):
        return lambda r: evaluations.append(index) or evaluate(r)

    monkeypatch.setattr(estimator, "profile_branches", lambda kernel: [
        (top, counted(index, evaluate), factor)
        for index, (top, evaluate, factor) in enumerate(branches)])
    got = estimate_density(sample, kernel, 0.4, queries)
    assert got.tobytes() == want.tobytes()
    assert len(searches) == 2 + queries.size
    per_query = [0] + [index for index in range(1, len(branches)) for _ in (0, 1)]
    assert sorted(evaluations) == sorted(per_query * queries.size)


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_estimate_1d_of_no_queries_is_empty(family):
    """Zero queries give an empty float array, with or without a window."""
    kernel = kernel_constants(family, 1)
    sample = Sample(np.random.default_rng(3).standard_normal(100))
    for queries in ([], np.zeros(0), np.array([1e6])[:0]):
        got = estimate_density(sample, kernel, 0.3, queries)
        assert got.shape == (0,) and got.dtype == np.float64


def test_non_finite_queries_rejected():
    """A NaN or infinite query point raises, as a non-finite sample point does."""
    s = Sample(np.array([0.0, 1.0]))
    s3 = Sample(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            estimate_density(s, TSC, 0.5, [bad, 0.0])
        with pytest.raises(DomainError, match="finite"):
            estimate_density(s3, TSC3, 0.5, [[0.0, bad, 0.0], [0.0, 0.0, 0.0]])


def test_estimates_non_negative_and_finite():
    rng = np.random.default_rng(17)
    s = Sample(rng.normal(0.0, 2.0, 500))
    vals = estimate_density(s, TSC, 0.4, np.linspace(-8, 8, 200))
    assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))


@pytest.mark.parametrize("points", [np.array([]), np.zeros((2, 2, 2))],
                         ids=["empty", "three-axes"])
def test_sample_needs_a_non_empty_one_or_two_axis_array(points):
    with pytest.raises(DomainError, match="non-empty"):
        Sample(points)


def test_grid_needs_values_and_one_origin_coordinate_per_axis():
    with pytest.raises(DomainError, match="non-empty"):
        Grid(0.0, 1.0, np.array([]))
    with pytest.raises(DomainError, match="one coordinate per axis"):
        Grid(np.zeros(2), 1.0, np.ones((3, 3, 3)))


def test_estimate_rejects_queries_of_the_wrong_shape():
    with pytest.raises(DomainError, match="scalar or 1D"):
        estimate_density(Sample(np.arange(5.0)), TSC, 0.5, np.zeros((2, 2)))
    sample3 = Sample(np.zeros((5, 3)))
    for queries in (np.zeros((4, 2)), np.zeros(2)):
        with pytest.raises(DomainError, match=r"shape \(M, 3\)"):
            estimate_density(sample3, kernel_constants("tsc", 3), 0.5, queries)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: Sample(["a"]), "Sample points"),
        (lambda: Sample([[0.0, 1.0], [2.0]]), "Sample points"),
        (lambda: estimate_density(Sample(np.arange(5.0)), TSC, 0.5, ["a"]), "query_points"),
        (lambda: Grid(0.0, 1.0, ["a", "b"]), "Grid values"),
    ],
    ids=["sample", "ragged-sample", "queries", "grid"],
)
def test_non_numeric_arrays_raise_domain_error(call, name):
    """An array that numpy cannot read as floats is a domain error naming
    the argument, not numpy's bare ValueError."""
    with pytest.raises(DomainError, match=name):
        call()


# ---------------------------------------------------------------------------
# grid deposit: 1D
# ---------------------------------------------------------------------------

def test_grid_1d_coverage_and_lattice():
    """Padding rule, exact spacing, and absolute-lattice snapping."""
    s = Sample(np.array([0.0, 0.3, 1.0]))
    h = 0.5
    grid = build_grid(s, TSC, h)
    assert grid.spacing == h
    xs = grid.axis_coordinates(0)
    assert xs[0] <= 0.0 - 1.5 * h and xs[-1] >= 1.0 + 1.5 * h
    # origin is an exact multiple of h
    assert_allclose(grid.origin / h, round(grid.origin / h), atol=1e-12)


def test_grid_1d_matches_estimate_at_nodes():
    """Deposit (bincount) and direct evaluation agree on the nodes."""
    rng = np.random.default_rng(21)
    s = Sample(rng.normal(0.0, 1.0, 400))
    for kernel in (NGP, kernel_constants("cic", 1), TSC):
        grid = build_grid(s, kernel, 0.31)
        direct = estimate_density(s, kernel, 0.31, grid.axis_coordinates(0))
        assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)


def test_grid_1d_mass_conservation():
    """sum(values) * spacing recovers total probability.

    The deposit tabulates every kernel's full support, and the assignment
    shapes form a partition of unity on the lattice, so the node sum is 1
    up to rounding - well inside the documented [0.99, 1.01] check.
    """
    rng = np.random.default_rng(2)
    s = Sample(rng.normal(0.0, 1.0, 10_000))
    grid = build_grid(s, TSC, 0.334)
    mass = float(np.sum(grid.values) * grid.spacing)
    assert abs(mass - 1.0) < 1e-9
    assert 0.99 <= mass <= 1.01


def test_grid_1d_too_large():
    s = Sample(np.array([0.0, 100.0]))
    with pytest.raises(GridTooLarge):
        build_grid(s, TSC, 0.5, grid_cap=10)


@pytest.mark.filterwarnings("error")
def test_grid_span_or_origin_out_of_range_raises_named_error():
    """A span whose node count overflows is GridTooLarge, and a lattice
    origin that overflows is DomainError: neither a RuntimeWarning nor a
    bare OverflowError."""
    with pytest.raises(GridTooLarge, match="out of range"):
        build_grid(Sample([-1.7e308, 1.7e308]), TSC, 1.0)
    with pytest.raises(DomainError, match="out of range"):
        build_grid(Sample([1e300]), TSC, 1e-10)


# ---------------------------------------------------------------------------
# grid deposit: 3D
# ---------------------------------------------------------------------------

def test_grid_3d_coverage():
    """Per-axis extents cover [min - wh/2, max + wh/2] with spacing h."""
    rng = np.random.default_rng(31)
    s = Sample(rng.uniform(-1.0, 2.0, (60, 3)))
    h = 0.4
    grid = build_grid(s, TSC3, h)
    assert grid.spacing == h
    half = 1.5 * h
    for a in range(3):
        ax = grid.axis_coordinates(a)
        assert ax[0] <= s.min[a] - half and ax[-1] >= s.max[a] + half
        assert_allclose(grid.origin[a] / h, round(grid.origin[a] / h), atol=1e-12)


def test_grid_3d_matches_estimate_at_nodes():
    """Deposit agrees with the cell-list evaluation on every node."""
    rng = np.random.default_rng(13)
    s = Sample(rng.normal(0.0, 0.7, (120, 3)))
    h = 0.5
    grid = build_grid(s, TSC3, h)
    axes = [grid.axis_coordinates(a) for a in range(3)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    direct = estimate_density(s, TSC3, h, mesh).reshape(grid.dims)
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)


def test_grid_3d_mass_conservation():
    """Cell-volume-weighted sum of a 1e5-point Gaussian deposit is ~1.

    The radial 3D kernels are not an exact partition of unity, so the
    tabulated mass only approximates 1; the documented window is
    [0.97, 1.03] at near-optimal h.
    """
    rng = np.random.default_rng(4)
    s = Sample(rng.normal(0.0, 1.0, (100_000, 3)))
    grid = build_grid(s, TSC3, 0.394)
    mass = float(np.sum(grid.values) * grid.spacing ** 3)
    assert 0.97 <= mass <= 1.03


def test_grid_3d_too_large():
    rng = np.random.default_rng(1)
    s = Sample(rng.uniform(0.0, 1.0, (20, 3)))
    with pytest.raises(GridTooLarge, match="cells"):
        build_grid(s, TSC3, 0.01, grid_cap=1000)


def test_grid_too_large_shows_nodes_per_axis_only_in_3d():
    """A 1D grid's node count is given once; a 3D grid's as its nodes per
    axis and their product."""
    with pytest.raises(GridTooLarge) as one:
        build_grid(Sample([0.0, 1e9]), TSC, 1.0)
    assert str(one.value) == (
        "1D grid would need 1000000005 cells at h=1, above the cap of 10000000"
    )
    with pytest.raises(GridTooLarge) as three:
        build_grid(Sample([[0.0, 0.0, 0.0], [1e3, 2e3, 3e3]]), TSC3, 1.0)
    assert str(three.value) == (
        "3D grid would need 1005x2005x3005 = 6055150125 cells at h=1, above the cap of 100000000"
    )


# ---------------------------------------------------------------------------
# grid deposit: skipped offsets
# ---------------------------------------------------------------------------

def test_ngp_boundary_point_weights_both_nodes():
    """A point exactly on the closed NGP boundary weights both nodes."""
    g = build_grid(Sample([0.5]), NGP, 1.0)
    assert g.origin == 0.0 and g.values.tolist() == [1.0, 1.0]

    g3 = build_grid(Sample([[0.5, 0.0, 0.0]]), NGP3, 1.0)
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
        direct = estimate_density(s, kernel, h, axes[0])
    else:
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        direct = estimate_density(s, kernel, h, mesh).reshape(grid.dims)
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


def test_deposit_needing_in_range_masks_matches_estimate():
    """On this lattice-aligned sample the last offset's highest node index
    rounds onto the padded grid's end.  The deposit drops that index and
    still equals direct evaluation at the nodes, in 1D and 3D."""
    h = 0.5142746441911471
    xs = [-3.59992250933803, -3.3427851872424563, 1.799961254669015,
          2.0570985767645884, 1.5428239325734414]
    s, kernel = Sample(xs), kernel_constants("cic", 1)
    grid = build_grid(s, kernel, h)
    direct = estimate_density(s, kernel, h, grid.axis_coordinates(0))
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)

    pts = np.column_stack([xs, np.linspace(-0.3, 0.3, 5), np.linspace(0.2, -0.2, 5)])
    s3, kernel3 = Sample(pts), kernel_constants("cic", 3)
    grid3 = build_grid(s3, kernel3, h)
    mesh = np.stack(
        np.meshgrid(*[grid3.axis_coordinates(a) for a in range(3)], indexing="ij"), axis=-1
    ).reshape(-1, 3)
    direct3 = estimate_density(s3, kernel3, h, mesh).reshape(grid3.dims)
    assert_allclose(grid3.values, direct3, rtol=1e-12, atol=1e-300)


def _hostile_sample(kind):
    """A clipped Cauchy sample, or a Gaussian one offset by 1e12."""
    rng = np.random.default_rng(47)
    if kind == "cauchy":
        return Sample(np.clip(rng.standard_cauchy(2000), -60.0, 60.0))
    return Sample(1e12 + rng.normal(0.0, 1.0, 2000))


# sha256 of build_grid(_hostile_sample(kind), ..., 0.37).values.tobytes(),
# recorded before the 1D deposit computed one kernel branch per offset.
HOSTILE_DEPOSIT_SHA256 = {
    ("cauchy", "ngp"): "ee6b59dee36e9cb0aa7d0cabacf5082f570cb62c2b26914f2462cc01b0845038",
    ("cauchy", "cic"): "114ca24015f9ffdd8fd9b5a966102ba67fe194a8dc37c6e796639c86f0463910",
    ("cauchy", "tsc"): "41708c333737e66ec2930ac11d1eff7cdd9acd60cc3337fe1795a338c7fd773c",
    ("offset", "ngp"): "1f6afdeb725eada86b0a26f218cb6794cc0fce7541e9d33dd3096b37d62a0135",
    ("offset", "cic"): "fdb049a88e7ed2144a4ce05be1d6865ba2b4f6acedae0166368703e0f7ada64a",
    ("offset", "tsc"): "db3408a6e1a7600a6fc34013e7b92ce9b46279edb6d11c45c31672b3a057504c",
}


@pytest.mark.parametrize("kind, family", sorted(HOSTILE_DEPOSIT_SHA256))
def test_hostile_deposit_matches_recorded_bits(kind, family):
    """Computing only the branch each offset takes leaves every deposited
    value's bits alone, on heavy tails and far from the origin."""
    grid = build_grid(_hostile_sample(kind), kernel_constants(family, 1), 0.37)
    digest = hashlib.sha256(grid.values.tobytes()).hexdigest()
    assert digest == HOSTILE_DEPOSIT_SHA256[kind, family]


def _hostile_sample_3d(kind):
    """A clipped Cauchy sample, or a Gaussian one offset by (1e12, -3e8, 5)."""
    rng = np.random.default_rng(47)
    if kind == "cauchy":
        return Sample(np.clip(rng.standard_cauchy((2000, 3)), -8.0, 8.0))
    return Sample(np.array([1e12, -3e8, 5.0]) + rng.normal(0.0, 1.0, (2000, 3)))


# sha256 of build_grid(_hostile_sample_3d(kind), ..., 0.37).values.tobytes(),
# recorded before the 3D deposit bounded each pass's radius.
HOSTILE_DEPOSIT_3D_SHA256 = {
    ("cauchy", "ngp"): "db4eef80d6e310746425eb4939a2777ccee900f4723cfebb22f5cf1da60c7c8d",
    ("cauchy", "cic"): "49248c2d036d086d65a125d8b90612e28b068474a86215a7e26a304d09c06d16",
    ("cauchy", "tsc"): "e66cb8c9b7838a31892e1595866b9676c2dc5641c8c29d07bdad7e999bbd6a11",
    ("offset", "ngp"): "d08693ac1808e9ae840589c3e9300230ca082a9450ef20b3f7c88829d6e7c0d7",
    ("offset", "cic"): "44f8e5af00144f29c3865a2a623fd1b9919a3e486e4b27074917176188512481",
    ("offset", "tsc"): "af1e877489680076908e37d69c12ef4757e5a19dd4fa46c4918d4faabe8090d1",
}


@pytest.mark.parametrize("kind, family", sorted(HOSTILE_DEPOSIT_3D_SHA256))
def test_hostile_deposit_3d_matches_recorded_bits(kind, family):
    """Bounding each 3D pass's radius leaves every deposited value's bits
    alone, on heavy tails and far from the origin."""
    grid = build_grid(_hostile_sample_3d(kind), kernel_constants(family, 3), 0.37)
    digest = hashlib.sha256(grid.values.tobytes()).hexdigest()
    assert digest == HOSTILE_DEPOSIT_3D_SHA256[kind, family]


# ---------------------------------------------------------------------------
# grid deposit: chunks of points
# ---------------------------------------------------------------------------

def _count_chunks(monkeypatch):
    """A list that gains one item per chunk a deposit takes."""
    chunks = []
    chunk_axes = estimator._chunk_axes
    monkeypatch.setattr(
        estimator, "_chunk_axes", lambda *args: chunks.append(1) or chunk_axes(*args)
    )
    return chunks


# sha256 of build_grid(...).values.tobytes() for a default_rng(5) standard
# normal sample, TSC, recorded before the deposit took its points in chunks.
MULTI_CHUNK_DEPOSIT_SHA256 = {
    (1, 300_000, 0.133): "cfc047e255532eafb49f520f81817c6b8962992feb7da870b2a566554b310403",
    (3, 100_000, 0.355): "1cf8d00b793f9fe422370ce39df53e43abf5fb19d753471622124f5463e2c10c",
}


@pytest.mark.parametrize("dim, Np, h", sorted(MULTI_CHUNK_DEPOSIT_SHA256))
def test_multi_chunk_deposit_matches_recorded_bits(dim, Np, h, monkeypatch):
    """A deposit over several chunks of the default size has the bits it
    had before the deposit was chunked."""
    chunks = _count_chunks(monkeypatch)
    sample = Sample(np.random.default_rng(5).standard_normal(Np if dim == 1 else (Np, dim)))
    grid = build_grid(sample, kernel_constants("tsc", dim), h)
    assert len(chunks) == -(-Np // estimator._POINT_CHUNK) > 1
    digest = hashlib.sha256(grid.values.tobytes()).hexdigest()
    assert digest == MULTI_CHUNK_DEPOSIT_SHA256[dim, Np, h]


@pytest.mark.parametrize("chunk", [1, 7, 257])
def test_recorded_deposits_keep_their_bits_in_small_chunks(chunk, monkeypatch):
    """The lattice and hostile deposits keep their recorded bits with the
    points taken 1, 7 or 257 at a time, each chunk deciding its own offset
    -1 test, zero-weight skips and in-range masks.  The 1D deposits run in
    many chunks; the 3D ones, whose grids hold more nodes than their
    samples have points, stay one chunk."""
    monkeypatch.setattr(estimator, "_POINT_CHUNK", chunk)
    chunks = _count_chunks(monkeypatch)
    pins = [
        (_lattice_sample(dim, 0.5), kernel_constants(family, dim), 0.5, digest)
        for (family, dim), digest in LATTICE_DEPOSIT_SHA256.items()
    ] + [
        (_hostile_sample(kind), kernel_constants(family, 1), 0.37, digest)
        for (kind, family), digest in HOSTILE_DEPOSIT_SHA256.items()
    ] + [
        (_hostile_sample_3d(kind), kernel_constants(family, 3), 0.37, digest)
        for (kind, family), digest in HOSTILE_DEPOSIT_3D_SHA256.items()
    ]
    for sample, kernel, h, digest in pins:
        chunks.clear()
        grid = build_grid(sample, kernel, h)
        assert hashlib.sha256(grid.values.tobytes()).hexdigest() == digest, kernel
        assert len(chunks) == (-(-sample.size_Np // chunk) if kernel.dim == 1 else 1)


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_3d_deposit_bits_do_not_depend_on_chunk_size(family, monkeypatch):
    """3000 points on multiples of h/2 in a small box, most of them on
    some support boundary: a 3D deposit in chunks of 7 or 257 points has
    the bits of one chunk, and equals direct evaluation at every node."""
    h = 0.5
    sample = Sample(np.random.default_rng(11).integers(-4, 5, (3000, 3)) * (h / 2))
    kernel = kernel_constants(family, 3)
    chunks = _count_chunks(monkeypatch)
    digests = set()
    for chunk in (7, 257, sample.size_Np):
        monkeypatch.setattr(estimator, "_POINT_CHUNK", chunk)
        chunks.clear()
        grid = build_grid(sample, kernel, h)
        assert len(chunks) == -(-sample.size_Np // chunk)
        digests.add(hashlib.sha256(grid.values.tobytes()).hexdigest())
    assert len(digests) == 1
    direct = estimate_density(sample, kernel, h, _node_mesh(grid)).reshape(grid.dims)
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("family, h", [("ngp", 0.8), ("cic", 0.5), ("tsc", 0.4)])
def test_3d_bits_do_not_depend_on_the_support_cutoff(family, h, monkeypatch):
    """Pairs past the support add +0.0 to sums that are >= +0.0, so the
    cutoff that drops them before the root moves no bit.  With it turned
    off (T = inf: every pair is kept and weighted under bounds that reach
    past the support), a continuous Gaussian's 3D deposit in chunks of 1,
    7 and the default size, and its recorded estimate over many chunks of
    pairs, keep their bits.  In chunks of one point, a culled pass of the
    first chunk keeps no point, so it adds nothing to its zeros; with the
    cutoff off, none is empty."""
    kernel = kernel_constants(family, 3)
    # Seed 76's first point lies past the support of every node at h = 3,
    # even NGP's sphere of radius 1/2 about its nearest node.
    sample = Sample(np.random.default_rng(76).standard_normal((1000, 3)))
    starts, seen, empty = [], [], []
    chunk_axes = estimator._chunk_axes

    def recorded_chunk(*args):
        starts.append(len(seen))
        return chunk_axes(*args)

    def deposits():
        digests = []
        for chunk in (1, 7, estimator._POINT_CHUNK):
            with monkeypatch.context() as sized:
                sized.setattr(estimator, "_POINT_CHUNK", chunk)
                sized.setattr(estimator, "_chunk_axes", recorded_chunk)
                sized.setattr(estimator, "np", _ScatterSpy(seen))
                starts.clear()
                seen.clear()
                grid = build_grid(sample, kernel, 3.0)
                assert len(starts) == -(-sample.size_Np // chunk)
                if chunk == 1:
                    empty.append(any(at.size == 0 for at in seen[:starts[1]]))
            digests.append(hashlib.sha256(grid.values.tobytes()).hexdigest())
        return digests

    def estimate():
        points, queries = _multi_chunk_3d_case("gauss")
        got = estimate_density(points, kernel, h, queries)
        return hashlib.sha256(got.tobytes()).hexdigest()

    with_cut = deposits(), estimate()
    monkeypatch.setattr(estimator, "_support_cutoff_sq", lambda h, support: np.inf)
    assert (deposits(), estimate()) == with_cut
    assert empty == [True, False]
    assert len(set(with_cut[0])) == 1
    assert with_cut[1] == MULTI_CHUNK_3D_ESTIMATE_SHA256["gauss", family, h]


# sha256 of build_grid(Sample(np.full((15, dim), 1e12)), ..., h).values.tobytes(),
# recorded before the deposit dropped its in-range masks.  At h = 0.0145
# and 0.1, |x| / h is 2^45.97 and 2^43.19.
COINCIDENT_DEPOSIT_SHA256 = {
    (1, "ngp", 0.0145): "b5f82e95d46319d6ad0caee741fed48022ddbdc14b5bffcff1151cdf79242ead",
    (1, "ngp", 0.1): "0e78deb868638ecc804c0d16d57d34a7f5db15eaff10c88db1d4d09e1a5c9f7c",
    (1, "cic", 0.0145): "65ac5da0fe5f19361576865856b4ddebe5a08333c6ada239bfe7531c7d3cce99",
    (1, "cic", 0.1): "04ddc28e7db1626776ad6701b3abbd84a41a651b65c91851e1509ce1deaf8fdc",
    (1, "tsc", 0.0145): "d05ed673876aab1ef58b9925e5ff2d0f55ee6661b3d253ee80e7f9eb52616be1",
    (1, "tsc", 0.1): "f764dcd87b1d7482e25c7eba8b7d08f44f4b79b43ad8e5fc4d5e52f4d55d2266",
    (3, "ngp", 0.0145): "a5645e7a3fa0866cde8842c4dab96567507c3d1a3c028b816bc63f6966367b70",
    (3, "ngp", 0.1): "7308d9f07920f4cc6a2af06ee8f449ac31ee0939241499e662abaf4f7bd05c16",
    (3, "cic", 0.0145): "1e223b47f88f4a22c8558d643365e0eb83d44f6d33871c1263fb74fc8d986cc5",
    (3, "cic", 0.1): "9b5505090f1cfdeac8349eae36394054c19d8f6a9784e177cff5b895aca30db4",
    (3, "tsc", 0.0145): "0dc0660268827224628e710684fcec954986d693aa4cf013e73802170b88416d",
    (3, "tsc", 0.1): "b26b1e340e8861386a906bfd677a882daa08bbbbacb7c9682aec36601e263d74",
}


# The same points at h of about two float spacings or a quarter of one.
COINCIDENT_PAST_THE_DOMAIN = [
    (dim, family, h) for dim in (1, 3) for family in ("ngp", "cic", "tsc")
    for h in (0.00027, 3.1e-05)
]


@pytest.mark.parametrize(
    "dim, family, h", sorted(COINCIDENT_DEPOSIT_SHA256) + COINCIDENT_PAST_THE_DOMAIN
)
def test_deposit_of_coincident_far_points_matches_recorded_bits(dim, family, h):
    """15 coincident points at 1e12, where floats lie 1.2e-4 apart.  At h
    of about 120 or 820 such spacings (|x| / h = 2^46.0 and 2^43.2) the
    grid has 3 to 5 nodes per axis, a point's one slot stands for every
    node, and every value keeps its recorded bits.  At h of about two
    spacings or a quarter of one (2^51.8 and 2^54.8), node positions
    round by whole nodes, and the deposit raises DomainError instead of
    depositing the wrong mass."""
    sample, kernel = Sample(np.full((15, dim), 1e12)), kernel_constants(family, dim)
    if (dim, family, h) in COINCIDENT_PAST_THE_DOMAIN:
        with pytest.raises(DomainError, match="offset is out of range"):
            build_grid(sample, kernel, h)
        return
    digest = hashlib.sha256(build_grid(sample, kernel, h).values.tobytes()).hexdigest()
    assert digest == COINCIDENT_DEPOSIT_SHA256[dim, family, h]


# sha256 of build_grid(_plane_sample(family), ..., 0.75).values.tobytes(),
# recorded before the deposit dropped its in-range masks.
PLANE_DEPOSIT_SHA256 = {
    "ngp": "3dffb1c00cd44a8bb65675b8ad0b19f4ca5dee525e1466b5c4f793da9113fef0",
    "cic": "9fb6cb11a0bf9f095057e2255327718c0af3ccd77b0d0a2cc258a8213f3a2549",
    "tsc": "6901407de8265d8929800131663eecfffafbf83c6359cac9438e5a3a5a35e128",
}


def _plane_sample(kernel, h):
    """3000 points on the plane x = 2^42 h + w h/2, on an h/2 lattice in y
    and z: every point's offset-0 node on x is the grid's first."""
    rng = np.random.default_rng(3)
    x = 2.0 ** 42 * h + 0.5 * kernel.width_w * h
    yz = rng.integers(0, 9, (3000, 2)) * (h / 2)
    return Sample(np.column_stack([np.full(3000, x), yz]))


@pytest.mark.parametrize("family", sorted(PLANE_DEPOSIT_SHA256))
def test_deposit_with_a_pass_wholly_off_the_grid_matches_recorded_bits(family):
    """At 2^42 h from zero the offset bounds' slack exceeds h, so offset -1
    of the x axis is kept although its nodes all lie before the grid: its
    passes land wholly off it, and _add_pass must add none of their sums.
    The grid has fewer nodes than the sample has points, so the passes go
    in by slices.  Every value keeps its recorded bits."""
    kernel, h = kernel_constants(family, 3), 0.75
    grid = build_grid(_plane_sample(kernel, h), kernel, h)
    assert hashlib.sha256(grid.values.tobytes()).hexdigest() == PLANE_DEPOSIT_SHA256[family]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_lattice_domain_boundary(family, dim):
    """A grid whose farthest node is exactly 2^48 h from zero deposits, on
    either side of zero, and equals direct evaluation there; one node
    further raises DomainError.  At h = 1 and h = 0.375 the boundary
    node is an exact float."""
    kernel = kernel_constants(family, dim)
    half = 0.5 * kernel.width_w
    for h in (1.0, 0.375):
        for sign in (1.0, -1.0):
            # the point's farthest node, ceil(x/h + w/2) in units of h, is 2^48
            x = sign * (2.0 ** 48 - half - 0.5) * h
            sample = Sample(np.full((1, dim), x))
            grid = build_grid(sample, kernel, h)
            nodes = np.atleast_1d(grid.origin)[0] / h + np.array([0, grid.dims[0] - 1])
            assert np.abs(nodes).max() == 2.0 ** 48
            assert grid.values.sum() > 0.0
            if dim == 1:
                direct = estimate_density(sample, kernel, h, grid.axis_coordinates(0))
                assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)
            with pytest.raises(DomainError, match="offset is out of range"):
                build_grid(Sample(np.full((1, dim), x + sign * h)), kernel, h)


def test_deposit_of_spread_far_points_past_the_lattice_domain_raises():
    """1D TSC with 30 points at 1e12 + k 2^-13 and h = 2.58e-5 (2^55.1 h)
    deposited 74.25 points' worth of weight, and now raises, as NGP3's
    all-zero grid of the coincident case [3-ngp-0.00027] does."""
    with pytest.raises(DomainError, match="offset is out of range"):
        build_grid(Sample(1e12 + np.arange(30) * 2.0 ** -13), TSC, 2.58e-5)


def _every_offset_kept(monkeypatch):
    """Turn the deposit's zero-weight skip off: the support cutoff T it
    tests an offset's nearest bound against is inf, so every offset -1..w
    of every axis is built and its pass run, and no pass is culled."""
    monkeypatch.setattr(estimator, "_support_cutoff_sq", lambda h, support: np.inf)


def _fuzz_deposit_sample(kind, rng, dim, h, w):
    """4000 points (600 in 1D) of one kind, in a box small enough that a
    3D deposit of them runs in chunks: a few ulps either side of support
    edges k h +- w h/2, on an h/2 lattice, or offset by 1e12."""
    shape = 600 if dim == 1 else (4000, dim)
    if kind == "edges":
        x = rng.integers(-1, 2, shape) * h + rng.choice([-0.5, 0.5], shape) * (w * h)
        return Sample(x + rng.integers(-3, 4, shape) * np.spacing(x))
    if kind == "lattice":
        return Sample(rng.integers(-6, 7, shape) * (h / 2))
    return Sample(1e12 + rng.uniform(-3.0, 3.0, shape) * h)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_deposit_bits_match_every_offset_kept(family, dim, monkeypatch):
    """Bounds derived from offset 0 skip only passes that add +0.0: on
    points a few ulps from support edges, on h/2 lattices and 1e12 from
    the origin, at h that are not powers of two, the deposit has the bits
    of the same deposit with every offset -1..w kept.  Each sample is
    deposited in small chunks, in one chunk, and, cut to its first 150
    points, onto a grid with more nodes than points, which in 3D is one
    chunk whose passes sum by the distinct nodes the points take."""
    kernel = kernel_constants(family, dim)
    rng = np.random.default_rng(59)
    distinct = []  # per chunk, whether its passes sum by distinct nodes
    chunk_axes = estimator._chunk_axes

    def recorded_chunk(*args):
        chunk = chunk_axes(*args)
        distinct.append(chunk[1] is not None)
        return chunk

    monkeypatch.setattr(estimator, "_chunk_axes", recorded_chunk)
    small = 61 if dim == 1 else 331  # 10 or 13 chunks of the full sample
    by_distinct_nodes = 0
    for kind in ("edges", "lattice", "offset"):
        for h in rng.uniform(0.1, 3.0, 24 if dim == 1 else 6):
            full = _fuzz_deposit_sample(kind, rng, dim, h, kernel.width_w)
            cut = Sample(full.points[:150])
            for sample, chunk in ((full, small), (full, 1 << 20), (cut, 61)):
                monkeypatch.setattr(estimator, "_POINT_CHUNK", chunk)
                distinct.clear()
                got = build_grid(sample, kernel, h).values
                if sample is full:
                    assert len(distinct) == -(-full.size_Np // chunk)
                by_distinct_nodes += distinct == [True]
                with monkeypatch.context() as every:
                    _every_offset_kept(every)
                    want = build_grid(sample, kernel, h).values
                assert got.tobytes() == want.tobytes(), (kind, h, chunk)
    assert (by_distinct_nodes > 0) == (dim == 3)


class _ScatterSpy:
    """numpy as the estimator module sees it, except that np.bincount and
    np.add.at record the index array each call sums at."""

    def __init__(self, seen):
        self.seen = seen
        self.add = self

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, index, *args, **kwargs):
        self.seen.append(index)
        return np.bincount(index, *args, **kwargs)

    def at(self, target, index, values):
        self.seen.append(index)
        np.add.at(target, index, values)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_deposit_builds_w_offsets_per_axis_and_one_index_per_chunk(family, dim, monkeypatch):
    """On a 1e5-point Gaussian every chunk keeps exactly the offsets
    0..w-1 of each axis.  An offset other than 0 is built only once it is
    kept, and offset 0 always is, so each chunk builds exactly w offsets
    per axis: never offset -1 or w, which carry no weight.  Every pass of
    a chunk sums at the one slot array the chunk made, and no pass makes
    an index array of its own, except the passes the support cutoff
    culls: exactly TSC3's 8 corner passes, each of which sums at the
    chunk's slots of the points it keeps, in point order."""
    kernel = kernel_constants(family, dim)
    w = kernel.width_w
    Np = 100_000
    sample = Sample(np.random.default_rng(13).standard_normal(Np if dim == 1 else (Np, dim)))
    kept, slots, seen = [], [], []
    axis_offsets, chunk_axes = estimator._axis_offsets, estimator._chunk_axes

    def counted_offsets(*args):
        kept.append([])
        for item in axis_offsets(*args):
            kept[-1].append(item[0])
            yield item

    def recorded_chunk(*args):
        chunk = chunk_axes(*args)
        slots.append(chunk[0])
        return chunk

    monkeypatch.setattr(estimator, "_axis_offsets", counted_offsets)
    monkeypatch.setattr(estimator, "_chunk_axes", recorded_chunk)
    monkeypatch.setattr(estimator, "np", _ScatterSpy(seen))
    build_grid(sample, kernel, 0.1 if dim == 1 else 0.4)
    n_chunks = -(-Np // estimator._POINT_CHUNK)
    assert len(slots) == n_chunks
    assert kept == [list(range(w))] * (dim * n_chunks)
    assert len(seen) == w ** dim * n_chunks
    corners = [family == "tsc" and dim == 3 and 1 not in key
               for key in itertools.product(range(w), repeat=dim)]
    for c, index in enumerate(slots):
        for corner, at in zip(corners, seen[c * w ** dim:(c + 1) * w ** dim]):
            if not corner:
                assert at is index
            else:  # some of the chunk's slots, in point order: a subsequence
                chunk_slots = iter(index.tolist())
                assert 0 < at.size < index.size
                assert all(slot in chunk_slots for slot in at.tolist())


class _CallSpy(_ScatterSpy):
    """_ScatterSpy that also records, per call that sums, its name and the
    dtype of the array np.add.at sums into."""

    def __init__(self, seen, calls):
        super().__init__(seen)
        self.calls = calls

    def bincount(self, index, *args, **kwargs):
        self.calls.append(("bincount", None))
        return super().bincount(index, *args, **kwargs)

    def at(self, target, index, values):
        self.calls.append(("add.at", target.dtype))
        super().at(target, index, values)


# (kernel, sample, h, chunk, whether the one chunk sums by distinct nodes):
# chunks of one point, where TSC3's first chunk has a culled pass that
# keeps no point; a 1D Gaussian in chunks of 2^15; one 3D chunk whose
# passes sum by the distinct nodes its points take.
ONE_RULE_DEPOSITS = {
    "tsc3-chunk-1": (TSC3, lambda: np.random.default_rng(76).standard_normal((1000, 3)),
                     3.0, 1, False),
    "tsc-chunked": (TSC, lambda: np.random.default_rng(13).standard_normal(100_000),
                    0.1, None, False),
    "cic3-distinct": (kernel_constants("cic", 3),
                      lambda: np.random.default_rng(5).uniform(-5.0, 5.0, (150, 3)),
                      0.25, None, True),
}


@pytest.mark.parametrize("case", sorted(ONE_RULE_DEPOSITS))
def test_deposit_sums_every_pass_of_every_chunk_with_add_at(case, monkeypatch):
    """Every chunk sums each of its passes by one rule, np.add.at into the
    pass's float accumulator, and the deposit never calls np.bincount:
    one np.add.at per pass and chunk, a culled pass that keeps no point
    included, each into a float64 array."""
    kernel, points, h, chunk, distinct = ONE_RULE_DEPOSITS[case]
    sample = Sample(points())
    kept, seen, calls, occupied = [], [], [], []
    axis_offsets, chunk_axes = estimator._axis_offsets, estimator._chunk_axes

    def counted_offsets(*args):
        kept.append(0)
        for item in axis_offsets(*args):
            kept[-1] += 1
            yield item

    def recorded_chunk(*args):
        chunk_slots = chunk_axes(*args)
        occupied.append(chunk_slots[1] is not None)
        return chunk_slots

    if chunk is not None:
        monkeypatch.setattr(estimator, "_POINT_CHUNK", chunk)
    monkeypatch.setattr(estimator, "_axis_offsets", counted_offsets)
    monkeypatch.setattr(estimator, "_chunk_axes", recorded_chunk)
    monkeypatch.setattr(estimator, "np", _CallSpy(seen, calls))
    build_grid(sample, kernel, h)
    d = kernel.dim
    assert len(kept) == d * len(occupied)
    passes = sum(math.prod(kept[c:c + d]) for c in range(0, len(kept), d))
    assert calls == [("add.at", np.dtype(float))] * passes
    assert occupied == [distinct] * len(occupied)
    assert any(at.size == 0 for at in seen) == (case == "tsc3-chunk-1")


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["cic", "tsc"])
def test_points_on_the_support_edge_keep_the_offsets_within_the_cutoff(family, dim, monkeypatch):
    """Every point lies exactly w h/2 from its offset-0 node on every axis,
    on the closed edge of the support, where CIC and TSC are +0.0.  Each
    axis keeps exactly the offsets whose nearest squared distance is at
    most T = _support_cutoff_sq(h, w/2): 0..w, offset 0 among them,
    although the kernel is zero at its radius.  Its passes add +0.0, and
    the grid has the bits of the deposit with every offset kept."""
    kernel, h = kernel_constants(family, dim), 0.5
    w = kernel.width_w
    # x - w h/2 lies on the lattice {k h}: it is x's offset-0 node.
    lattice = np.random.default_rng(23).integers(-6, 7, 400 if dim == 1 else (400, dim))
    sample = Sample(lattice * h + 0.5 * w * h)
    near_sq = []  # per axis, each offset it yields and its near**2
    axis_offsets = estimator._axis_offsets

    def recorded_offsets(*args):
        near_sq.append({})
        for item in axis_offsets(*args):
            near_sq[-1][item[0]] = item[2]
            yield item

    monkeypatch.setattr(estimator, "_axis_offsets", recorded_offsets)
    got = build_grid(sample, kernel, h).values
    kept = near_sq[:]
    near_sq.clear()
    with monkeypatch.context() as every:
        _every_offset_kept(every)
        want = build_grid(sample, kernel, h).values
    assert got.tobytes() == want.tobytes()
    cut = estimator._support_cutoff_sq(h, 0.5 * w)
    assert len(kept) == len(near_sq) == dim  # one chunk
    for axis_kept, axis_all in zip(kept, near_sq):
        assert sorted(axis_all) == list(range(-1, w + 1))
        assert axis_kept == {o: s for o, s in axis_all.items() if s <= cut}
        assert sorted(axis_kept) == list(range(w + 1))
        assert axis_all[0] == (0.5 * w * h) ** 2
        assert radial_profile(kernel, math.sqrt(axis_all[0]) / h) == 0.0


def _traced_peak(call, *args, **kwargs):
    """Bytes traced at the peak of one call, above those before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


# Traced peak of one deposit, in point-sized arrays of 8 Np bytes: 1D at
# Np = 2e5 and h = 0.133, 3D at Np = 2e4 and h = 0.5, a standard normal
# sample.  The 1D deposit runs in chunks, so its peak is a few chunk-sized
# arrays (1D was 6.01 before chunking, 0.99 before its offsets were built
# in one buffer).  The 3D samples fit in one chunk: the inner axes keep
# one squared distance per offset, the points' slots once for all passes,
# and the outermost axis streams its offsets, so a change that caches the
# outer axis again or keeps an index array per offset (NGP3 13.52, CIC3
# 17.42, TSC3 22.78 before; 10.52, 12.41 and 15.77 with one index array
# per pass) fails.
DEPOSIT_PEAK_POINT_ARRAYS = {
    ("ngp", 1): 0.67,
    ("cic", 1): 0.67,
    ("tsc", 1): 0.83,
    ("ngp", 3): 9.53,
    ("cic", 3): 11.43,
    ("tsc", 3): 14.79,
}


@pytest.mark.parametrize("family, dim", sorted(DEPOSIT_PEAK_POINT_ARRAYS))
def test_deposit_peak_memory(family, dim):
    Np, h = (200_000, 0.133) if dim == 1 else (20_000, 0.5)
    sample = Sample(np.random.default_rng(1).standard_normal(Np if dim == 1 else (Np, dim)))
    peak = _traced_peak(build_grid, sample, kernel_constants(family, dim), h)
    assert peak / (8 * Np) <= DEPOSIT_PEAK_POINT_ARRAYS[family, dim]


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_estimate_1d_peak_memory(family):
    """801 queries of a 1e6-point sample peak at the sorted copy of the
    sample, one buffer of the largest window's size and eight words per
    query: 9.32 MB for TSC at h = 0.1345, the 8 MB copy, a 1.29 MB window
    and 36 bytes per query (10.60 MB while each query's offsets and every
    branch's values took new arrays)."""
    kernel = kernel_constants(family, 1)
    Np, h = 1_000_000, 0.1345
    sample = Sample(np.random.default_rng(1).standard_normal(Np))
    queries = np.linspace(-5.0, 5.0, 801)
    pts = np.sort(sample.points)
    half = 0.5 * kernel.width_w * h
    window = np.max(np.searchsorted(pts, queries + half, side="right")
                    - np.searchsorted(pts, queries - half, side="left"))
    del pts
    peak = _traced_peak(estimate_density, sample, kernel, h, queries)
    assert peak <= 8 * (Np + window) + 64 * queries.size


# Traced peak of estimate_density on 2e5 default_rng(1) standard-normal 3D
# points at 500 default_rng(2) normal queries and h = 0.354, in bytes,
# rounded up to 10 kB, as read while the cell build ranked every axis and
# the columns with np.unique: about 9.1 point-sized arrays (14.14-14.19 MB
# with occupancy tables).
ESTIMATE_3D_PEAK_BYTES = {"ngp": 14_650_000, "cic": 14_620_000, "tsc": 14_620_000}


@pytest.mark.parametrize("family", sorted(ESTIMATE_3D_PEAK_BYTES))
def test_estimate_3d_peak_memory(family):
    """The cell list's sorted coordinates, its keys and the chunks of
    pairs: no table or array may raise the peak above the sort's."""
    sample = Sample(np.random.default_rng(1).standard_normal((200_000, 3)))
    queries = np.random.default_rng(2).standard_normal((500, 3))
    peak = _traced_peak(estimate_density, sample, kernel_constants(family, 3), 0.354, queries)
    assert peak <= ESTIMATE_3D_PEAK_BYTES[family]


def test_deposit_peak_memory_does_not_grow_with_Np():
    """A 1D TSC deposit of 1e6 points peaks at the bytes of one of 2e5
    points, 1.32 MB: its chunks' arrays, not the sample's (48 MB before
    chunking, 1.58 MB before its offsets were built in one buffer)."""
    sample = Sample(np.random.default_rng(1).standard_normal(1_000_000))
    assert _traced_peak(build_grid, sample, TSC, 0.133) <= 1_330_000


def test_deposit_peak_memory_on_a_grid_larger_than_the_sample():
    """Where the grid holds more nodes than the sample has points, the
    sample is one chunk, each pass sums its weights by the distinct nodes
    the points take and goes into the grid once summed: a clipped-Cauchy
    TSC3 deposit of 2e4 points onto 6.1e5 nodes peaks at 1.49 grid-sized
    arrays, the grid and the sample's point arrays (3.39 before chunking;
    2.42 while each pass summed into a grid-sized bincount; holding all 27
    passes' sums would add 27)."""
    sample = Sample(np.clip(np.random.default_rng(47).standard_cauchy((20_000, 3)), -8.0, 8.0))
    n_nodes = build_grid(sample, TSC3, 0.2).n_nodes
    assert _traced_peak(build_grid, sample, TSC3, 0.2) / (8 * n_nodes) <= 1.50


def test_laplacian_peak_memory():
    """The stencil sums into its result in place and the grid freezes that
    array rather than copying it: the Laplacian of a 60^3 grid peaks at the
    result and one temporary, two interior-sized arrays (3.0 with a new
    array per step, plus a copy)."""
    grid = Grid(origin=np.zeros(3), spacing=0.5,
                values=np.random.default_rng(3).uniform(size=(60, 60, 60)))
    assert _traced_peak(laplacian, grid) / (8 * 58 ** 3) <= 2.05


def test_library_grids_are_read_only_and_caller_arrays_are_copied():
    """A grid holds its own copy of the values a caller passes; the grids
    build_grid and laplacian return hold their arrays read-only."""
    values = np.arange(5.0)
    grid = Grid(origin=0.0, spacing=1.0, values=values)
    values[0] = 9.0
    assert grid.values[0] == 0.0
    built = build_grid(Sample(np.random.default_rng(2).standard_normal((50, 3))), TSC3, 0.5)
    for g in (grid, built, laplacian(built)):
        with pytest.raises(ValueError):
            g.values[(0,) * g.dim] = 1.0


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_every_built_grid_and_laplacian_is_read_only(family, dim):
    """build_grid and laplacian freeze the arrays they make, in every
    dimension and for every kernel."""
    points = np.random.default_rng(5).standard_normal(200 if dim == 1 else (200, dim))
    built = build_grid(Sample(points), kernel_constants(family, dim), 0.5)
    for g in (built, laplacian(built)):
        assert not g.values.flags.writeable
        assert dim == 1 or not g.origin.flags.writeable


@pytest.mark.parametrize("shape", [(1000,), (1000, 1), (1000, 3)])
def test_sample_copies_a_caller_array(shape):
    """Sample(a) holds its own copy: writing to a afterwards moves none of
    points, min, max or std."""
    a = np.random.default_rng(29).standard_normal(shape)
    want = Sample(a.copy())
    s = Sample(a)
    assert a.flags.writeable and not np.shares_memory(s.points, a)
    a[...] = 7.0
    assert np.array_equal(s.points, want.points)
    for got, expected in ((s.min, want.min), (s.max, want.max), (s.std, want.std)):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_grid_copies_a_caller_origin_and_values():
    """Grid(...) holds its own copies of a caller's origin and values."""
    origin, values = np.zeros(3), np.ones((4, 4, 4))
    grid = Grid(origin=origin, spacing=0.5, values=values)
    origin[0], values[0, 0, 0] = 9.0, 9.0
    assert np.array_equal(grid.origin, np.zeros(3))
    assert np.array_equal(grid.values, np.ones((4, 4, 4)))


def _node_mesh(grid):
    axes = [grid.axis_coordinates(a) for a in range(grid.dim)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
def test_deposit_matches_estimate_on_lattice_fuzz(family, dim):
    """Five points on multiples of h/2, many of them exactly on a support
    boundary, where the lowest node of a point's window is the one that
    rounding can push the window past: seeded fuzz over h, deposit against
    direct evaluation at every node."""
    kernel = kernel_constants(family, dim)
    rng = np.random.default_rng(2024)
    for _ in range(300 if dim == 1 else 100):
        h = rng.uniform(0.05, 8.0)
        s = Sample(rng.integers(-40, 41, (5, dim)) * (h / 2))
        grid = build_grid(s, kernel, h)
        if dim == 1:
            direct = estimate_density(s, kernel, h, grid.axis_coordinates(0))
        else:
            direct = estimate_density(s, kernel, h, _node_mesh(grid)).reshape(grid.dims)
        assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300, err_msg=repr(h))


def test_ngp_deposit_keeps_weight_past_rounded_window_start():
    """The window's first index rounds up past a node that two points at
    -15.5 h reach on NGP's closed edge; that node still gets their weight."""
    h = 4.8437750575852325
    xs = [-4.8437750575852325, -75.07851339257111, -79.92228845015633,
          9.687550115170465, -75.07851339257111]
    s = Sample(xs)
    grid = build_grid(s, NGP, h)
    direct = estimate_density(s, NGP, h, grid.axis_coordinates(0))
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)
    assert grid.values.max() * s.size_Np * h == 3.0


def test_tsc_deposit_needing_in_range_masks_matches_estimate():
    """A TSC lattice sample whose last offset's highest index rounds onto
    the padded grid's end and whose window start rounds past a node in a
    point's support: the deposit equals direct evaluation, in 1D and 3D."""
    h = 2.633294024376068
    xs = [-22.38299920719658, 32.91617530470085, -36.866116341264956,
          -19.74970518282051, -40.816057377829054]
    s, kernel = Sample(xs), kernel_constants("tsc", 1)
    grid = build_grid(s, kernel, h)
    direct = estimate_density(s, kernel, h, grid.axis_coordinates(0))
    assert_allclose(grid.values, direct, rtol=1e-12, atol=1e-300)

    pts = np.column_stack([xs, np.linspace(-0.3, 0.3, 5), np.linspace(0.2, -0.2, 5)])
    s3, kernel3 = Sample(pts), kernel_constants("tsc", 3)
    grid3 = build_grid(s3, kernel3, h)
    direct3 = estimate_density(s3, kernel3, h, _node_mesh(grid3)).reshape(grid3.dims)
    assert_allclose(grid3.values, direct3, rtol=1e-12, atol=1e-300)


def _boundary_sample_and_queries(h):
    """Queries with points at exactly 0, 0.5, 1 and 1.5 bandwidths on
    either side, where the kernels' closed branches meet."""
    queries = np.arange(-6, 7) * 0.75
    steps = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]) * h
    return Sample((queries[:, None] + steps).ravel()), np.concatenate([queries, [20.0]])


@pytest.mark.parametrize("family", ["ngp", "cic", "tsc"])
@pytest.mark.parametrize("kind", ["cauchy", "offset", "boundary", "boundary-inexact"])
def test_estimate_1d_matches_naive_sum_by_branch(kind, family):
    """Branch-resolved sums equal the naive sum over all points, and a
    query no point reaches stays exactly zero."""
    kernel = kernel_constants(family, 1)
    if kind.startswith("boundary"):
        h = 0.25 if kind == "boundary" else 0.3
        s, queries = _boundary_sample_and_queries(h)
    else:
        h = 0.37
        s = _hostile_sample(kind)
        centre = 0.0 if kind == "cauchy" else 1e12
        span = 70.0 if kind == "cauchy" else 6.0
        queries = np.concatenate([
            centre + np.linspace(-span, span, 401), s.points[:40],
            s.points[:20] + 0.5 * h, s.points[:20] - 1.5 * h,
        ])
    got = estimate_density(s, kernel, h, queries)
    naive = np.array(
        [np.sum(eval_kernel(kernel, (q - s.points) / h)) for q in queries]
    ) / (s.size_Np * h)
    assert_allclose(got, naive, rtol=1e-12, atol=1e-300)
    assert np.array_equal(got == 0.0, naive == 0.0)
    assert np.any(naive == 0.0) and np.any(naive > 0.0)


# ---------------------------------------------------------------------------
# equivariance properties
# ---------------------------------------------------------------------------

def test_translation_equivariance():
    """Shifting sample and queries by a constant leaves estimates alone."""
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 1.0, 300)
    queries = rng.uniform(-2.0, 2.0, 25)
    h, c = 0.42, 7.25
    base = estimate_density(Sample(pts), TSC, h, queries)
    moved = estimate_density(Sample(pts + c), TSC, h, queries + c)
    assert_allclose(moved, base, rtol=1e-12)

    pts3 = rng.normal(0.0, 1.0, (200, 3))
    q3 = rng.uniform(-1.5, 1.5, (20, 3))
    shift = np.array([3.5, -1.25, 0.75])
    base3 = estimate_density(Sample(pts3), TSC3, h, q3)
    moved3 = estimate_density(Sample(pts3 + shift), TSC3, h, q3 + shift)
    assert_allclose(moved3, base3, rtol=1e-12)


def test_grid_translation_by_lattice_step():
    """Shifting by an exact multiple of h shifts the grid, not the values."""
    rng = np.random.default_rng(14)
    s = Sample(rng.normal(0.0, 1.0, 200))
    h = 0.25
    c = 8 * h
    g0 = build_grid(s, TSC, h)
    g1 = build_grid(Sample(s.points + c), TSC, h)
    assert_allclose(g1.origin, g0.origin + c, rtol=1e-12)
    assert_allclose(g1.values, g0.values, rtol=1e-12, atol=1e-300)


def test_scale_relation():
    """x -> c x with h -> c h scales densities by 1/c (1D) and 1/c^3 (3D)."""
    rng = np.random.default_rng(23)
    c, h = 3.0, 0.5
    pts = rng.normal(0.0, 1.0, 250)
    queries = rng.uniform(-2.0, 2.0, 30)
    base = estimate_density(Sample(pts), TSC, h, queries)
    scaled = estimate_density(Sample(c * pts), TSC, c * h, c * queries)
    assert_allclose(scaled, base / c, rtol=1e-12)

    pts3 = rng.normal(0.0, 1.0, (150, 3))
    q3 = rng.uniform(-1.0, 1.0, (20, 3))
    base3 = estimate_density(Sample(pts3), TSC3, h, q3)
    scaled3 = estimate_density(Sample(c * pts3), TSC3, c * h, c * q3)
    assert_allclose(scaled3, base3 / c ** 3, rtol=1e-12)


def test_grid_scale_relation():
    """The deposit lattice is scale-consistent: same node indices, scaled
    coordinates, values divided by c."""
    rng = np.random.default_rng(29)
    s = Sample(rng.normal(0.0, 1.0, 300))
    c, h = 2.0, 0.3
    g0 = build_grid(s, TSC, h)
    g1 = build_grid(Sample(c * s.points), TSC, c * h)
    assert g1.n_nodes == g0.n_nodes
    assert_allclose(g1.origin, c * g0.origin, rtol=1e-12, atol=1e-300)
    assert_allclose(g1.values, g0.values / c, rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# finite-difference stencils
# ---------------------------------------------------------------------------

def test_second_derivative_examples():
    """Direct stencil arithmetic and exactness on low-order polynomials."""
    g = Grid(origin=0.0, spacing=1.0, values=np.array([0.0, 1.0, 0.0]))
    d2 = laplacian(g)
    assert d2.values.tolist() == [-2.0]
    assert d2.origin == 1.0 and d2.n_nodes == 1

    xs = -3.0 + 0.25 * np.arange(41)
    lin = Grid(origin=-3.0, spacing=0.25, values=2.0 * xs + 1.0)
    assert_allclose(laplacian(lin).values, 0.0, atol=1e-12)

    quad_vals = Grid(origin=-3.0, spacing=0.25, values=xs ** 2)
    assert_allclose(laplacian(quad_vals).values, 2.0, rtol=1e-10)


def test_second_derivative_exact_on_cubics():
    """Cubic terms cancel in the symmetric stencil."""
    spacing = 0.1
    xs = -2.0 + spacing * np.arange(51)
    g = Grid(origin=-2.0, spacing=spacing, values=xs ** 3 - 4.0 * xs)
    d2 = laplacian(g)
    assert_allclose(d2.values, 6.0 * xs[1:-1], rtol=1e-10, atol=1e-10)


def test_second_derivative_too_small():
    g = Grid(origin=0.0, spacing=1.0, values=np.array([1.0, 2.0]))
    with pytest.raises(GridTooSmall):
        laplacian(g)


def _grid3_from(fn, spacing, n):
    """Tabulate fn(x1,x2,x3) on an n^3 lattice centred at the origin."""
    ax = spacing * (np.arange(n) - (n - 1) / 2.0)
    x1, x2, x3 = np.meshgrid(ax, ax, ax, indexing="ij")
    return Grid(origin=np.array([ax[0]] * 3), spacing=spacing,
                  values=fn(x1, x2, x3))


def test_laplacian_examples():
    """Seven-point stencil values on simple fields."""
    g = _grid3_from(lambda a, b, c: a ** 2 + b ** 2 + c ** 2, 0.5, 9)
    lap = laplacian(g)
    assert lap.dims == (7, 7, 7)
    assert_allclose(lap.values, 6.0, rtol=1e-10)
    assert_allclose(lap.origin, g.origin + g.spacing, rtol=1e-12)

    const = _grid3_from(lambda a, b, c: np.full_like(a, 3.7), 0.5, 5)
    assert_allclose(laplacian(const).values, 0.0, atol=1e-12)

    mixed = _grid3_from(lambda a, b, c: a * b * c, 0.5, 7)
    assert_allclose(laplacian(mixed).values, 0.0, atol=1e-10)


def test_laplacian_too_small():
    vals = np.zeros((3, 3, 2))
    g = Grid(origin=np.zeros(3), spacing=1.0, values=vals)
    with pytest.raises(GridTooSmall):
        laplacian(g)


@pytest.mark.filterwarnings("error")
def test_laplacian_rejects_out_of_range_spacing():
    """A spacing whose square under- or overflows raises DomainError, not
    -inf with a RuntimeWarning or a bare OverflowError."""
    with pytest.raises(DomainError, match="out of range"):
        laplacian(Grid(0.0, 1e-200, [0.0, 1.0, 0.0]))
    with pytest.raises(DomainError, match="out of range"):
        laplacian(Grid(0.0, 1e200, [0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# quadrature of squared grids
# ---------------------------------------------------------------------------

def test_integrate_squared_1d_constant():
    g = Grid(origin=0.0, spacing=0.2, values=np.full(25, 3.0))
    assert_allclose(integrate_squared(g), 9.0 * 25 * 0.2, rtol=1e-15)


def test_integrate_squared_1d_gaussian_curvature():
    """Tabulated (x^2-1) phi(x) squared integrates to 3/(8 sqrt(pi))."""
    spacing = 1e-3
    xs = -8.0 + spacing * np.arange(int(16.0 / spacing) + 1)
    f2 = (xs ** 2 - 1.0) * np.exp(-0.5 * xs ** 2) / np.sqrt(2.0 * np.pi)
    g = Grid(origin=xs[0], spacing=spacing, values=f2)
    assert_allclose(integrate_squared(g), 0.21157, atol=1e-4)
    assert_allclose(integrate_squared(g), 3.0 / (8.0 * np.sqrt(np.pi)), atol=1e-4)


def test_integrate_squared_1d_radial_pdf_curvature():
    """Tabulated 12(r-1)/(1+r)^5 squared integrates to 88/7."""
    spacing = 1e-4
    rs = spacing * np.arange(int(200.0 / spacing) + 1)
    f2 = 12.0 * (rs - 1.0) / (1.0 + rs) ** 5
    g = Grid(origin=0.0, spacing=spacing, values=f2)
    assert_allclose(integrate_squared(g), 88.0 / 7.0, atol=1e-2)


def test_integrate_squared_3d_constant():
    g = Grid(origin=np.zeros(3), spacing=0.5,
               values=np.full((4, 5, 6), 2.0))
    assert_allclose(integrate_squared(g), 4.0 * 120 * 0.125, rtol=1e-15)


def test_integrate_squared_3d_gaussian_laplacian():
    """Tabulated (r^2-3) f(x) squared integrates to 15/(32 pi^1.5)."""
    spacing = 0.05
    n = int(12.0 / spacing) + 1
    ax = spacing * (np.arange(n) - (n - 1) / 2.0)
    x1, x2, x3 = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    lap = (r2 - 3.0) * np.exp(-0.5 * r2) / (2.0 * np.pi) ** 1.5
    g = Grid(origin=np.array([ax[0]] * 3), spacing=spacing, values=lap)
    assert_allclose(integrate_squared(g), 0.08418, atol=1e-3)
    assert_allclose(
        integrate_squared(g), 15.0 / (32.0 * np.pi ** 1.5), atol=1e-3
    )


def test_integrate_squared_rejects_underflowing_squares():
    """A sum of squares below the node count times the smallest normal
    float may have lost its precision to underflow: it raises DomainError.
    An all-zero grid still integrates to 0, and a sum just above the
    bound is kept.  A sum that overflows raises DomainError too."""
    tiny = Grid(origin=0.0, spacing=1.0, values=np.full(10, 1e-160))
    with pytest.raises(DomainError, match="scale is out of range"):
        integrate_squared(tiny)
    with pytest.raises(DomainError, match="scale is out of range"):
        integrate_squared(Grid(origin=0.0, spacing=1.0, values=[1e200, 1.0, 1.0]))
    assert integrate_squared(Grid(origin=0.0, spacing=1.0, values=np.zeros(10))) == 0.0
    small = Grid(origin=0.0, spacing=1.0, values=np.full(10, 1e-150))
    assert_allclose(integrate_squared(small), 1e-299, rtol=1e-15)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_non_positive_bandwidth_rejected():
    s = Sample(np.array([0.0, 1.0]))
    s3 = Sample(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    for h in (0.0, -0.5, float("nan")):
        with pytest.raises(NonPositiveBandwidth):
            estimate_density(s, TSC, h, [0.0])
        with pytest.raises(NonPositiveBandwidth):
            build_grid(s, TSC, h)
        with pytest.raises(NonPositiveBandwidth):
            estimate_density(s3, TSC3, h, np.zeros(3))
        with pytest.raises(NonPositiveBandwidth):
            build_grid(s3, TSC3, h)


def test_non_numeric_bandwidth_rejected():
    """A bandwidth that is not a number raises NonPositiveBandwidth, not a
    bare ValueError from float()."""
    s = Sample(np.array([0.0, 1.0]))
    for h in ("wide", None):
        with pytest.raises(NonPositiveBandwidth, match="bandwidth"):
            estimate_density(s, TSC, h, [0.0])
        with pytest.raises(NonPositiveBandwidth, match="bandwidth"):
            build_grid(s, TSC, h)


def test_estimate_rejects_a_dimension_other_than_1_or_3():
    """A hand-built 2D kernel and sample agree on d, but direct evaluation
    has kernel sums for d = 1 and 3 only: DomainError, not an IndexError
    from the 3D cell list."""
    kernel2 = Kernel("tsc", 2, 3, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="d = 1 and d = 3, not d = 2"):
        estimate_density(Sample(np.zeros((5, 2))), kernel2, 0.5, np.zeros((4, 2)))


@pytest.mark.parametrize("dim, axis", [(1, 1), (1, -1), (3, 3), (3, -1)])
def test_axis_coordinates_rejects_an_axis_outside_the_grid(dim, axis):
    """Only the axes 0..d-1 have coordinates; any other axis is a domain
    error, not numpy's IndexError or its count from the end."""
    grid = Grid(np.zeros(dim) if dim > 1 else 0.0, 0.5, np.ones((2,) * dim))
    with pytest.raises(DomainError, match="axis"):
        grid.axis_coordinates(axis)
    assert_array_equal(grid.axis_coordinates(dim - 1), [0.0, 0.5])


def test_sample_validation():
    with pytest.raises(DomainError):
        estimate_density(Sample(np.zeros((3, 2))), TSC, 0.5, 0.0)
    with pytest.raises(DomainError):
        Sample(np.array([0.0, np.inf]))
    with pytest.raises(DomainError):
        build_grid(Sample(np.zeros((5, 2))), TSC3, 0.5)
    with pytest.raises(DomainError):
        Sample(np.array([[0.0, 0.0, np.nan]]))


def test_grid_rejects_non_finite_spacing_or_origin():
    """An infinite spacing or a non-finite origin would make the stencil and
    quadrature of the grid nan without a word; the grid refuses them."""
    values = np.arange(5.0)
    for spacing in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(NonPositiveBandwidth):
            Grid(origin=0.0, spacing=spacing, values=values)
    for origin in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="origin"):
            Grid(origin=origin, spacing=1.0, values=values)
    with pytest.raises(DomainError, match="origin"):
        Grid(origin=np.array([0.0, -np.inf, 0.0]), spacing=1.0, values=np.zeros((3, 3, 3)))
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="values"):
            Grid(origin=0.0, spacing=1.0, values=[0.0, value, 1.0])
    grid = Grid(origin=-2.0, spacing=0.5, values=values)
    assert grid.spacing == 0.5 and grid.origin == -2.0


def test_sample_summaries():
    s = Sample(np.array([1.0, 3.0, 5.0]))
    assert s.size_Np == 3 and s.min == 1.0 and s.max == 5.0
    assert_allclose(s.std, np.std([1.0, 3.0, 5.0]), rtol=1e-15)
    pts = np.array([[0.0, 2.0, 4.0], [2.0, 6.0, 8.0]])
    s3 = Sample(pts)
    assert s3.size_Np == 2
    assert_allclose(s3.min, [0.0, 2.0, 4.0])
    assert_allclose(s3.max, [2.0, 6.0, 8.0])
    assert_allclose(s3.std, np.mean(np.std(pts, axis=0)), rtol=1e-15)


def test_sample_statistics_have_the_bits_of_numpys_reductions():
    """Sample.min, max and std reduce one column at a time, and keep the
    bits of numpy's reductions of the whole array along axis 0 at every n,
    d, 2^k scale and 1e12 offset tried, in C and in F order: numpy sums a
    C-ordered array's columns row after row and an F-ordered array's (or
    a 1D array) pairwise.  The selection's h0 depends on std's bits."""
    rng = np.random.default_rng(19)
    for n in (1, 2, 7, 129, 65537):
        for d in (1, 2, 3, 5):
            for k, offset in ((-30, 0.0), (0, 1e12), (30, -1e12), (int(rng.integers(-60, 61)), 0.0)):
                c_points = rng.standard_normal((n, d)) * 2.0 ** k + offset
                for points in (c_points, np.asfortranarray(c_points)):
                    s = Sample(points)
                    if d == 1:
                        points = points[:, 0]
                    assert np.asarray(s.min).tobytes() == np.asarray(points.min(axis=0)).tobytes()
                    assert np.asarray(s.max).tobytes() == np.asarray(points.max(axis=0)).tobytes()
                    std = float(np.mean(np.std(points, axis=0)))
                    assert s.std == std, (n, d, k, offset, points.flags.f_contiguous)


def test_sample_extrema_are_reduced_once_and_read_only(monkeypatch):
    """Sample.min and Sample.max are reduced on first use and kept, with
    the bits of np.min and np.max along axis 0, and the kept 3D arrays are
    read-only.  A whole selection of several deposits reduces each once."""
    rng = np.random.default_rng(23)
    for points in (rng.standard_normal(1000) * 1e12, rng.standard_normal((1000, 3)) + 1e12):
        s = Sample(points)
        for got, want in ((s.min, points.min(axis=0)), (s.max, points.max(axis=0))):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert s.min is s.min and s.max is s.max
        if points.ndim == 2:
            for extremum in (s.min, s.max):
                with pytest.raises(ValueError):
                    extremum[0] = 0.0
    reductions = []
    per_axis = Sample._per_axis
    monkeypatch.setattr(
        Sample, "_per_axis", lambda self, reduce: reductions.append(reduce) or per_axis(self, reduce)
    )
    trace = select_bandwidth(Sample(rng.standard_normal((20_000, 3))), TSC3)
    assert len(trace.iterations) > 1
    assert reductions.count(np.min) == reductions.count(np.max) == 1


def test_sample_std_peak_memory():
    """Sample.std of a (2e5, 3) sample, C- or F-ordered, holds one
    column-sized array at its peak (3.04 with np.std along axis 0)."""
    Np = 200_000
    points = np.random.default_rng(1).standard_normal((Np, 3))
    for sample in (Sample(points), Sample(np.asfortranarray(points))):
        assert _traced_peak(lambda: sample.std) / (8 * Np) <= 1.05


def test_sample_std_of_a_contiguous_axis_holds_one_block():
    """Sample.std of a 1e6-point 1D sample sums its squared deviations a
    block at a time: its traced peak stays under a tenth of the sample's
    bytes (np.std's one deviation per point read about one)."""
    points = np.random.default_rng(2).standard_normal(1_000_000)
    sample = Sample(points)
    assert _traced_peak(lambda: sample.std) <= 0.1 * points.nbytes


@pytest.mark.parametrize("n", [3 * 2 ** 15 + 5, 2 ** 20 + 3])
def test_sample_std_across_blocks_has_numpys_bits(n):
    """Sizes that split several times above a block, in 1D and in F order,
    at 2^k scales and 1e12 offsets, keep the bits of np.std."""
    rng = np.random.default_rng(n)
    for k, offset in ((-30, 0.0), (0, 1e12), (30, -1e12)):
        oned = rng.standard_normal(n) * 2.0 ** k + offset
        fortran = np.asfortranarray(rng.standard_normal((n, 3)) * 2.0 ** k + offset)
        for points in (oned, fortran):
            assert Sample(points).std == float(np.mean(np.std(points, axis=0))), (n, k)


def test_samples_are_immutable():
    s = Sample(np.array([0.0, 1.0]))
    with pytest.raises((ValueError, RuntimeError)):
        s.points[0] = 5.0
