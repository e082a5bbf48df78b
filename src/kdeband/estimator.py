"""Kernel density estimation on samples and on regular grids.

The density estimate in d dimensions is

    f_hat(x) = 1 / (Np * h^d) * sum_i K((x - x_i) / h)

with K an assignment kernel from :mod:`kdeband.kernels`.  Samples, grids
and everything built on grids are generic in d, which is taken from the
sample's shape (Np, d).  Two evaluation paths are provided:

* direct evaluation at arbitrary query points (windowed sums in 1D,
  a cell list in 3D), and
* deposit onto a regular grid whose spacing equals the bandwidth h.

The grid path is what bandwidth selection consumes: because the nodes sit
exactly h apart, kernel weights only ever need to be evaluated at w+1
offsets per point and axis, and the (2d+1)-point Laplacian stencil below
(the central second difference when d = 1) has its noise properties
characterised in closed form.

Grids are anchored to the absolute lattice {k*h : k integer} rather than
to the sample minimum, so two samples with the same support tabulate onto
identical node positions.

The generic functions take an optional keyword ``dim``, the dimension
the caller expects of its inputs (a mismatch raises DomainError); each
``_1d``/``_3d`` name is its generic function with ``dim`` fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .errors import (
    DomainError,
    GridTooLarge,
    GridTooSmall,
    NonPositiveBandwidth,
)
from .kernels import Kernel, common_dim, eval_kernel_1d, radial_profile

__all__ = [
    "Sample",
    "Sample1D",
    "Sample3D",
    "Grid",
    "Grid1D",
    "Grid3D",
    "estimate_density_1d",
    "estimate_density_3d",
    "build_grid",
    "build_grid_1d",
    "build_grid_3d",
    "laplacian",
    "second_derivative_grid",
    "laplacian_grid",
    "integrate_squared",
    "integrate_squared_1d",
    "integrate_squared_3d",
    "DEFAULT_GRID_CAP_1D",
    "DEFAULT_GRID_CAP_3D",
]

# Safety caps on grid size (nodes in 1D, cells otherwise); build_grid
# accepts an override per call.
DEFAULT_GRID_CAP_1D = 10_000_000
DEFAULT_GRID_CAP_3D = 100_000_000


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """An immutable sample of Np finite points in d dimensions.

    ``points`` has shape (Np,) when d = 1 and (Np, d) otherwise; an
    (Np, 1) array is stored as (Np,).  Subclasses that set ``fixed_dim``
    accept only that d.
    """

    points: np.ndarray
    fixed_dim: ClassVar[int | None] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 2 and pts.shape[1] == 1:
            pts = pts[:, 0]
        if pts.ndim not in (1, 2) or pts.size < 1:
            raise DomainError(
                f"{type(self).__name__} needs a non-empty (Np,) or (Np, d) array"
            )
        common_dim(self.fixed_dim, points=1 if pts.ndim == 1 else pts.shape[1])
        if not np.all(np.isfinite(pts)):
            raise DomainError(f"{type(self).__name__} points must all be finite")
        object.__setattr__(self, "points", _frozen_array(pts))

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else int(self.points.shape[1])

    @property
    def size_Np(self) -> int:
        return int(self.points.shape[0])

    @property
    def min(self):
        """Per-axis minimum (a scalar when d = 1)."""
        return self.points.min(axis=0)

    @property
    def max(self):
        """Per-axis maximum (a scalar when d = 1)."""
        return self.points.max(axis=0)

    @property
    def std(self) -> float:
        """Mean of the per-axis standard deviations."""
        return float(np.mean(np.std(self.points, axis=0)))


class Sample1D(Sample):
    """A :class:`Sample` with d = 1: points of shape (Np,)."""

    fixed_dim = 1


class Sample3D(Sample):
    """A :class:`Sample` with d = 3: points of shape (Np, 3)."""

    fixed_dim = 3


@dataclass(frozen=True)
class Grid:
    """A regular grid of tabulated values in d = ``values.ndim`` dimensions.

    Node (i_1, ..., i_d) sits at ``origin + spacing * (i_1, ..., i_d)``.
    ``origin`` is a float when d = 1 and an array of shape (d,) otherwise.
    Subclasses that set ``fixed_dim`` accept only that d.
    """

    origin: float | np.ndarray
    spacing: float
    values: np.ndarray
    fixed_dim: ClassVar[int | None] = None

    def __post_init__(self):
        if not self.spacing > 0.0:
            raise NonPositiveBandwidth("grid spacing must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim < 1 or vals.size < 1:
            raise DomainError(f"{type(self).__name__} values must be a non-empty array")
        common_dim(self.fixed_dim, values=vals.ndim)
        org = np.asarray(self.origin, dtype=float)
        if org.ndim > 1 or org.size != vals.ndim:
            raise DomainError(
                f"{type(self).__name__} origin must hold one coordinate per axis"
            )
        org = float(org.reshape(())) if vals.ndim == 1 else _frozen_array(org)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "values", _frozen_array(vals))

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def n_nodes(self) -> int:
        return int(self.values.size)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(n) for n in self.values.shape)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return np.atleast_1d(self.origin)[axis] + self.spacing * np.arange(
            self.values.shape[axis]
        )

    def node_coordinates(self) -> np.ndarray:
        """Node positions of a 1D grid."""
        common_dim(1, grid=self.dim)
        return self.axis_coordinates(0)


class Grid1D(Grid):
    """A :class:`Grid` with d = 1."""

    fixed_dim = 1


class Grid3D(Grid):
    """A :class:`Grid` with d = 3."""

    fixed_dim = 3


def _check_finite(queries: np.ndarray) -> None:
    if not np.all(np.isfinite(queries)):
        raise DomainError("query_points must all be finite")


def _check_bandwidth(h: float) -> float:
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise NonPositiveBandwidth(f"bandwidth must be a positive finite real, got {h!r}")
    return h


# ---------------------------------------------------------------------------
# Direct evaluation at query points
# ---------------------------------------------------------------------------

# Candidate (query, point) pairs estimate_density_3d expands at once; a
# chunk's arrays (about 0.5 MB each) stay in cache.
_PAIR_CHUNK = 1 << 16


def estimate_density_1d(sample: Sample, kernel: Kernel, h: float, query_points) -> np.ndarray:
    """Evaluate f_hat at arbitrary 1D query points.

    Uses a sorted copy of the sample and a closed search window of
    half-width w*h/2 per query, so points exactly on the support boundary
    contribute according to the kernel's own closed branches.
    """
    h = _check_bandwidth(h)
    common_dim(1, sample=sample.dim, kernel=kernel.dim)
    queries = np.atleast_1d(np.asarray(query_points, dtype=float))
    if queries.ndim != 1:
        raise DomainError("query_points must be scalar or 1D")
    _check_finite(queries)
    pts = np.sort(sample.points)
    half = 0.5 * kernel.width_w * h
    lo = np.searchsorted(pts, queries - half, side="left")
    hi = np.searchsorted(pts, queries + half, side="right")
    out = np.empty(queries.size, dtype=float)
    for q in range(queries.size):
        u = (queries[q] - pts[lo[q]:hi[q]]) / h
        out[q] = np.sum(eval_kernel_1d(kernel, u))
    return out / (sample.size_Np * h)


def estimate_density_3d(sample: Sample, kernel: Kernel, h: float, query_points) -> np.ndarray:
    """Evaluate f_hat at arbitrary 3D query points via a cell list.

    The sample is sorted once by cubic cells of edge R/2, where R = w*h/2
    is the kernel's support radius, into one contiguous coordinate array
    per axis.  A query's support cube then spans five cells per axis, and
    the points of one (x, y) cell column inside it form one contiguous
    slice.  The (query, point) pairs of all queries are expanded together,
    in chunks of about ``_PAIR_CHUNK`` pairs, and summed per query with a
    bincount: cost scales with the candidate pairs, (5/4)^3 / (pi/6) = 3.7
    per pair inside the support sphere, not with queries x Np.

    Cells are numbered by their rank among the occupied cells of each axis,
    so neither a table nor a key grows with the bounding box.  Window
    bounds are floor((q -/+ R - ref) / edge), the arithmetic that bins the
    points, so a point at exactly R from a query along an axis is visited
    and weighted by the kernel's closed branch.
    """
    h = _check_bandwidth(h)
    common_dim(3, sample=sample.dim, kernel=kernel.dim)
    queries = np.asarray(query_points, dtype=float)
    if queries.ndim == 1 and queries.shape == (3,):
        queries = queries[None, :]
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise DomainError("query_points must have shape (M, 3)")
    _check_finite(queries)
    pts = sample.points
    support = 0.5 * kernel.width_w
    radius = support * h
    edge = 0.5 * radius
    ref = pts.min(axis=0)

    def cell(x, a):
        # Floats holding integers: an int64 cast could overflow on a wide
        # sample at small h.
        return np.floor((x - ref[a]) / edge)

    occupied, rank = [], []
    for a in range(3):
        cells, inverse = np.unique(cell(pts[:, a], a), return_inverse=True)
        occupied.append(cells)
        rank.append(inverse)
    columns, column = np.unique(rank[0] * occupied[1].size + rank[1], return_inverse=True)
    nz = occupied[2].size
    key = column * nz + rank[2]  # below Np**2: no int64 overflow
    order = np.argsort(key)
    key = key[order]
    coords = [pts[order, a] for a in range(3)]
    targets = [np.ascontiguousarray(queries[:, a]) for a in range(3)]

    # Per query and axis, the occupied cells in its window, as a half-open
    # range [first, stop) of ranks.
    first = np.empty(queries.shape, dtype=np.intp)
    stop = np.empty(queries.shape, dtype=np.intp)
    for a in range(3):
        first[:, a] = np.searchsorted(occupied[a], cell(targets[a] - radius, a), side="left")
        stop[:, a] = np.searchsorted(occupied[a], cell(targets[a] + radius, a), side="right")
    # One run per (query q, x rank, y rank) in a window whose column is
    # occupied: the slice [begin, begin + count) of the sorted sample.
    nx, ny = (stop - first)[:, :2].T
    per_query = nx * ny
    q = np.repeat(np.arange(queries.shape[0]), per_query)
    k = np.arange(q.size) - np.repeat(np.cumsum(per_query) - per_query, per_query)
    col = (first[q, 0] + k // ny[q]) * occupied[1].size + first[q, 1] + k % ny[q]
    c = np.minimum(np.searchsorted(columns, col), columns.size - 1)
    found = columns[c] == col
    q, c = q[found], c[found] * nz
    begin = np.searchsorted(key, c + first[q, 2])
    count = np.searchsorted(key, c + stop[q, 2]) - begin

    out = np.zeros(queries.shape[0], dtype=float)
    ends = np.cumsum(count)
    i = 0
    while i < count.size:
        # Runs i..j-1 hold at most _PAIR_CHUNK pairs, or run i alone more.
        j = max(int(np.searchsorted(ends, ends[i] - count[i] + _PAIR_CHUNK, side="right")), i + 1)
        n = count[i:j]
        owner = np.repeat(q[i:j], n)
        idx = np.arange(int(n.sum())) + np.repeat(begin[i:j] - (np.cumsum(n) - n), n)
        r = None
        for coord, target in zip(coords, targets):
            dist = coord.take(idx)
            dist -= np.repeat(target[q[i:j]], n)
            dist *= dist
            r = dist if r is None else np.add(r, dist, out=r)
        r = np.sqrt(r, out=r)
        r /= h
        inside = r <= support
        out += np.bincount(
            owner[inside], weights=radial_profile(kernel, r[inside]), minlength=out.size
        )
        i = j
    return out / (sample.size_Np * h ** 3)


# ---------------------------------------------------------------------------
# Grid deposit
# ---------------------------------------------------------------------------

def build_grid(
    sample: Sample,
    kernel: Kernel,
    h: float,
    *,
    grid_cap: int | None = None,
    dim: int | None = None,
) -> Grid:
    """Deposit the sample onto a regular grid with spacing exactly h.

    Along each axis the grid covers [min - w h/2, max + w h/2] and its
    origin is snapped down to the absolute lattice {k h}.  Tabulated
    values agree with estimate_density_1d / estimate_density_3d at the
    node positions.  ``grid_cap`` bounds the node count (default
    DEFAULT_GRID_CAP_1D in 1D, DEFAULT_GRID_CAP_3D otherwise).

    Each point's weight goes to the nodes within its closed support
    window, one bincount pass per combination of per-axis node offsets.
    Offsets at which the kernel is zero for every point are skipped (see
    _axis_offsets), which leaves every value bit for bit as it would be
    with all (w+1)^d passes: TSC runs 3^d passes, CIC 2^d and NGP one,
    plus one more offset on an axis where some point lies exactly on the
    closed boundary of NGP's support.
    """
    h = _check_bandwidth(h)
    d = common_dim(dim, sample=sample.dim, kernel=kernel.dim)
    cap = DEFAULT_GRID_CAP_1D if d == 1 else DEFAULT_GRID_CAP_3D
    cap = cap if grid_cap is None else int(grid_cap)
    pts = sample.points.reshape(sample.size_Np, d)
    w = kernel.width_w
    half = 0.5 * w * h
    origin = np.floor((pts.min(axis=0) - half) / h) * h
    dims = [
        int(np.ceil((top + half - low) / h)) + 1
        for top, low in zip(pts.max(axis=0), origin)
    ]
    n = math.prod(dims)
    if n > cap:
        raise GridTooLarge(
            f"{d}D grid would need {'x'.join(map(str, dims))} = {n} cells "
            f"at h={h:g}, above the cap of {cap}"
        )
    axes = [
        _axis_offsets(pts[:, a], origin[a], dims[a], half, w, h, kernel) for a in range(d)
    ]
    if d > 1:
        # Each axis's offsets are reused for every combination of the other
        # axes' offsets: compute them once.  A lone axis uses each once, so
        # it streams them instead.
        axes = [list(offsets) for offsets in axes]
    acc = np.zeros(n, dtype=float)
    _deposit(acc, axes, dims, kernel, h)
    values = acc.reshape(dims) / (sample.size_Np * h ** d)
    return Grid(origin=origin, spacing=h, values=values)


def _axis_offsets(x, origin, n, half, w, h, kernel):
    """Yield, for each offset o in 0..w along one axis that can carry
    weight: the index of each point's o-th node from the lowest one inside
    its closed support window, the in-range mask (None when every index is
    in range) and the signed distance from the point to that node.

    With spacing == h at most w+1 nodes per axis can carry weight, and
    only w of them unless a point sits exactly on a support boundary.  An
    offset is skipped when the kernel is zero at the radius of the point
    nearest its node, ``radial_profile(kernel, min_i |dist_i| / h) == 0``.
    The deposit's radius is never below |dist| on any axis (nor below
    sqrt(dist**2) rounded, which differs from |dist| only once dist**2
    underflows), and the profile never increases with r, so a skipped pass
    would have added +0.0 to every node: the grid is bit-identical with
    or without it.  TSC thus keeps 3 of its 4 offsets, CIC 2 of 3 and NGP
    1 of 2, except where some point lies on the closed boundary.
    """
    j0 = np.ceil((x - half - origin) / h).astype(np.int64)
    for o in range(w + 1):
        j = j0 + o
        # The mask comes first even for a skipped offset: in that order the
        # deposit's temporaries reuse freed heap and its peak memory is as
        # before the skip (2.4 MB less at Np = 5e5 in 1D than mask last).
        ok = (j >= 0) & (j < n)
        dist = origin + j * h - x
        near = max(float(dist.min()), -float(dist.max()), 0.0)
        if radial_profile(kernel, min(near, math.sqrt(near * near)) / h) == 0.0:
            continue
        yield j, (None if ok.all() else ok), dist


def _deposit(acc, axes, dims, kernel, h, a=0, index=None, sq=None, mask=None):
    """Add the kernel weight of every point at every combination of its
    per-axis offsets into the flat ``acc``, outer axis first.

    ``index``, ``sq`` and ``mask`` carry the flat node index (scaled for
    axis ``a``), squared distance and in-range mask of the axes before
    ``a``.
    """
    last = a == len(axes) - 1
    for j, ok, dist in axes[a]:
        idx = j if index is None else index + j
        m = ok if mask is None else mask if ok is None else mask & ok
        if not last:
            s = dist ** 2 if sq is None else sq + dist ** 2
            _deposit(acc, axes, dims, kernel, h, a + 1, idx * dims[a + 1], s, m)
            continue
        # A lone axis's radius is |dist| (sqrt(dist^2) would give the same).
        # Its offsets are streamed, so dist is used only here and r can
        # take its memory: the deposit's peak is one point-sized array less.
        r = np.abs(dist, out=dist) if sq is None else np.sqrt(sq + dist ** 2)
        if m is not None:
            idx, r = idx[m], r[m]
        r /= h
        acc += np.bincount(idx, weights=radial_profile(kernel, r), minlength=acc.size)


build_grid_1d = partial(build_grid, dim=1)
build_grid_3d = partial(build_grid, dim=3)


# ---------------------------------------------------------------------------
# Finite differences and quadrature on grids
# ---------------------------------------------------------------------------

def laplacian(grid: Grid, *, dim: int | None = None) -> Grid:
    """(2d+1)-point Laplacian stencil on the interior of a grid.

    Sums (v[+1] + v[-1]) over the axes, subtracts 2d v and divides by
    spacing^2; for d = 1 this is the central second difference.  Each
    output dimension shrinks by 2 and the origin advances by one spacing
    along every axis.
    """
    v = grid.values
    d = common_dim(dim, grid=grid.dim)
    if min(v.shape) < 3:
        raise GridTooSmall("the Laplacian stencil needs at least 3 nodes per axis")
    inner = (slice(1, -1),) * d
    total = None
    for a in range(d):
        for side in (slice(2, None), slice(None, -2)):
            nb = v[inner[:a] + (side,) + inner[a + 1:]]
            total = nb if total is None else total + nb
    lap = (total - 2.0 * d * v[inner]) / grid.spacing ** 2
    return Grid(origin=grid.origin + grid.spacing, spacing=grid.spacing, values=lap)


second_derivative_grid = partial(laplacian, dim=1)
laplacian_grid = partial(laplacian, dim=3)


def integrate_squared(grid: Grid, *, dim: int | None = None) -> float:
    """Node-sum quadrature of the squared grid: sum(v^2) * spacing^d."""
    d = common_dim(dim, grid=grid.dim)
    return float(np.sum(grid.values ** 2) * grid.spacing ** d)


integrate_squared_1d = partial(integrate_squared, dim=1)
integrate_squared_3d = partial(integrate_squared, dim=3)
