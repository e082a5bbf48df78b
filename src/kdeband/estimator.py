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
identical node positions.  Both paths accept the same scale domain of
(h, Np, d), which ``_check_scale`` tests before any arithmetic: outside
it they raise DomainError.

Every type and function here serves any d, except the direct
evaluations, which are one per dimension (``estimate_density_1d`` and
``estimate_density_3d``).  ``build_grid`` also takes an optional keyword
``dim``, the dimension the caller expects of its inputs (a mismatch raises
DomainError); ``build_grid_1d`` and ``build_grid_3d`` are ``build_grid``
with ``dim`` fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DomainError,
    GridTooLarge,
    GridTooSmall,
    NonPositiveBandwidth,
    _out_of_range,
)
from .kernels import Kernel, common_dim, profile_branches, radial_profile

__all__ = [
    "Sample",
    "Grid",
    "estimate_density_1d",
    "estimate_density_3d",
    "build_grid",
    "build_grid_1d",
    "build_grid_3d",
    "laplacian",
    "integrate_squared",
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


def _check_finite(queries: np.ndarray) -> None:
    if not np.all(np.isfinite(queries)):
        raise DomainError("query_points must all be finite")


def _check_bandwidth(h: float) -> float:
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise NonPositiveBandwidth(f"bandwidth must be a positive finite real, got {h!r}")
    return h


def _check_count(Np) -> int:
    """A point count as an int; DomainError unless it is an integer >= 1."""
    count = int(Np) if np.isfinite(Np) else 0
    if count < 1 or count != Np:
        raise DomainError(f"Np must be a positive integer, got {Np!r}")
    return count


def _check_scale(h: float, Np: int, d: int) -> None:
    """DomainError unless (h, Np, d) lies in the scale domain of the grid
    deposit and of direct evaluation:

        2^-400 <= h <= 2^400,   h^d >= 2^-1000,   Np h^d <= 2^960,

    tested in log2, which cannot overflow.

    Both take a point's radius as sqrt(sum of dist^2) / h, where
    |dist| <= (w/2 + 1) h <= 5h/2 on every axis.  The first rule keeps
    every square finite, and it keeps normal every square of a
    |dist| >= 2^-54 h, below which each kernel's shape rounds to its
    central value (1, 1 - r, 3/4 - r^2) whatever the bits of r; it holds
    while 2^-457 <= h <= 2^509.  A normal square has sqrt(dist^2) == |dist|
    exactly, so the radii and weights are those at any other 2^k scaling
    of the sample and h, bit for bit, and in 1D those of |dist| / h.  The
    other two keep the normalisation Np h^d a normal float and the
    estimate, below 2 / h^d, finite.  A value whose kernel sum is below
    2^-62 times that of a point at the centre may round to a subnormal.
    """
    log_h = math.log2(h)
    if not (-400 <= log_h <= 400 and d * log_h >= -1000 and math.log2(Np) + d * log_h <= 960):
        raise DomainError(
            f"bandwidth scale is out of range: h = {h:g} with Np = {Np} in {d}D needs "
            "2^-400 <= h <= 2^400, h^d >= 2^-1000 and Np h^d <= 2^960"
        )


@dataclass(frozen=True)
class Sample:
    """An immutable sample of Np finite points in d dimensions.

    ``points`` has shape (Np,) when d = 1 and (Np, d) otherwise; an
    (Np, 1) array is stored as (Np,).
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 2 and pts.shape[1] == 1:
            pts = pts[:, 0]
        if pts.ndim not in (1, 2) or pts.size < 1:
            raise DomainError("Sample needs a non-empty (Np,) or (Np, d) array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("Sample points must all be finite")
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


@dataclass(frozen=True)
class Grid:
    """A regular grid of tabulated values in d = ``values.ndim`` dimensions.

    Node (i_1, ..., i_d) sits at ``origin + spacing * (i_1, ..., i_d)``.
    ``origin`` is a float when d = 1 and an array of shape (d,) otherwise.
    The spacing must be a positive finite real (else NonPositiveBandwidth),
    and the origin and values finite.
    """

    origin: float | np.ndarray
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        spacing = _check_bandwidth(self.spacing)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim < 1 or vals.size < 1:
            raise DomainError("Grid values must be a non-empty array")
        org = np.asarray(self.origin, dtype=float)
        if org.ndim > 1 or org.size != vals.ndim:
            raise DomainError("Grid origin must hold one coordinate per axis")
        if not (np.all(np.isfinite(org)) and np.all(np.isfinite(vals))):
            raise DomainError("Grid origin and values must all be finite")
        org = float(org.reshape(())) if vals.ndim == 1 else _frozen_array(org)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "spacing", spacing)
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


# ---------------------------------------------------------------------------
# Direct evaluation at query points
# ---------------------------------------------------------------------------

# Candidate (query, point) pairs estimate_density_3d expands at once; a
# chunk's arrays (about 0.5 MB each) stay in cache.
_PAIR_CHUNK = 1 << 16


def estimate_density_1d(sample: Sample, kernel: Kernel, h: float, query_points) -> np.ndarray:
    """Evaluate f_hat at arbitrary 1D query points.

    Uses a sorted copy of the sample and a search window of half-width
    w*h/2 per query, so points on the support boundary contribute
    according to the kernel's own closed branches.  Within a window the
    offsets u = (x - query)/h ascend, so the points on each branch of the
    kernel form two contiguous slices, found by bisection at the branch
    tops with the closed comparisons the kernel itself makes: every point
    takes the branch it would take in the kernel, and only that branch's
    expression is computed for it.
    """
    h = _check_bandwidth(h)
    common_dim(1, sample=sample.dim, kernel=kernel.dim)
    _check_scale(h, sample.size_Np, 1)
    queries = np.atleast_1d(np.asarray(query_points, dtype=float))
    if queries.ndim != 1:
        raise DomainError("query_points must be scalar or 1D")
    _check_finite(queries)
    pts = np.sort(sample.points)
    half = 0.5 * kernel.width_w * h
    # A point up to a few roundings outside [query - half, query + half]
    # can still land on the support's closed edge, |u| == w/2, so the
    # window reaches a little further; points it takes beyond the edge
    # fall outside every branch slice below.
    reach = half + 2.0 ** -40 * (np.abs(queries) + half)
    lo = np.searchsorted(pts, queries - reach, side="left")
    hi = np.searchsorted(pts, queries + reach, side="right")
    branches = profile_branches(kernel)
    tops = np.array([top for top, _ in branches])
    out = np.empty(queries.size, dtype=float)
    for q in range(queries.size):
        u = pts[lo[q]:hi[q]] - queries[q]
        u /= h
        # u ascends and |u| has the bits of |(query - x) / h|, so the points
        # with -top <= u <= top are those with |u| <= top: one contiguous
        # slice per top, and each branch's points are that slice less the
        # one before it, a piece on either side.
        left = np.searchsorted(u, -tops, side="left")
        right = np.searchsorted(u, tops, side="right")
        r = np.abs(u, out=u)
        total = 0.0
        inner_left = inner_right = left[0]
        for (_, shape), a, b in zip(branches, left, right):
            total += shape(r[a:inner_left]).sum() + shape(r[inner_right:b]).sum()
            inner_left, inner_right = a, b
        out[q] = total
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
    _check_scale(h, sample.size_Np, 3)
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

# Points a deposit takes at once: each of a chunk's point-sized arrays
# (256 kB) stays in cache, and the deposit's memory stops growing with Np.
_POINT_CHUNK = 1 << 15


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
    DEFAULT_GRID_CAP_1D in 1D, DEFAULT_GRID_CAP_3D otherwise); a span
    whose node count overflows raises GridTooLarge too.  (h, Np, d) must
    lie in the scale domain of _check_scale, else DomainError.

    Each point's weight goes to the nodes within its closed support
    window, one pass per combination of per-axis node offsets (see
    _axis_offsets and _deposit).  Offsets at which the kernel is zero for
    every point are skipped, which leaves every value bit for bit as it
    would be with every offset computed: TSC runs 3^d passes, CIC 2^d and
    NGP one, plus one more offset on an axis where some point lies exactly
    on the closed boundary of NGP's support or rounds onto a support's
    edge.

    The points are taken in chunks of ``_POINT_CHUNK``, so the deposit's
    point-sized arrays are a chunk's, whatever Np.  Each pass sums its
    weights into an accumulator of its own: the first chunk to run the
    pass starts it with a bincount, later chunks continue that sum with
    np.add.at, term by term in point order.  Once no later chunk can add
    to them, the accumulators go into the grid in pass order, offsets in
    lexicographic order with -1 first.  Every node thus sums the same
    terms in the same order as one pass over the whole sample would, and
    the grid adds the passes in the same order: a chunk skips only passes
    that would have added +0.0 for its points, and its tighter branch
    bounds are still bounds (see kernels.radial_profile).

    The accumulators take up to (w+1)^d n values, so the sample is chunked
    only where that is less than 2d(w+1) Np, two point-sized arrays per
    axis and offset: a round bound on what the whole sample in one chunk
    holds (6 to 16 such arrays, measured).  Otherwise, as when the grid
    has more nodes than the sample has points, the sample is one chunk and
    each pass goes into the grid as soon as it is summed.
    """
    h = _check_bandwidth(h)
    d = common_dim(dim, sample=sample.dim, kernel=kernel.dim)
    Np = sample.size_Np
    _check_scale(h, Np, d)
    cap = DEFAULT_GRID_CAP_1D if d == 1 else DEFAULT_GRID_CAP_3D
    cap = cap if grid_cap is None else int(grid_cap)
    pts = sample.points.reshape(Np, d)
    w = kernel.width_w
    half = 0.5 * w * h
    with _out_of_range("sample scale", "the grid's lattice origin"):
        origin = np.floor((pts.min(axis=0) - half) / h) * h
    with _out_of_range("sample span", "the grid's node count", GridTooLarge):
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
    chunk = _POINT_CHUNK if (w + 1) ** (d - 1) * n < 2 * d * Np else Np
    acc = np.zeros(n, dtype=float)
    held = {}  # each pass's sum over the chunks so far, by its offsets
    for start in range(0, Np, chunk):
        final = start + chunk >= Np
        _deposit(acc, held, final, kernel, h,
                 *_chunk_axes(pts[start:start + chunk], origin, dims, half, w, h, kernel))
    for key in sorted(held):
        acc += held.pop(key)
    acc /= Np * h ** d
    return Grid(origin=origin, spacing=h, values=acc.reshape(dims))


def _chunk_axes(points, origin, dims, half, w, h, kernel):
    """The flat index of each point's node at offset 0 on every axis, and
    per axis its flat-index stride and offsets (see _axis_offsets).

    The outermost axis's offsets are used once each, so they are streamed
    and one at a time is held; the inner axes' offsets serve every
    combination of the axes before them, so they are kept.
    """
    axes = []
    for a, x in enumerate(points.T):
        j0 = np.ceil((x - half - origin[a]) / h).astype(np.int64)
        stride = math.prod(dims[a + 1:])
        term = j0 if stride == 1 else j0 * stride
        base = term if a == 0 else base + term
        offsets = _axis_offsets(x, j0, origin[a], dims[a], half, w, h, kernel)
        axes.append((stride, offsets if a == 0 else list(offsets)))
    return base, axes


def _axis_offsets(x, j0, origin, n, half, w, h, kernel):
    """Yield, for each offset o in -1..w along one axis that can carry
    weight for the points x of one chunk: o, the in-range mask of node
    j0 + o (None when every node is in range), the squared distance
    dist**2 from each point to its node o steps from
    j0 = ceil((x - w h/2 - origin) / h), and bounds near**2, far**2 with
    near**2 <= dist_i**2 <= far**2 for every point of the chunk, all
    squares rounded.  Every per-point value is the one the whole sample
    gives; only the offsets kept, the masks built and the bounds depend on
    the chunk.

    In exact arithmetic j0 is the lowest node inside a point's closed
    support window, but the rounded quotient can land just above an
    integer and put j0 one node past a node that the kernel's own radius
    still reaches: offset -1.  It is computed only when offset 0's highest
    distance less h comes within rounding of -w h/2; below that, no
    point's support reaches it.

    With spacing == h at most w+1 nodes per axis can carry weight, and
    only w of them unless a point sits exactly on a support boundary.  An
    offset is skipped when the kernel is zero at the radius of the point
    nearest its node, ``radial_profile(kernel, sqrt(near**2) / h) == 0``.
    The deposit's radius sqrt(sum of dist**2) / h is never below that on
    any axis, and the profile never increases with r, so a skipped pass
    would have added +0.0 for every point of the chunk: the grid is
    bit-identical with or without it.  TSC thus keeps 3 of its offsets,
    CIC 2 and NGP 1, except where some point lies on the closed boundary.

    The padded grid holds every node unless rounding pushes one out, so
    an offset's in-range mask is built only when its lowest and highest
    nodes say it is needed.
    """
    first, last = int(j0.min()), int(j0.max())

    def offset(o):
        j = j0 + o
        ok = None if first + o >= 0 and last + o < n else (j >= 0) & (j < n)
        dist = origin + j * h - x
        ok = None if ok is None or ok.all() else ok
        return o, ok, dist, float(dist.min()), float(dist.max())

    def candidates():
        zero = offset(0)
        # Offset -1's distances are offset 0's less h, up to a few roundings
        # of numbers no larger than |origin| + n h; the last item of an
        # offset is its highest distance.
        if zero[-1] - h >= -half - 2.0 ** -40 * (abs(origin) + n * h):
            yield offset(-1)
        yield zero
        del zero  # a streamed offset's arrays must not outlive its pass
        for o in range(1, w + 1):
            yield offset(o)

    for o, ok, dist, lowest, highest in candidates():
        near, far = max(lowest, -highest, 0.0), max(-lowest, highest)
        near_sq = near * near
        if radial_profile(kernel, math.sqrt(near_sq) / h) == 0.0:
            continue
        dist *= dist
        yield o, ok, dist, near_sq, far * far


def _deposit(acc, held, final, kernel, h, base, axes, offsets=(), sq=None, mask=None,
             bounds_sq=(0.0, 0.0)):
    """Run each pass of one chunk, in lexicographic order of its per-axis
    offsets, outer axis first: sum the kernel weight of every point at
    that combination of offsets into the pass's accumulator in ``held``,
    keyed by the offsets.  In the ``final`` chunk, each pass then goes
    into the flat grid ``acc`` with every held pass before it, in key
    order.

    ``axes`` holds each axis's flat-index stride and offsets (see
    _axis_offsets), and ``base`` each point's flat index at offset 0 on
    every axis, so a pass's node index is ``base`` plus the sum of its
    offsets times their strides.  ``offsets``, ``sq``, ``mask`` and
    ``bounds_sq`` carry the offsets, the summed squared distance, the
    in-range mask and the sums of the squared (near, far) bounds of the
    axes before the next one.  At the last axis the radius is
    r = sqrt(sq) / h; the bounds, summed in the radius's own order, then
    rooted and divided by h, bound every rounded r, since each step is
    monotone.  They let the kernel compute only the branch they take (see
    kernels.radial_profile).  The outermost axis's offsets are streamed,
    so with one axis r takes the memory of its squares.
    """
    a = len(offsets)
    for o, ok, dist, near, far in axes[a][1]:
        key = offsets + (o,)
        m = ok if mask is None else mask if ok is None else mask & ok
        s = dist if sq is None else sq + dist
        near_sq, far_sq = bounds_sq[0] + near, bounds_sq[1] + far
        if a + 1 < len(axes):
            _deposit(acc, held, final, kernel, h, base, axes, key, s, m, (near_sq, far_sq))
            continue
        idx = base + sum(step * stride for step, (stride, _) in zip(key, axes))
        r = np.sqrt(s, out=s)
        if m is not None:
            idx, r = idx[m], r[m]
        r /= h
        bounds = (math.sqrt(near_sq) / h, math.sqrt(far_sq) / h)
        weights = radial_profile(kernel, r, bounds)
        if key in held:
            np.add.at(held[key], idx, weights)
        else:
            held[key] = np.bincount(idx, weights=weights, minlength=acc.size)
        del weights  # not to be held while the next pass is computed
        if final:  # no later chunk runs this pass or one before it
            for done in sorted(k for k in held if k <= key):
                acc += held.pop(done)


build_grid_1d = partial(build_grid, dim=1)
build_grid_3d = partial(build_grid, dim=3)


# ---------------------------------------------------------------------------
# Finite differences and quadrature on grids
# ---------------------------------------------------------------------------

def laplacian(grid: Grid) -> Grid:
    """(2d+1)-point Laplacian stencil on the interior of a grid.

    Sums (v[+1] + v[-1]) over the axes, subtracts 2d v and divides by
    spacing^2; for d = 1 this is the central second difference.  Each
    output dimension shrinks by 2 and the origin advances by one spacing
    along every axis.  A stencil that overflows, or a spacing whose
    square underflows to zero, raises DomainError.
    """
    v = grid.values
    d = grid.dim
    if min(v.shape) < 3:
        raise GridTooSmall("the Laplacian stencil needs at least 3 nodes per axis")
    inner = (slice(1, -1),) * d
    total = None
    for a in range(d):
        for side in (slice(2, None), slice(None, -2)):
            nb = v[inner[:a] + (side,) + inner[a + 1:]]
            total = nb if total is None else total + nb
    with _out_of_range("grid scale", "the Laplacian stencil"):
        lap = (total - 2.0 * d * v[inner]) / grid.spacing ** 2
    return Grid(origin=grid.origin + grid.spacing, spacing=grid.spacing, values=lap)


def integrate_squared(grid: Grid) -> float:
    """Node-sum quadrature of the squared grid: sum(v^2) * spacing^d.

    A square that underflows loses up to 2^-1075, so unless the sum is at
    least the node count times the smallest normal float, 2^-1022, it may
    have lost its precision: a non-zero grid whose sum is below that
    raises DomainError, as does a sum that overflows.
    """
    with _out_of_range("grid scale", "the node-sum quadrature"):
        total = np.sum(grid.values ** 2)
        if total < grid.n_nodes * np.finfo(float).tiny and np.any(grid.values):
            raise DomainError(
                "grid scale is out of range: squared values underflow in floating point"
            )
        return float(total * grid.spacing ** grid.dim)
