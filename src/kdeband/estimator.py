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
identical node positions.  Both paths read h and d through
``_check_scale``, which tests their one scale domain of (h, Np, d) before
any arithmetic, and a grid's nodes must lie within 2^48 h of zero:
outside, DomainError.

Every type and function here serves any d, and ``build_grid`` and
``estimate_density`` take d from the sample and the kernel, which must
agree.  Direct evaluation checks its inputs and scales its result once
for every d; only its kernel sums are one routine per dimension, so it
serves d = 1 and d = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    GridTooLarge,
    GridTooSmall,
    NonPositiveBandwidth,
    _check_count,
    _check_index,
    _float_array,
    _out_of_range,
    _positive_real,
)
from .kernels import (
    Kernel,
    _as_rows,
    _profile_in_place,
    common_dim,
    profile_branches,
)

__all__ = [
    "Sample",
    "Grid",
    "estimate_density",
    "build_grid",
    "laplacian",
    "integrate_squared",
    "DEFAULT_GRID_CAP_1D",
    "DEFAULT_GRID_CAP_3D",
]

# Safety caps on grid size (nodes in 1D, cells otherwise); build_grid
# accepts an override per call.
DEFAULT_GRID_CAP_1D = 10_000_000
DEFAULT_GRID_CAP_3D = 100_000_000


def _frozen_array(values, copy: bool = True) -> np.ndarray:
    """``values`` as a read-only float array: a new one, or with ``copy``
    false the array itself wherever it already is one."""
    arr = np.array(values, dtype=float, copy=copy or None)
    arr.setflags(write=False)
    return arr


def _adopt(cls, **fields):
    """A ``Sample`` or ``Grid`` of ``fields``, whose arrays nothing else
    refers to: checked as the constructor checks them, then frozen in
    place rather than copied.  Every sample and grid the library makes is
    built here; the constructors copy what a caller passes."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    obj.__post_init__(copy=False)
    return obj


def _check_scale(sample: Sample, kernel: Kernel, h) -> tuple[float, int]:
    """The bandwidth h as a float and the dimension d, which the sample
    and the kernel must share (else DomainError), for the grid deposit and
    direct evaluation alike.  h must be a positive finite real (else
    NonPositiveBandwidth), and (h, Np, d) must lie in their scale domain
    (else DomainError):

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
    h = _positive_real(h, "bandwidth", NonPositiveBandwidth)
    d = common_dim(None, sample=sample.dim, kernel=kernel.dim)
    Np = sample.size_Np
    log_h = math.log2(h)
    if not (-400 <= log_h <= 400 and d * log_h >= -1000 and math.log2(Np) + d * log_h <= 960):
        raise DomainError(
            f"bandwidth scale is out of range: h = {h:g} with Np = {Np} in {d}D needs "
            "2^-400 <= h <= 2^400, h^d >= 2^-1000 and Np h^d <= 2^960"
        )
    return h, d


def _support_cutoff_sq(h: float, support: float) -> float:
    """T, the largest float s with fl(fl(sqrt(s)) / h) <= support.

    sqrt and division by h > 0 are correctly rounded and monotone, so a
    summed square s has the radius sqrt(s) / h <= support exactly where
    s <= T: a cut at T keeps the same (point, node) or (query, point)
    pairs as a test of the radius, without the root and the division for
    the pairs it drops.  It is found from (support h)^2 by stepping one
    float at a time, which takes a few steps, since each step of s moves
    the radius by at most about one ulp.  ``math.sqrt`` rounds as
    ``np.sqrt`` does.
    """

    def radius(s):
        return math.sqrt(s) / h

    s = (support * h) ** 2
    while radius(s) > support:
        s = math.nextafter(s, 0.0)
    while radius(above := math.nextafter(s, math.inf)) <= support:
        s = above
    return s


def _contiguous_std(x):
    """np.std(x) of a contiguous 1D array, bit for bit, without an array
    the size of x.

    np.add.reduce sums a contiguous array pairwise: above 128 values it
    splits n at n/2 rounded down to a multiple of 8 (n // 16 * 8) and adds
    the halves' sums.  The squared deviations are split the same way, down
    to blocks of at most 2^15 values (256 kB), and each block is made and
    reduced whole, so the same terms add in the same order: numpy's bits.
    """
    n = x.shape[0]
    mean = np.add.reduce(x) / n

    def squares(part):
        if part.size > 1 << 15:
            half = part.size // 16 * 8
            return squares(part[:half]) + squares(part[half:])
        dev = part - mean
        return np.add.reduce(np.multiply(dev, dev, out=dev))

    return np.sqrt(squares(x) / n)


@dataclass(frozen=True)
class Sample:
    """An immutable sample of Np finite points in d dimensions.

    ``points`` has shape (Np,) when d = 1 and (Np, d) otherwise; an
    (Np, 1) array is stored as (Np,).  ``points`` is read-only: a sample
    holds a copy of the array a caller passes, and the samples the library
    makes (the samplers, the CLI's file load) freeze their own new array
    in place instead (``_adopt``).  ``min``, ``max`` and ``std`` are each
    reduced on first use and kept (``min`` and ``max`` read-only when
    d > 1): a selection reads the extrema at every deposit and std once,
    and one sample may serve many selections.
    """

    points: np.ndarray

    def __post_init__(self, copy: bool = True):
        pts = _float_array(self.points, "Sample points", finite=True)
        if pts.ndim == 2 and pts.shape[1] == 1:
            pts = pts[:, 0]
        if pts.ndim not in (1, 2) or pts.size < 1:
            raise DomainError("Sample needs a non-empty (Np,) or (Np, d) array")
        object.__setattr__(self, "points", _frozen_array(pts, copy))

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else int(self.points.shape[1])

    @property
    def size_Np(self) -> int:
        return int(self.points.shape[0])

    def _per_axis(self, reduce):
        # One column at a time: numpy reduces an (Np, d) array along axis 0
        # with an inner loop of length d over every row, several times
        # slower than d reductions of a column.
        pts = self.points
        return reduce(pts) if pts.ndim == 1 else _frozen_array([reduce(col) for col in pts.T])

    @cached_property
    def min(self):
        """Per-axis minimum (a scalar when d = 1), reduced once per sample."""
        return self._per_axis(np.min)

    @cached_property
    def max(self):
        """Per-axis maximum (a scalar when d = 1), reduced once per sample."""
        return self._per_axis(np.max)

    @cached_property
    def std(self) -> float:
        """Mean of the per-axis standard deviations, with the bits of
        ``np.mean(np.std(points, axis=0))``, reduced once per sample.

        numpy sums a contiguous axis pairwise: where each axis is one (1D,
        or an F-ordered (Np, d) array), this is np.std of each column,
        whose squared deviations are made and summed a block at a time
        (see _contiguous_std), so no temporary outgrows a block.  Along
        axis 0 of a C-ordered (Np, d) array numpy sums row after row, so
        there each column's sums are the last terms of a cumsum, which
        adds in that order, and the column's deviations reuse the cumsum's
        buffer: one column-sized array is live at a time.
        """
        pts = self.points
        if pts.T.flags.c_contiguous:
            return float(np.mean(self._per_axis(_contiguous_std)))
        n = pts.shape[0]
        buf = np.empty(n)
        stds = np.empty(pts.shape[1])
        for a, col in enumerate(pts.T):
            mean = np.cumsum(col, out=buf)[-1] / n
            np.subtract(col, mean, out=buf)
            np.square(buf, out=buf)
            stds[a] = np.sqrt(np.cumsum(buf, out=buf)[-1] / n)
        return float(np.mean(stds))


@dataclass(frozen=True)
class Grid:
    """A regular grid of tabulated values in d = ``values.ndim`` dimensions.

    Node (i_1, ..., i_d) sits at ``origin + spacing * (i_1, ..., i_d)``.
    ``origin`` is a float when d = 1 and an array of shape (d,) otherwise.
    The spacing must be a positive finite real (else NonPositiveBandwidth),
    and the origin and values finite.  The grid holds a read-only copy of
    the values a caller passes; the grids the library builds (build_grid,
    laplacian) freeze their own new array in place instead (``_adopt``).
    """

    origin: float | np.ndarray
    spacing: float
    values: np.ndarray

    def __post_init__(self, copy: bool = True):
        spacing = _positive_real(self.spacing, "grid spacing", NonPositiveBandwidth)
        vals = _float_array(self.values, "Grid values", finite=True)
        if vals.ndim < 1 or vals.size < 1:
            raise DomainError("Grid values must be a non-empty array")
        org = _float_array(self.origin, "Grid origin", finite=True)
        if org.ndim > 1 or org.size != vals.ndim:
            raise DomainError("Grid origin must hold one coordinate per axis")
        org = float(org.reshape(())) if vals.ndim == 1 else _frozen_array(org)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", _frozen_array(vals, copy))

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
        """Node positions along ``axis``, an index below d (0, ..., d - 1);
        any other axis raises DomainError."""
        axis = _check_index(axis, "axis", self.dim)
        return np.atleast_1d(self.origin)[axis] + self.spacing * np.arange(
            self.values.shape[axis]
        )


# ---------------------------------------------------------------------------
# Direct evaluation at query points
# ---------------------------------------------------------------------------

# Candidate (query, point) pairs the 3D kernel sums expand at once; a
# chunk's arrays (about 0.5 MB each) stay in cache.
_PAIR_CHUNK = 1 << 16


def estimate_density(sample: Sample, kernel: Kernel, h: float, query_points) -> np.ndarray:
    """Evaluate f_hat at arbitrary query points, one value per query.

    d is taken from the sample and the kernel, which must agree, and must
    be 1 or 3, else DomainError.  In 1D ``query_points`` is a scalar or a
    1D array; in 3D one 3-vector (a one-row array) or an (M, 3) array.
    (h, Np, d) must lie in the scale domain of _check_scale, and every
    query must be finite.  The kernel sums at the queries (_kernel_sums_1d
    and _kernel_sums_3d) are scaled once, by 1 / (Np h^d).
    """
    h, d = _check_scale(sample, kernel, h)
    if d not in (1, 3):
        raise DomainError(f"direct evaluation serves d = 1 and d = 3, not d = {d}")
    queries = np.atleast_1d(_float_array(query_points, "query_points", finite=True))
    if d == 3:
        queries = _as_rows(queries, d, "query_points")
    elif queries.ndim != 1:
        raise DomainError("query_points must be scalar or 1D")
    out = (_kernel_sums_1d if d == 1 else _kernel_sums_3d)(sample, kernel, h, queries)
    out /= sample.size_Np * h ** d
    return out


def _kernel_sums_1d(sample: Sample, kernel: Kernel, h: float, queries: np.ndarray) -> np.ndarray:
    """The kernel sums sum_i K((query - x_i) / h) at 1D queries.

    Uses a sorted copy of the sample and a search window of half-width
    w*h/2 per query, so points on the support boundary contribute
    according to the kernel's own closed branches.  Within a window the
    offsets u = (x - query)/h ascend, so the points on each branch of the
    kernel form two contiguous slices (one on the innermost branch), found
    by one bisection per query at every branch edge with the closed
    comparisons the kernel itself makes: every point takes the branch it
    would take in the kernel, and only that branch's expression is
    computed for it.

    The offsets of every query are computed in one buffer, sized to the
    largest window, and each branch overwrites its two slices of it with
    its values.  A branch's factor (1/2 on TSC's outer branch, else 1)
    multiplies the sum of its two slices' sums rather than each value:
    scaling by a power of two is exact while no value is subnormal (none
    is: see kernels._profile_in_place), so it commutes with every
    rounding of numpy's pairwise sums, and both give the same bits.
    """
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
    tops = np.array([top for top, _, _ in branches])
    # Every branch edge in one bisection per query: -top from the left,
    # and u <= top as u < nextafter(top, inf).
    edges = np.concatenate((-tops[::-1], np.nextafter(tops, np.inf)))
    out = np.empty(queries.size, dtype=float)
    buf = np.empty((hi - lo).max(initial=0))
    for q, (start, stop, query) in enumerate(zip(lo, hi, queries)):
        u = np.subtract(pts[start:stop], query, out=buf[:stop - start])
        u /= h
        # u ascends and |u| has the bits of |(query - x) / h|, so the points
        # with -top <= u <= top are those with |u| <= top: one contiguous
        # slice per top, innermost first, and each outer branch's points
        # are its slice less the one before it, a piece on either side.
        cut = np.searchsorted(u, edges)
        left, right = cut[tops.size - 1::-1], cut[tops.size:]
        r = np.abs(u, out=u)
        (_, evaluate, factor), *outer = branches
        total = factor * evaluate(r[left[0]:right[0]]).sum()
        for (_, evaluate, factor), a, b, a0, b0 in zip(outer, left[1:], right[1:], left, right):
            total += factor * (evaluate(r[a:a0]).sum() + evaluate(r[b0:b]).sum())
        out[q] = total
    return out


def _stable_argsort(key: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(key, kind="stable") of integer keys 0 <= key < bound.

    A stable sort has one permutation, whatever the keys' dtype.  Where
    bound <= 2^16 the keys fit a uint16, which numpy's stable sort
    radix-sorts: about a third of the time of the int64 sort at 2e5 keys.
    numpy's default sort is not stable, and the order it gives tied keys
    depends on the CPU and the numpy build.  Where bound * key.size fits
    an int64, the keys key * size + index are distinct and order as the
    stable sort orders key, so the default sort gives the stable
    permutation, at well under half the cost of kind="stable" on int64
    keys.  Otherwise the stable sort runs on the keys as they are.
    """
    if bound <= 1 << 16:
        return np.argsort(key.astype(np.uint16), kind="stable")
    size = key.size
    if bound * size < 2 ** 63:  # Python ints: the test cannot overflow
        return np.argsort(key * size + np.arange(size))
    return np.argsort(key, kind="stable")


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True), bit for bit, for a
    non-empty array of non-negative integers, or of floats holding them.

    Where the largest value is below values.size, an occupancy table ranks
    them without a sort: a presence array one longer than that value, its
    cumsum (each value's rank, plus one) and its flatnonzero (the distinct
    values), so the table is never longer than values.  Otherwise
    np.unique sorts them, so no table grows with the largest value.
    """
    top = values.max()
    if not top < values.size:
        return np.unique(values, return_inverse=True)
    slots = values.astype(np.intp, copy=False)
    present = np.zeros(int(top) + 1, dtype=bool)
    present[slots] = True
    rank = np.cumsum(present, dtype=np.intp)
    rank -= 1
    return np.flatnonzero(present).astype(values.dtype), rank.take(slots)


def _kernel_sums_3d(sample: Sample, kernel: Kernel, h: float, queries: np.ndarray) -> np.ndarray:
    """The kernel sums sum_i K((query - x_i) / h) at the rows of an (M, 3)
    array of queries, via a cell list.

    The sample is sorted once by cubic cells of edge R/2, where R = w*h/2
    is the kernel's support radius, into one contiguous coordinate array
    per axis, so the points of one (x, y) cell column in a range of z
    cells form one contiguous slice.  The sort is stable (see
    _stable_argsort): each cell keeps its points in sample order, so every
    query sums in the same order on every machine.  A query visits only the
    columns whose cells come within R of it in (x, y), and in each only
    the z cells within the chord sqrt(R^2 - d^2) of it, d the column's
    distance from the query in (x, y).  The (query, point) pairs of all
    queries are expanded together, in chunks of about ``_PAIR_CHUNK``
    pairs, and summed per query with a bincount: cost scales with the
    candidate pairs, about 2.4 per pair inside the support sphere (3.7
    over the whole cube of five cells per axis), not with queries x Np.
    A chunk keeps its pairs with r <= w/2 by index, in their order, by
    their summed squares s <= T (see _support_cutoff_sq), so only the kept
    pairs, about 41 % of them on a Gaussian, are rooted and divided by h.
    It weights them with the bounds (0, sqrt(T) / h), at most w/2: CIC and
    NGP compute their one branch, and TSC picks its branch per radius
    without testing the support again.

    Cells are numbered by their rank among the occupied cells of each axis,
    so no key grows with the bounding box.  Each axis's cells and the
    occupied (x, y) columns are ranked by an occupancy table where it is
    no longer than the sample, and by a sort otherwise (see _ranks), so no
    table outgrows the sample either; on a compact sample the stable sort
    of the cell keys is the one sort of Np values.  A point's cell is the
    floor of its coordinate in cell units, (x - ref) / edge.  A query's
    windows are taken in the same units, its coordinate t there clamped to
    within R + 2 cells of the sample's cells (a query farther out sees no
    cell either way), with margins: R widened by a relative 2^-30, and on
    each axis a slack of 2^-40 (|t| + R), taken off the gap to a column's
    cells and added to the chord.  Both are far larger than the roundings
    of the cell units and of a point's radius, so every point with
    r <= w/2 is visited, one at exactly R included, and that test alone
    decides which points are weighted, by the kernel's closed branches.
    """
    pts = sample.points
    support = 0.5 * kernel.width_w
    radius = support * h
    # Cells of edge R/3 would visit 1.9 candidates per pair inside the
    # sphere instead of 2.4, and evaluate 6-10 % faster, but they order
    # each query's sum otherwise, which moves the estimates' last bits.
    edge = 0.5 * radius
    ref = sample.min
    # Floats holding integers: an int64 cast could overflow on a wide
    # sample at small h.
    occupied, rank = [], []
    for a in range(3):
        cells, inverse = _ranks(np.floor((pts[:, a] - ref[a]) / edge))
        occupied.append(cells)
        rank.append(inverse)
    rows = occupied[1].size  # a column's number is rank_x * rows + rank_y
    columns, column = _ranks(rank[0] * rows + rank[1])
    nz = occupied[2].size
    key = column * nz + rank[2]  # below Np**2: no int64 overflow
    order = _stable_argsort(key, columns.size * nz)
    key = key[order]
    del rank, column  # point-sized, not to be held through the pair loop
    coords = [col.take(order) for col in pts.T]
    targets = [np.ascontiguousarray(queries[:, a]) for a in range(3)]

    # The window's radius in cell units, the queries there, clamped so that
    # t and its slack stay finite and bounded by the sample's span (a query
    # far out may overflow to +-inf first), and each query's slack per axis.
    reach = radius / edge * (1.0 + 2.0 ** -30)
    with np.errstate(over="ignore"):
        t = [
            np.clip((targets[a] - ref[a]) / edge, -(reach + 2.0), occupied[a][-1] + reach + 2.0)
            for a in range(3)
        ]
    slack = [2.0 ** -40 * (np.abs(ta) + reach) for ta in t]

    def window(a, center, half, q=slice(None)):
        # The ranks [first, stop) of the occupied cells along axis a that
        # hold a point within half +- the slack of the center.
        span = half + slack[a][q]
        return (np.searchsorted(occupied[a], np.floor(center - span), side="left"),
                np.searchsorted(occupied[a], np.floor(center + span), side="right"))

    # One pair per query q and occupied (x, y) column in its square window.
    (first_x, stop_x), (first_y, stop_y) = window(0, t[0], reach), window(1, t[1], reach)
    nx, ny = stop_x - first_x, stop_y - first_y
    per_query = nx * ny
    q = np.repeat(np.arange(queries.shape[0]), per_query)
    k = np.arange(q.size) - np.repeat(np.cumsum(per_query) - per_query, per_query)
    cx, cy = first_x[q] + k // ny[q], first_y[q] + k % ny[q]
    col = cx * rows + cy
    c = np.minimum(np.searchsorted(columns, col), columns.size - 1)
    # The square of the chord the sphere of radius reach cuts at the
    # column's least distance from the query, each axis's gap to the
    # column's cells less its slack.
    chord_sq = np.full(q.size, reach * reach)
    for a, cell in ((0, occupied[0][cx]), (1, occupied[1][cy])):
        ta = t[a][q]
        gap = np.maximum(np.maximum(cell - ta, ta - cell - 1.0) - slack[a][q], 0.0)
        chord_sq -= gap * gap
    kept = (columns[c] == col) & (chord_sq >= 0.0)
    q, c = q[kept], c[kept] * nz
    first_z, stop_z = window(2, t[2][q], np.sqrt(chord_sq[kept]), q)
    # Each pair's run: the slice [begin, begin + count) of the sorted sample.
    begin = np.searchsorted(key, c + first_z)
    count = np.searchsorted(key, c + stop_z) - begin

    cut = _support_cutoff_sq(h, support)
    bounds = (0.0, math.sqrt(cut) / h)  # the kept radii's: at most w/2
    out = np.zeros(queries.shape[0], dtype=float)
    ends = np.cumsum(count)
    i = 0
    while i < count.size:
        # Runs i..j-1 hold at most _PAIR_CHUNK pairs, or run i alone more.
        j = max(int(np.searchsorted(ends, ends[i] - count[i] + _PAIR_CHUNK, side="right")), i + 1)
        n = count[i:j]
        owner = np.repeat(q[i:j], n)
        idx = np.repeat(begin[i:j] - (np.cumsum(n) - n), n)
        idx += np.arange(idx.size)
        sq = None
        for coord, target in zip(coords, targets):
            dist = coord.take(idx)
            dist -= np.repeat(target[q[i:j]], n)
            dist *= dist
            sq = dist if sq is None else np.add(sq, dist, out=sq)
        inside = np.flatnonzero(sq <= cut)
        r = sq.take(inside)
        np.sqrt(r, out=r)
        r /= h
        weights = _profile_in_place(kernel, r, bounds)
        out += np.bincount(owner.take(inside), weights=weights, minlength=out.size)
        i = j
    return out


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
) -> Grid:
    """Deposit the sample onto a regular grid with spacing exactly h.

    Along each axis the grid covers [min - w h/2, max + w h/2], with the
    sample's per-axis extrema Sample.min and Sample.max, and its origin is
    snapped down to the absolute lattice {k h}.  Tabulated values agree
    with estimate_density at the node positions.
    The returned grid holds the deposit's own array, frozen, not a copy.
    ``grid_cap``, a count (an integer >= 1, else DomainError), bounds the
    node count (default DEFAULT_GRID_CAP_1D in 1D, DEFAULT_GRID_CAP_3D
    otherwise); a span whose node count overflows raises GridTooLarge too.
    (h, Np, d) must lie in the scale domain of _check_scale, and no node
    of the grid may lie more than 2^48 h from zero, else DomainError.

    The second rule lets every offset's node go unchecked.  Inside it,
    each distance ((j0 + o) h + origin) - x is within about
    2^-52 (|origin| + n h) <= h/16 of exact (n is far below 2^48 for any
    grid an array holds), and the quotient behind j0 within 1/32, so the
    offsets -1..w still reach every node the kernel's closed support
    holds.  The padded grid reaches w h/2 past the sample on each side,
    less at most 3h/32 that the origin rounds away, so a node off the
    grid is at least w h/2 + 29h/32 from every point: its computed radius
    exceeds w/2 + 27/32, and its weight is +0.0, which changes no node's
    bits wherever its slot lands, since every sum is >= +0.0.  The bound
    is 2^48 h rather than the 2^50 h this argument would still allow:
    from 2^49 h on, the rounding of far positions moves a selection by
    more than the lattice phase at zero does (-0.85 % to -2.42 % for 1D
    TSC, against -0.77 % to +0.17 %).  Farther out, positions round by
    whole nodes and mass is lost or gained.  The rule depends only on
    |x| / h, so it holds at every 2^k scaling.

    Each point's weight goes to the nodes within its closed support
    window, one pass per combination of per-axis node offsets (see
    _axis_offsets and _passes).  One threshold decides what may carry
    weight: T = _support_cutoff_sq(h, w/2), the largest squared distance
    whose radius is within the support.  An offset whose nearest bound on
    an axis lies past T for every point is skipped, and a culled pass
    keeps only its points within T; either leaves every value bit for bit
    as it would be with every offset computed.  TSC runs 3^d passes, CIC
    2^d and NGP one, plus one more offset on an axis where some point lies
    exactly on the closed boundary of the support or rounds onto its edge;
    for CIC and TSC such a pass adds +0.0.

    The points are taken in chunks of ``_POINT_CHUNK``, so the deposit's
    point-sized arrays are a chunk's, whatever Np, a contiguous copy of
    its coordinates among them (see _chunk_axes).  Each pass sums its
    weights into an accumulator of its own, at each point's slot, which
    every pass of a chunk shares: the flat index of the point's node at
    offset 0, a node of the grid (see _chunk_axes), so an accumulator has
    one slot per node.  A pass the support cutoff culls (see _passes: in
    TSC3 the 8 corner passes) sums only the points it keeps, at their
    slots, taken from the shared array in point order.  Every chunk sums
    by one rule: np.add.at into the pass's accumulator, zeros when the
    pass first runs, term by term in point order, so a sum starts at +0.0
    and every accumulator is a float array, even one that no point has
    reached.  A pass's offsets only decide which node a slot stands for, so
    they are applied once, as a shift, when the pass goes into the grid
    (_add_pass).  Once no later chunk can add to them, the accumulators go
    into the grid in pass order, offsets in lexicographic order with -1
    first.  Every node thus sums the same terms in the same order as one
    pass over the whole sample would, and the grid adds the passes in the
    same order: a chunk skips only passes, and a culled pass only points,
    that would have added +0.0, and its branch bounds, however loose, are
    still bounds (see kernels.radial_profile).

    The accumulators take up to (w+1)^d n values, so the sample is chunked
    only where that is less than 2d(w+1) Np, two point-sized arrays per
    axis and offset: a round bound on what the whole sample in one chunk
    holds (6 to 16 such arrays, measured).  Otherwise the sample is one
    chunk, each pass goes into the grid as soon as it is summed, and the
    slots are the distinct nodes the points take, so that a pass sums at
    most min(Np, n) values.  So the deposit has two slot modes: a chunked
    deposit's slots are nodes, a one-chunk deposit's the occupied nodes.
    """
    h, d = _check_scale(sample, kernel, h)
    Np = sample.size_Np
    cap = DEFAULT_GRID_CAP_1D if d == 1 else DEFAULT_GRID_CAP_3D
    cap = cap if grid_cap is None else _check_count(grid_cap, "grid_cap")
    pts = sample.points.reshape(Np, d)
    w = kernel.width_w
    half = 0.5 * w * h
    low, top = np.atleast_1d(sample.min), np.atleast_1d(sample.max)
    with _out_of_range("sample scale", "the grid's lattice origin"):
        node0 = np.floor((low - half) / h)  # the origin is node0 h, node0 an integer
        origin = node0 * h
    with _out_of_range("sample span", "the grid's node count", GridTooLarge):
        dims = [int(np.ceil((high + half - o) / h)) + 1 for high, o in zip(top, origin)]
    n = math.prod(dims)
    if n > cap:
        shape = f"{'x'.join(map(str, dims))} = " if d > 1 else ""
        raise GridTooLarge(
            f"{d}D grid would need {shape}{n} cells at h={h:g}, above the cap of {cap}"
        )
    farthest = max(max(abs(k), abs(k + m - 1)) for k, m in zip(node0, dims))  # in units of h
    if farthest > 2.0 ** 48:
        raise DomainError(
            f"sample offset is out of range: at h = {h:g} the grid's farthest node lies "
            f"2^{math.log2(farthest):.2f} h from zero, above 2^48 h, where node positions "
            "round by more than h/32"
        )
    strides = [math.prod(dims[a + 1:]) for a in range(d)]
    one_chunk = (w + 1) ** (d - 1) * n >= 2 * d * Np
    chunk = Np if one_chunk else _POINT_CHUNK
    cut = _support_cutoff_sq(h, 0.5 * w)
    acc = np.zeros(n, dtype=float)
    held = {}  # each pass's sums over the chunks so far, by its offsets
    for start in range(0, Np, chunk):
        final = start + chunk >= Np
        columns = pts[start:start + chunk].T
        if chunk < Np:  # a column of an (Np, d) array strides over d values
            columns = np.ascontiguousarray(columns)
        slots, occupied, axes = _chunk_axes(columns, origin, dims, half, w, h, cut, one_chunk)
        size = n if occupied is None else occupied.size
        for key, weights, keep in _passes(kernel, h, cut, axes):
            index = slots if keep is None else slots.take(keep)
            if key not in held:
                held[key] = np.zeros(size)
            np.add.at(held[key], index, weights)
            del weights, index  # not to be held while the next pass is computed
            if final:  # no later chunk runs this pass or one before it
                for done in sorted(k for k in held if k <= key):
                    _add_pass(acc, held.pop(done), done, strides, occupied)
    for key in sorted(held):
        _add_pass(acc, held.pop(key), key, strides, occupied)
    acc /= Np * h ** d
    return _adopt(Grid, origin=origin, spacing=h, values=acc.reshape(dims))


def _add_pass(acc, sums, offsets, strides, occupied):
    """Add the sums of the pass at ``offsets`` into the flat grid ``acc``.

    Slot p stands for node p at offset 0 (see _chunk_axes), and at the
    pass's offsets for node p + shift, with shift = sum_a o_a stride_a; or,
    where ``occupied`` holds the chunk's distinct node indices in ascending
    order, for node occupied[p] + shift.  A slot that lands outside the
    grid holds only points whose node at this pass is off the grid, whose
    weights are +0.0 (see build_grid), and is dropped; the empty-range
    guard keeps a pass that lands wholly off the grid from adding anything.
    """
    shift = sum(o * stride for o, stride in zip(offsets, strides))
    if occupied is None:
        lo, hi = max(shift, 0), min(acc.size, sums.size + shift)
        if lo < hi:
            acc[lo:hi] += sums[lo - shift:hi - shift]
    else:
        lo, hi = np.searchsorted(occupied, (-shift, acc.size - shift))
        acc[occupied[lo:hi] + shift] += sums[lo:hi]


def _chunk_axes(columns, origin, dims, half, w, h, cut, distinct):
    """Each point's slot, the slots occupied, and per axis the offsets (see
    _axis_offsets) of the points of one chunk, given as one coordinate
    array per axis (a (d, chunk) array).

    Where the sample is cut into chunks, build_grid copies each chunk's
    columns to contiguous memory once, since j0 and every offset of an
    axis read its column: in place, a column of an (Np, d) array strides
    over d values.  A chunk that is the whole sample reads the sample's
    columns in place, so the one-chunk deposit holds no copy of the
    sample; a 1D sample's one column is contiguous either way.

    A point's slot is the flat index sum_a j0_a stride_a of its node at
    offset 0 on every axis, with j0 = ceil((x - w h/2 - origin) / h) on
    each axis, and ``occupied`` is None.  That node lies on the grid: the
    origin is snapped down from min - w h/2, so every j0 is >= 0 (at worst
    -0.0, where the snap rounds up by less than a node), and the grid
    reaches w h/2 past the maximum, so j0 is below the axis's node count.
    Where ``distinct``, the point's slot is instead its rank among the
    chunk's distinct node indices, which ``occupied`` holds in ascending
    order (see _ranks).  Every pass of the chunk sums its weights at these
    slots.  ``cut`` is T of _support_cutoff_sq, which decides each axis's
    offsets (see _axis_offsets).

    Each axis holds one array of its points' j0, as floats, which its
    offsets reuse.  The outermost axis's offsets are used once each, so
    they are streamed and one at a time is held; the inner axes' offsets
    serve every combination of the axes before them, so they are kept.
    """
    j0 = [np.ceil((x - half - origin[a]) / h) for a, x in enumerate(columns)]
    # Exact: every j0 is an integer, and every partial index is below n.
    slots = j0[0].astype(np.int64)
    for a in range(1, len(j0)):
        slots *= dims[a]
        slots += j0[a].astype(np.int64)
    occupied = None
    if distinct:
        occupied, slots = _ranks(slots)
    # One axis's radius is |dist| / h, the bits of sqrt(dist**2) / h (see
    # _check_scale); more axes sum their squares.
    part = np.abs if len(j0) == 1 else np.square
    axes = [
        _axis_offsets(x, j, origin[a], dims[a], w, h, cut, part)
        for a, (x, j) in enumerate(zip(columns, j0))
    ]
    return slots, occupied, [axes[0]] + [list(offsets) for offsets in axes[1:]]


def _axis_offsets(x, j0, origin, n, w, h, cut, part):
    """Yield, for each offset o in -1..w along one axis that can carry
    weight for the points x of one chunk: o, part(dist) of the distance
    dist from each point to its node o steps from
    j0 = ceil((x - w h/2 - origin) / h), computed in place in an array of
    floats (``part`` is np.square, or np.abs where the chunk has one
    axis), and bounds near**2, far**2 with near**2 <= dist_i**2 <=
    far**2 for every point of the chunk, all squares rounded.  Every
    per-point value is the one the whole sample gives; only the offsets
    kept and the bounds depend on the chunk.  A node j0 + o off the grid
    needs no mask: its distance puts it outside the kernel's support (see
    build_grid).

    Each distance is computed as ((j0 + o) h + origin) - x in one buffer.
    j0 + o is an exact integer, so these are the bits of
    origin + (j0 + o) h - x.

    In exact arithmetic j0 is the lowest node inside a point's closed
    support window, but the rounded quotient can land just above an
    integer and put j0 one node past a node that the kernel's own radius
    still reaches: offset -1.  With spacing == h at most w+1 nodes per
    axis can carry weight, and only w of them unless a point sits exactly
    on a support boundary.

    Only offset 0 is reduced: its lowest and highest distance, measured.
    Every other offset's distances are offset 0's plus o h, up to the
    roundings of the products j h, of the sums with origin and of the
    differences with x, each at most 2^-53 of a magnitude below
    |origin| + (n + 2w) h, and of o h and its sum with the bound: a few
    times 2^-52 (|origin| + n h) in all, where n >= w + 1.  So offset o's
    distances lie within lowest + o h - slack and highest + o h + slack,
    with slack = 2^-40 (|origin| + n h), hundreds of times those
    roundings.  An offset is kept where the nearest such bound is within
    the support, near**2 <= ``cut``, the T of _support_cutoff_sq: exactly
    where its radius sqrt(near**2) / h is at most w/2.  The deposit's
    radius sqrt(sum of dist**2) / h is never below that on any axis, so a
    skipped offset's passes would have added +0.0 for every point of the
    chunk: the grid is bit-identical with or without them.  On continuous
    data the point nearest a support edge sits far more than the slack
    inside it (about h / 2^15 in a chunk of 2^15 points), so TSC keeps 3
    of its offsets, CIC 2 and NGP 1.  On a lattice, a chunk whose nearest
    point lies on the closed boundary, at radius w/2 exactly, keeps one
    more: NGP weights that point, and for CIC and TSC, whose shape is +0.0
    at w/2, the offset's passes add +0.0, which leaves every bit alone too.
    """
    slack = 2.0 ** -40 * (abs(origin) + n * h)

    def offset(o):
        if o:
            dist = j0 + o
            dist *= h
        else:
            dist = j0 * h
        dist += origin
        dist -= x
        return dist

    zero = offset(0)
    lowest, highest = float(zero.min()), float(zero.max())
    for o in range(-1, w + 1):
        widen = slack if o else 0.0
        lo, hi = lowest + o * h - widen, highest + o * h + widen
        near, far = max(lo, -hi, 0.0), max(-lo, hi)
        near_sq = near * near
        if near_sq <= cut:
            dist = offset(o) if o else zero
            yield o, part(dist, out=dist), near_sq, far * far
            del dist
        if o == 0:
            zero = None  # a streamed offset's arrays must not outlive its pass


def _passes(kernel, h, cut, axes, offsets=(), sq=None, bounds_sq=(0.0, 0.0)):
    """Yield each pass of one chunk, in lexicographic order of its per-axis
    offsets, outer axis first: the offsets and the kernel weight of every
    point at them (of the points it keeps, where it is culled: see
    below), which is +0.0 where the point's node is off the grid (see
    build_grid).

    ``axes`` holds each axis's offsets (see _axis_offsets).  ``offsets``,
    ``sq`` and ``bounds_sq`` carry the offsets, the summed squared
    distance and the sums of the squared (near, far) bounds of the axes
    before the next one.  At the last axis the radius is r = sqrt(sq) / h,
    or |dist| / h with one axis, which has the same bits (see
    _check_scale); the bounds, summed in the radius's own order, then
    rooted and divided by h, bound every rounded r, since each step is
    monotone.  They let the kernel compute only the branch they take (see
    kernels.radial_profile).  The outermost axis's offsets are streamed,
    so with one axis r is its offset's own array of distances, and the
    kernel's values overwrite it.

    In d > 1 a pass whose bounds say most of it is zero, where
    lo >= w/4 and hi > w/2, is culled before the root: it keeps, by index
    in point order, the points whose summed square is at most ``cut``, the
    T of _support_cutoff_sq by which _axis_offsets kept the offsets, which
    are exactly those with r <= w/2, and computes r and the weights for
    them alone, under the bounds (lo, sqrt(T) / h).  A pass of an offset
    kept on a lattice with its nearest point at r = w/2 exactly is +0.0
    throughout for CIC and TSC.  Each point it drops would have added
    +0.0.  In
    TSC3 on continuous data these are the 8 corner passes, lo about
    sqrt(3)/2: 83 % zeros in a chunk of 32768 Gaussian points at
    h = 0.355.  The 12 edge passes, lo about sqrt(2)/2 and 49 % zeros,
    are not culled, and CIC3 and NGP3 cull none.  A pass yields its
    offsets, the weights and the kept indices, None where it keeps every
    point.

    The kernel's normalization n and a branch's factor (1/2 on TSC's
    outer branch, else 1) go in as one multiply by their product, which is
    exact: fl((factor n) p) and fl(n fl(factor p)) round the same real
    number (see kernels._profile_in_place).
    """
    a = len(offsets)
    support = 0.5 * kernel.width_w
    for o, dist, near, far in axes[a]:
        key = offsets + (o,)
        s = dist if sq is None else sq + dist
        near_sq, far_sq = bounds_sq[0] + near, bounds_sq[1] + far
        if a + 1 < len(axes):
            yield from _passes(kernel, h, cut, axes, key, s, (near_sq, far_sq))
            continue
        lo, hi = math.sqrt(near_sq) / h, math.sqrt(far_sq) / h
        keep = None
        if sq is not None and 2 * lo >= support and hi > support:  # mostly zeros
            keep = np.flatnonzero(s <= cut)
            s, hi = s.take(keep), math.sqrt(cut) / h
        r = s if sq is None else np.sqrt(s, out=s)  # one axis: s holds |dist|
        r /= h
        weights = _profile_in_place(kernel, r, (lo, hi))
        del r, s
        yield key, weights, keep
        del weights, keep


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
    sides = [
        v[inner[:a] + (side,) + inner[a + 1:]]
        for a in range(d)
        for side in (slice(2, None), slice(None, -2))
    ]
    # In place, in the order of (((v1 + v2) + v3) ...) - 2d v) / spacing^2:
    # the result and one temporary are the only interior-sized arrays.
    lap = sides[0] + sides[1]
    for nb in sides[2:]:
        lap += nb
    with _out_of_range("grid scale", "the Laplacian stencil"):
        lap -= 2.0 * d * v[inner]
        lap /= grid.spacing ** 2
    return _adopt(Grid, origin=grid.origin + grid.spacing, spacing=grid.spacing, values=lap)


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
