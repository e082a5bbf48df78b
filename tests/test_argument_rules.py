"""The argument rules of kdeband.errors, seen through the public API.

A count (``Np``, ``max_iterations``, ``max_backoffs``, ``grid_cap``, a
kernel's ``width_w``) is an integer >= 1, given as an int or an integral
float.  An index (a seed, an axis, a dimension) is an int or numpy integer
>= 0.  A real is a number in
its interval.  A bool is none of them, though Python counts True as 1.

The contract fuzz at the end feeds every integer parameter of the public
API the same hostile values, and requires each call to return or raise a
KdebandError: never a bare TypeError, ValueError or IndexError, and never
a warning.  A public callable with such a parameter and no fuzz row fails
the coverage test.
"""

import inspect
import warnings
from fractions import Fraction

import numpy as np
import pytest

import kdeband
from kdeband import (
    Grid,
    Kernel,
    Sample,
    SelectorConfig,
    amise,
    build_grid,
    corrected_roughness,
    estimate_density,
    kernel_constants,
    optimal_bandwidth,
    select_bandwidth,
)
from kdeband.errors import DomainError, KdebandError, NonPositiveBandwidth
from kdeband.errors import _check_count
from kdeband.reference import analytic_optimal_bandwidth, gaussian_1d, gaussian_3d
from kdeband.reference import (
    HernquistParams,
    sample_gaussian_1d,
    sample_gaussian_3d,
    sample_hernquist_radii,
    sample_trimodal,
    sample_tsc_density,
)

TSC, TSC3 = kernel_constants("tsc", 1), kernel_constants("tsc", 3)
S1 = sample_gaussian_1d(60, 1)
S3 = sample_gaussian_3d(60, 1)
GRID1 = build_grid(S1, TSC, 0.5)
GRID3 = build_grid(S3, TSC3, 0.9)

# Each sampler as draw(Np, seed).
SAMPLERS = {
    sample_gaussian_1d: sample_gaussian_1d,
    sample_gaussian_3d: sample_gaussian_3d,
    sample_trimodal: sample_trimodal,
    sample_tsc_density: sample_tsc_density,
    sample_hernquist_radii: lambda Np, seed: sample_hernquist_radii(Np, HernquistParams(), seed),
}

COUNT_PARAMETERS = {"Np", "grid_cap", "max_iterations", "max_backoffs", "width_w"}
INDEX_PARAMETERS = {"seed", "dim", "dimension", "axis"}

# One row per public callable and integer parameter (the axis has one per
# grid, 1D then 3D): its qualified name, the parameter, and a call with it
# set.
# Counts stay small, so no value asks for a large allocation.
FUZZ_ROWS = [
    *((fn.__qualname__, param, call) for fn, draw in SAMPLERS.items()
      for param, call in (("Np", lambda v, draw=draw: draw(v, 1)),
                          ("seed", lambda v, draw=draw: draw(3, v)))),
    ("optimal_bandwidth", "Np", lambda v: optimal_bandwidth(1.0, TSC, v)),
    ("amise", "Np", lambda v: amise(0.5, TSC, 1.0, v)),
    ("analytic_optimal_bandwidth", "Np",
     lambda v: analytic_optimal_bandwidth(gaussian_1d(), TSC, v)),
    ("analytic_optimal_bandwidth", "dimension",
     lambda v: analytic_optimal_bandwidth(gaussian_3d(), TSC3, 10, dimension=v)),
    ("kernel_constants", "dim", lambda v: kernel_constants("cic", v)),
    ("Kernel", "dim", lambda v: Kernel("tsc", v, 3, 1.0, 0.55, 0.25)),
    ("Kernel", "width_w", lambda v: Kernel("tsc", 1, v, 1.0, 0.55, 0.25)),
    ("Grid.axis_coordinates", "axis", lambda v: GRID1.axis_coordinates(v)),
    ("Grid.axis_coordinates", "axis", lambda v: GRID3.axis_coordinates(v)),
    ("build_grid", "grid_cap", lambda v: build_grid(S3, TSC3, 0.9, grid_cap=v)),
    ("corrected_roughness", "grid_cap", lambda v: corrected_roughness(S1, TSC, 0.5, grid_cap=v)),
    ("select_bandwidth", "grid_cap", lambda v: select_bandwidth(S1, TSC, grid_cap=v)),
    ("SelectorConfig", "max_iterations", lambda v: SelectorConfig(max_iterations=v)),
    ("SelectorConfig", "max_backoffs", lambda v: SelectorConfig(max_backoffs=v)),
]


def _params(rows):
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in rows]


# Each real: the error it raises, its name as errors give it, and a call.
REALS = {
    "build_grid-h": (NonPositiveBandwidth, "bandwidth", lambda v: build_grid(S1, TSC, v)),
    "amise-h": (NonPositiveBandwidth, "bandwidth", lambda v: amise(v, TSC, 1.0, 100)),
    "c0": (DomainError, "initial_scale_c0", lambda v: SelectorConfig(initial_scale_c0=v)),
    "MT": (DomainError, "total_mass_MT", lambda v: HernquistParams(total_mass_MT=v)),
    "rc": (DomainError, "scale_length_rc", lambda v: HernquistParams(scale_length_rc=v)),
    "tolerance": (DomainError, "rel_tolerance", lambda v: SelectorConfig(rel_tolerance=v)),
    "spacing": (NonPositiveBandwidth, "grid spacing",
                lambda v: Grid(origin=0.0, spacing=v, values=[1.0, 2.0, 3.0])),
}

BOOLS = pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])


@BOOLS
@pytest.mark.parametrize("name, param, call", _params(FUZZ_ROWS))
def test_a_bool_is_no_count_and_no_index(name, param, call, value):
    """True is no count: sample_gaussian_1d(True, 1) drew one point, and a
    grid_cap of True was a cap of 1.  Nor is it an index: as a seed it drew
    seed 1's sample, a 3D grid's axis True raised a bare broadcast
    ValueError, and as kernel_constants' dim (np.True_ too) it gave the 1D
    kernel.  A hand-built Kernel with dim True ran on a 1D sample, since
    {1, True} is one dimension."""
    rule = "a positive integer" if param in COUNT_PARAMETERS else "a non-negative integer"
    with pytest.raises(DomainError, match=f"{param} must be {rule}"):
        call(value)


@BOOLS
@pytest.mark.parametrize("case", REALS)
def test_a_bool_is_no_real(case, value):
    """True is not a real: build_grid(s, k, True) ran at h = 1, and
    HernquistParams(total_mass_MT=np.True_) was accepted."""
    error, name, call = REALS[case]
    with pytest.raises(error, match=f"{name} must be a real"):
        call(value)


@pytest.mark.parametrize("value", [
    "0.3", b"0.3", bytearray(b"0.3"), np.str_("0.3"), np.array("0.3"), np.complex128(0.5),
    np.complex64(0.5),
], ids=["str", "bytes", "bytearray", "np.str_", "str-array", "complex128", "complex64"])
@pytest.mark.parametrize("case", REALS)
def test_text_or_a_complex_is_no_real(case, value):
    """build_grid(s, k, "0.3") ran at h = 0.3 and SelectorConfig took
    rel_tolerance="0.01", since float() parses text; np.complex128(0.5)
    was h = 0.5 with only a ComplexWarning."""
    error, name, call = REALS[case]
    with pytest.raises(error, match=f"{name} must be a real"):
        call(value)


@pytest.mark.parametrize("name, call", [
    ("Sample points", lambda: Sample(["1.5", "2"])),
    ("Sample points", lambda: Sample(np.array([b"1.5", b"2"]))),
    ("Sample points", lambda: Sample(np.array([1 + 1j, 2]))),
    ("Sample points", lambda: Sample(np.array([[1.5, 2.0], [3.0, 4.5]], dtype=np.complex64))),
    ("Grid origin", lambda: Grid(origin="0", spacing=0.5, values=[1.0, 2.0, 3.0])),
    ("Grid values", lambda: Grid(origin=0.0, spacing=0.5, values=["1", "2", "3"])),
    ("query_points", lambda: kdeband.estimate_density(S1, TSC, 0.5, ["0.1", "0.2"])),
    ("r_window", lambda: kdeband.reference.hernquist_radial_pdf(r_window=("0.1", "2"))),
], ids=["str-list", "bytes-array", "complex-array", "complex64-rows", "str-origin",
        "str-values", "str-queries", "str-window"])
def test_text_or_complex_is_no_array_of_reals(name, call):
    """Sample(["1.5", "2"]) parsed its text, and Sample(np.array([1+1j, 2]))
    dropped the imaginary part with only a ComplexWarning."""
    with pytest.raises(DomainError, match=f"{name} must be an array of real numbers"):
        call()


@pytest.mark.parametrize("name, call", [
    ("Sample points", lambda: Sample([True, False, True])),
    ("Sample points", lambda: Sample(np.array(["1.5", "2"], dtype=object))),
    ("Sample points", lambda: Sample(np.array([1.5, "2"], dtype=object))),
    ("Sample points", lambda: Sample(np.array([True, 2.0], dtype=object))),
    ("Sample points", lambda: Sample(np.array([np.True_, 2.0], dtype=object))),
    ("Sample points", lambda: Sample(np.array([1.5, np.complex128(2)], dtype=object))),
    ("Grid values", lambda: Grid(origin=0.0, spacing=0.5, values=[True, False, True])),
    ("Grid values", lambda: Grid(origin=0.0, spacing=0.5,
                                 values=np.array([1.0, "2", 3.0], dtype=object))),
    ("query_points", lambda: kdeband.estimate_density(S1, TSC, 0.5, [True, False])),
    ("query_points", lambda: kdeband.estimate_density(
        S1, TSC, 0.5, np.array([0.1, b"0.2"], dtype=object))),
    ("r_window", lambda: kdeband.reference.hernquist_radial_pdf(r_window=(False, True))),
    ("r_window", lambda: kdeband.reference.hernquist_radial_pdf(
        r_window=np.array([0.1, "2"], dtype=object))),
], ids=["bool-list", "object-str", "object-float-str", "object-bool", "object-np.bool",
        "object-complex", "bool-values", "object-str-values", "bool-queries",
        "object-bytes-queries", "bool-window", "object-str-window"])
def test_bool_array_or_object_array_of_no_reals_is_no_array_of_reals(name, call):
    """Sample([True, False, True]) read [1, 0, 1], and an object array
    holding text, a bool or a complex number was parsed or cast element
    by element: np.array(["1.5", "2"], dtype=object) read [1.5, 2]."""
    with pytest.raises(DomainError, match=f"{name} must be an array of real numbers"):
        call()


def test_an_object_array_of_real_numbers_is_still_an_array_of_reals():
    values = np.array([1.5, Fraction(1, 2), 3, np.float32(2.0), np.int8(4)], dtype=object)
    assert Sample(values).points.tolist() == [1.5, 0.5, 3.0, 2.0, 4.0]


@pytest.mark.parametrize("value", [2, 0.5, np.float32(0.5), np.int64(2), np.uint8(2),
                                   np.array(0.5), np.array(2)],
                         ids=["int", "float", "float32", "int64", "uint8", "0d-float", "0d-int"])
def test_every_real_number_is_still_a_real(value):
    assert build_grid(S1, TSC, value).spacing == float(value)
    assert HernquistParams(scale_length_rc=value).scale_length_rc == float(value)
    assert Sample([value, 2 * value]).points.tolist() == [float(value), 2.0 * float(value)]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("axis", [0.0, np.float64(0), 1.0], ids=["0.0", "float64-0", "1.0"])
def test_a_float_is_no_axis(dim, axis):
    """A float axis was taken by the range test and then raised numpy's
    bare IndexError."""
    with pytest.raises(DomainError, match="axis must be a non-negative integer below"):
        (GRID1 if dim == 1 else GRID3).axis_coordinates(axis)


@pytest.mark.parametrize("dim", [1.0, np.float64(3), "1"], ids=["1.0", "float64-3", "str-1"])
def test_a_float_or_string_is_no_dim(dim):
    """kernel_constants("tsc", 1.0) returned the 1D kernel through the
    dict lookup; a float or string d is now refused by the index rule."""
    with pytest.raises(DomainError, match="dim must be a non-negative integer"):
        kernel_constants("tsc", dim)


@pytest.mark.parametrize("dimension", ["1", 1.0], ids=["str-1", "1.0"])
def test_a_string_or_float_is_no_dimension(dimension):
    """dimension="1" was compared with the law's d and read "dimension
    mismatch: expected 1-D, density is 1-D, kernel is 1-D"."""
    with pytest.raises(DomainError, match="dimension must be a non-negative integer"):
        analytic_optimal_bandwidth(gaussian_1d(), TSC, 100, dimension=dimension)


@pytest.mark.parametrize("family", ["tsc", "ngp", "cic3"])
@pytest.mark.parametrize("dim", [0, 2, 4])
def test_a_dimension_without_kernels_is_named(family, dim):
    """A d with no kernels blames the dimension, not the family."""
    with pytest.raises(DomainError, match=rf"no '{family}' kernel in d = {dim}; "
                                          r"kernels exist for d = 1 and 3"):
        kernel_constants(family, dim)


def test_an_unknown_family_is_named_in_a_dimension_with_kernels():
    """In d = 1 or 3, a token with no kernel there is an unknown family."""
    for family, dim in (("boxcar", 1), ("boxcar", 3), ("tsc3", 1)):
        with pytest.raises(DomainError, match=f"unknown kernel family '{family}' for d = {dim}"):
            kernel_constants(family, dim)


# ---------------------------------------------------------------------------
# What still works: numpy integer indices and integral-float counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("draw", SAMPLERS.values(), ids=[fn.__qualname__ for fn in SAMPLERS])
def test_numpy_integer_seed_and_integral_float_count_draw_the_int_sample(draw):
    want = draw(40, 7).points.tobytes()
    for Np, seed in ((40, np.int64(7)), (40, np.uint8(7)), (40.0, 7), (np.float64(40), 7),
                     (np.int32(40), 7)):
        assert draw(Np, seed).points.tobytes() == want


@pytest.mark.parametrize("grid", [GRID1, GRID3], ids=["1d", "3d"])
def test_numpy_integer_axis_gives_the_int_axis(grid):
    for axis in range(grid.dim):
        want = grid.axis_coordinates(axis).tobytes()
        for typed in (np.int64(axis), np.int8(axis), np.uint32(axis)):
            assert grid.axis_coordinates(typed).tobytes() == want
    with pytest.raises(DomainError, match="axis"):
        grid.axis_coordinates(np.int64(grid.dim))


def test_numpy_integer_dim_and_dimension_give_the_int_kernel_and_bandwidth():
    for d in (1, 3):
        for typed in (np.int64(d), np.int16(d)):
            kernel = kernel_constants("tsc", typed)
            assert kernel == kernel_constants("tsc", d) and type(kernel.dim) is int
    law, want = gaussian_3d(), analytic_optimal_bandwidth(gaussian_3d(), TSC3, 1000, dimension=3)
    assert analytic_optimal_bandwidth(law, TSC3, 1000, dimension=np.int64(3)) == want


def test_integral_float_counts_give_the_int_bits():
    assert optimal_bandwidth(2.0, TSC, 1e4) == optimal_bandwidth(2.0, TSC, 10_000)
    assert amise(0.3, TSC3, 2.0, np.float64(500)) == amise(0.3, TSC3, 2.0, 500)
    assert SelectorConfig(max_iterations=3.0, max_backoffs=np.float32(4)) == \
        SelectorConfig(max_iterations=3, max_backoffs=4)
    config = SelectorConfig(max_iterations=2.0)
    assert type(config.max_iterations) is int
    assert select_bandwidth(S1, TSC, config, grid_cap=1e3) == \
        select_bandwidth(S1, TSC, SelectorConfig(max_iterations=2), grid_cap=1000)


@pytest.mark.parametrize("value", [2**64, 10**30, 10**400], ids=["2**64", "10**30", "10**400"])
def test_a_count_of_any_size_is_a_count(value):
    """np.isfinite raised a bare TypeError for an int of 2**64 and up, so
    SelectorConfig(max_iterations=2**64) failed with it."""
    assert _check_count(value) == value
    assert SelectorConfig(max_iterations=value).max_iterations == value


def test_a_count_too_large_for_any_float_raises_domain_error():
    with pytest.raises(DomainError):
        optimal_bandwidth(1.0, TSC, 10**400)


# Each entry point that deposits or evaluates, called with a hand-built
# kernel of the given dimension.
WIDE_KERNEL_CALLS = {
    "build_grid-1d": (1, lambda k: build_grid(S1, k, 0.5)),
    "build_grid-3d": (3, lambda k: build_grid(S3, k, 0.9)),
    "corrected_roughness": (1, lambda k: corrected_roughness(S1, k, 0.5)),
    "estimate_density-1d": (1, lambda k: estimate_density(S1, k, 0.5, [0.0])),
    "estimate_density-3d": (3, lambda k: estimate_density(S3, k, 0.9, [0.0, 0.0, 0.0])),
    "select_bandwidth": (1, lambda k: select_bandwidth(S1, k)),
}


@pytest.mark.parametrize("case", WIDE_KERNEL_CALLS)
def test_a_kernel_width_past_the_floats_raises_domain_error(case):
    """A hand-built Kernel with width_w = 10**400 is a count, but its
    half-width w h/2 is no float: the deposit and direct evaluation raised
    a bare OverflowError there, while select_bandwidth raised DomainError.
    One rule in their shared scale check now raises DomainError."""
    d, call = WIDE_KERNEL_CALLS[case]
    kernel = Kernel("tsc" if d == 1 else "tsc3", d, 10**400, 1.0, 0.55, 0.25)
    with pytest.raises(DomainError, match="out of range"):
        call(kernel)


@pytest.mark.parametrize("draw", SAMPLERS.values(), ids=[fn.__qualname__ for fn in SAMPLERS])
def test_a_draw_past_the_largest_array_raises_domain_error(draw):
    """A draw whose Np d float64 values exceed np.iinfo(np.intp).max bytes
    raised numpy's ValueError (or, from 2**64 up, a bare TypeError).  Each
    Np here is refused before anything is allocated."""
    d = 3 if draw is sample_gaussian_3d else 1
    largest = np.iinfo(np.intp).max // (8 * d)
    for Np in (largest + 1, 2 * 10**18, 10**19, 2**64, 10**30):
        with pytest.raises(DomainError, match=f"Np must be at most {largest}"):
            draw(Np, 1)


# ---------------------------------------------------------------------------
# Contract fuzz: every integer parameter of the public API
# ---------------------------------------------------------------------------

def _fuzz_values():
    """The fixed hostile values, then seeded small integers and reals,
    as Python and as numpy scalars."""
    rng = np.random.default_rng(20)
    fixed = [True, False, np.True_, np.False_, 1.5, np.nan, np.inf, -np.inf, -1, 0, 1, 3,
             "3", None, np.int64(2), np.int64(-2), 2.0, np.float64(3.0), -0.0, 1e-300]
    ints = rng.integers(-4, 5, 4)
    reals = rng.uniform(-4.0, 5.0, 4)
    return fixed + ints.tolist() + list(ints) + reals.tolist() + list(np.round(reals))


def _public_integer_parameters():
    """(qualified name, parameter) for every count or index parameter of
    a public callable, by name: each function and class of
    kdeband.__all__ and of the study modules' __all__ (its constructor)
    and each public method of a class."""
    found = set()
    modules = (kdeband, kdeband.samplers, kdeband.reference)
    for module, name in [(module, name) for module in modules for name in module.__all__]:
        obj = getattr(module, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        callables = [obj]
        if inspect.isclass(obj):
            callables += [f for attr, f in vars(obj).items()
                          if inspect.isfunction(f) and not attr.startswith("_")]
        for fn in callables:
            for param in inspect.signature(fn).parameters:
                if param in COUNT_PARAMETERS | INDEX_PARAMETERS:
                    found.add((fn.__qualname__, param))
    return found


def test_every_public_integer_parameter_has_a_fuzz_row():
    found = _public_integer_parameters()
    rows = {(name, param) for name, param, _ in FUZZ_ROWS}
    assert found - rows == set(), "public integer parameters without a fuzz row"
    assert rows - found == set(), "fuzz rows for no public parameter"


@pytest.mark.parametrize("name, param, call", _params(FUZZ_ROWS))
def test_integer_parameter_returns_or_raises_a_kdeband_error(name, param, call):
    """Every value either works or raises a KdebandError; no bare error
    and no warning escapes."""
    escaped = []
    for value in _fuzz_values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(value)
            except KdebandError:
                pass
            except Exception as exc:  # noqa: BLE001 - the contract under test
                escaped.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert escaped == []
