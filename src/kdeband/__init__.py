"""kdeband: kernel density estimation with data-driven bandwidth selection.

The package estimates probability densities from 1D and 3D samples with
classic assignment kernels (NGP, CIC, TSC) and selects the AMISE-optimal
bandwidth from the data alone, by iterating a noise-corrected curvature
roughness measurement against the closed-form optimal-bandwidth formula.
One implementation serves every dimension d, taken from the sample's
shape (Np, d): one set of types (``Sample``, ``Grid``, ``Kernel``) and
one function per step of the selection (``build_grid``,
``corrected_roughness``, ``optimal_bandwidth``, ``select_bandwidth``)
and for direct evaluation (``estimate_density``), each of which reads d
from its inputs.  ``kdeband.selector`` holds the plug-in method (the
corrected roughness, h_opt, the AMISE and the iteration),
``kdeband.estimator`` the KDE machinery it runs on (the kernels,
samples, grids, the deposit, the stencil, the quadrature and direct
evaluation), and ``kdeband.errors`` the argument rules.

The validation studies stay out of the package namespace: their
samplers and synthetic laws are the submodule ``kdeband.reference``, with
its own ``__all__``.

Typical use::

    from kdeband import Sample, kernel_constants, select_bandwidth

    sample = Sample(values)            # shape (Np,) or (Np, 3)
    kernel = kernel_constants("tsc", sample.dim)
    trace = select_bandwidth(sample, kernel)
    h = trace.final_h
"""

from functools import partial

# Each method module's __all__ lists its public names; the package
# re-exports them.  The study module is imported, not re-exported, so
# kdeband.reference resolves after `import kdeband`.
from . import errors, estimator, reference, selector
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .selector import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, estimator, selector)
    for name in module.__all__
]


# Not public: the benchmark in perfbench/ resolves these names on the
# package, so they stay, outside __all__, until it calls the generic ones
# and reads its samplers from kdeband.reference.  kernel_constants takes d
# itself; the others take the kernel second.
samplers = reference


def _in_dim(fn, d):
    def call(first, kernel, *args, **kwargs):
        estimator.common_dim(d, kernel=kernel.dim)
        return fn(first, kernel, *args, **kwargs)

    return call


kernel_constants_1d = partial(estimator.kernel_constants, dim=1)
kernel_constants_3d = partial(estimator.kernel_constants, dim=3)
build_grid_1d = _in_dim(estimator.build_grid, 1)
build_grid_3d = _in_dim(estimator.build_grid, 3)
corrected_roughness_1d = _in_dim(selector.corrected_roughness, 1)
optimal_bandwidth_1d = _in_dim(selector.optimal_bandwidth, 1)
select_bandwidth_1d = _in_dim(selector.select_bandwidth, 1)
select_bandwidth_3d = _in_dim(selector.select_bandwidth, 3)
estimate_density_1d = _in_dim(estimator.estimate_density, 1)
estimate_density_3d = _in_dim(estimator.estimate_density, 3)
