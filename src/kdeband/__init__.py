"""kdeband: kernel density estimation with data-driven bandwidth selection.

The package estimates probability densities from 1D and 3D samples with
classic assignment kernels (NGP, CIC, TSC) and selects the AMISE-optimal
bandwidth from the data alone, by iterating a noise-corrected curvature
roughness measurement against the closed-form optimal-bandwidth formula.
One implementation serves every dimension d, taken from the sample's
shape (Np, d); each ``_1d``/``_3d`` name is that implementation with d
fixed.

Typical use::

    from kdeband import Sample, kernel_constants, select_bandwidth

    sample = Sample(values)            # shape (Np,) or (Np, 3)
    kernel = kernel_constants("tsc", sample.dim)
    trace = select_bandwidth(sample, kernel)
    h = trace.final_h
"""

# Each module's __all__ lists its public names; the package re-exports them.
from . import errors, estimator, kernels, reference, roughness, samplers, selector
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .kernels import *  # noqa: F403
from .reference import *  # noqa: F403
from .roughness import *  # noqa: F403
from .samplers import *  # noqa: F403
from .selector import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, kernels, estimator, roughness, selector, samplers, reference)
    for name in module.__all__
]
