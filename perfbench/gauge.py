"""A fixed numpy computation that shows how fast the host runs right now.

On a shared VM the load of the host's other tenants changes how long the
same request takes, by up to 2x, for tens of seconds to minutes at a time,
and it slows every workload together: over 30 s windows of one process
that alternated a trimodal and a 3D request, the two workloads' median
times moved with a correlation of 0.88 to 0.96, and their ratio varied 3
to 7 times less than either time.  So the benchmark times this gauge just
before every request (``run.measure``) and reports each
request's time in units of the gauge's time.  The gauge never calls
kdeband, so a change to the library moves that ratio and the host's load
does not.

The gauge mixes the kinds of work the requests do: elementwise
arithmetic, a weighted ``bincount`` scatter, a sort, and a Python loop of
small numpy calls.  Its input is fixed; it does not depend on the workload
or the seed.  It makes its arrays afresh on every call and
keeps none, and they are smaller than every workload's own temporaries, so
it adds nothing to a run's peak RSS.  For the same reason it does not use
``numpy.random``, whose import alone adds 5 MB of RSS to a process that has
not loaded it yet (the CLI workload's process).
"""

from __future__ import annotations

import time

import numpy as np

N = 250_000
ROUNDS = 6
WINDOWS = np.linspace(-3.0, 3.0, 500)


def gauge() -> float:
    """Run the computation (about 0.1 s) and return its wall time in seconds."""
    t0 = time.perf_counter()
    for r in range(ROUNDS):
        x = np.sin(np.arange(N) * 12.9898 + r) * 43758.5453
        x -= np.floor(x)  # scrambled values in [0, 1)
        x = 8.0 * x - 4.0
        u = np.abs(x)
        w = np.where(u <= 0.5, 0.75 - u * u, np.where(u <= 1.5, 0.5 * (1.5 - u) ** 2, 0.0))
        bins = np.clip(np.floor((x + 8.0) * 100.0), 0, 1599).astype(np.int64)
        np.bincount(bins, weights=w, minlength=1600)
        x.sort()
        lo = np.searchsorted(x, WINDOWS - 0.02)
        hi = np.searchsorted(x, WINDOWS + 0.02)
        for a, b in zip(lo, hi):
            np.sum(np.abs(x[a:b]))
    return time.perf_counter() - t0
