"""The benchmark's smoke run, as part of the test suite.

``perfbench/`` resolves library names at run time, some of them built from
the dimension (``getattr(kdeband, f"build_grid_{d}d")``), so a change to the
public surface can break the benchmark without breaking an import here.
The smoke run calls every workload at a tiny size, untraced and traced, and
checks what each prints; it takes tens of seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok", proc.stdout + proc.stderr


# The names perfbench/workloads.py reads after a plain `import kdeband`:
# the study submodules' samplers and laws, and the ten dimension-named
# names outside __all__.
BENCHMARK_NAMES = [
    "samplers.sample_gaussian_1d", "samplers.sample_gaussian_3d", "samplers.sample_trimodal",
    "samplers.sample_hernquist_radii", "samplers.HernquistParams",
    "reference.gaussian_1d", "reference.gaussian_3d", "reference.trimodal_1d",
    "reference.hernquist_radial_pdf", "reference.analytic_optimal_bandwidth",
    "kernel_constants_1d", "kernel_constants_3d", "build_grid_1d", "build_grid_3d",
    "corrected_roughness_1d", "optimal_bandwidth_1d", "select_bandwidth_1d",
    "select_bandwidth_3d", "estimate_density_1d", "estimate_density_3d",
]


def test_benchmark_names_resolve_after_a_plain_import():
    """A fresh process, so no other test's import of a submodule hides a
    name the package itself no longer reaches."""
    script = (
        "import functools, kdeband\n"
        f"for name in {BENCHMARK_NAMES!r}:\n"
        "    assert callable(functools.reduce(getattr, name.split('.'), kdeband)), name\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
