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
