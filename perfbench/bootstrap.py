"""Process set-up shared by the benchmark's entry points.

Call :func:`pin_threads` before numpy is imported anywhere in the process:
BLAS and OpenMP thread pools read their size once, at import.  Call
:func:`keep_freed_memory` before the first large array is allocated.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Run every numeric library single-threaded (inherited by children)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def keep_freed_memory() -> None:
    """Keep freed arrays' pages mapped, so requests do not fault them in anew.

    By default glibc returns every freed array of a few MB to the kernel, so
    each request page-faults about 150 MB of temporaries back in (38 000
    faults per trimodal selection on a 2-vCPU VM).  What a fault costs there
    depends on the host's other tenants: back-to-back runs of the same
    selection took from 0.36 s to 0.71 s, with about 0.3 s of user time.
    With arrays up to 32 MB served from the heap and the heap never
    trimmed, the requests time the library's own work.  Peak RSS stays
    about the same: it is the high-water mark either way.  Does nothing
    outside glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    libc = ctypes.CDLL(None)
    libc.mallopt(m_mmap_threshold, 32 * 2**20)  # glibc's largest allowed value
    libc.mallopt(m_trim_threshold, 2**30)


def import_kdeband():
    """Import kdeband from this checkout's ``src/`` and from nowhere else.

    Exits with code 2 when the sources are missing, so a directory that
    holds only the benchmark never reports a result.
    """
    package = SRC / "kdeband"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no kdeband sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kdeband

    if Path(kdeband.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"perfbench: imported kdeband from {kdeband.__file__}, not {package}\n")
        sys.exit(2)
    return kdeband
