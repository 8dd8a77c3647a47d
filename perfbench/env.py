"""Process set-up shared by the benchmark entry point and its tests.

The benchmark runs the library from the checkout's `src/` tree, on one
thread: BLAS thread counts are pinned to 1 before numpy is imported, and
the pin is inherited by every interpreter the benchmark starts.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSourceError(RuntimeError):
    """The checkout holds no `src/kccstab` package to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's `src/` first on the import
    path, for this process and (through PYTHONPATH) the ones it starts."""
    if not (SRC / "kccstab" / "__init__.py").is_file():
        raise MissingSourceError(f"no kccstab package under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
