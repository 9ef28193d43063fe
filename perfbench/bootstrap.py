"""Process set-up shared by the benchmark and its worker process.

Pins BLAS and OpenMP to one thread before numpy is imported, and puts the
checkout's `src/` first on the import path so that the berrygate under test
is the one in this checkout and no other installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import berrygate from this checkout; raise ImportError if it is not
    there."""
    if not (SRC / "berrygate" / "__init__.py").is_file():
        raise ImportError(f"no berrygate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import berrygate

    if Path(berrygate.__file__).resolve().parent != SRC / "berrygate":
        raise ImportError(f"berrygate imported from {berrygate.__file__}, not {SRC}")
    return berrygate
