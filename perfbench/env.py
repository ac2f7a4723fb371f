"""Where the program comes from, and the one-BLAS-thread setting.

Both entry points (``run.py`` and ``coldstart.py``) call ``use_checkout``
before anything imports numpy: OpenBLAS reads its thread count once, when
the library loads, and the cold-start children inherit the environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def use_checkout() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the path."""
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def require_checkout_program() -> None:
    """Refuse to measure an ``evsched`` that does not come from this checkout."""
    import evsched

    origin = Path(evsched.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"evsched was imported from {origin}, not from {SRC}")
