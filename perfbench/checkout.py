"""Process set-up shared by the benchmark's entry scripts.

Call pin_blas() before anything imports numpy, then import_library(), which
makes `import schottkycalc` resolve to the src/ directory of this checkout and
nowhere else, so the benchmark always measures the code beside it.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the library's own `workers` setting must be the only parallelism
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas() -> None:
    """Limit BLAS to one thread; takes effect only before numpy is imported."""
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import schottkycalc from SRC; exit with an error if it is not there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import schottkycalc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import schottkycalc from {SRC}: {exc}")
    found = Path(schottkycalc.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise SystemExit(f"perfbench: schottkycalc resolved to {found}, not {SRC}")
    return schottkycalc
