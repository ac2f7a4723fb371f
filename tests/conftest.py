"""One BLAS thread for every test run, set before any test module imports numpy.

The closed-loop results move in their last bits with the BLAS thread count,
and OpenBLAS reads that count once, when it loads. Pytest imports this file
before it collects the test modules here, so ``pytest tests`` and a run that
also collects ``perfbench`` (which pins the same count) print the same numbers.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
