"""Pin BLAS and OpenMP to one thread before any test module imports numpy:
the controller's small dense products get slower and noisier with more
threads (``perfbench/run.py`` pins the same variables)."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
