"""Pin numpy's BLAS to one thread before numpy is imported.

The matmuls here are too small to gain from threads, and on a loaded host a
multi-threaded BLAS is many times slower. The benchmark runs the same way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
