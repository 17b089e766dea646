"""Test-session setup.

The smoother and spline fits multiply small matrices, for which BLAS
threads cost more than they save: pin BLAS to one thread, as study
workers are, before anything imports numpy. An explicit setting in the
environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
