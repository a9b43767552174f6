"""Test-session setup; pytest loads it before any test module imports numpy.

Small dense eigensolves run many times slower on OpenBLAS's default thread
pool than on one thread, so the pools are capped at one thread, as
`torsion-lab` caps them by default (TORSION_LAB_THREADS, default 1). A value
already set in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
