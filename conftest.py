"""Test-session settings that must hold before numpy is first imported."""

import os

# OpenBLAS's default of one thread per core makes small BLAS-heavy tests
# stall now and then on a shared machine; one thread keeps their times steady.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
