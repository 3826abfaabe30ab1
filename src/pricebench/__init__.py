"""pricebench: a multi-agent dynamic-pricing market simulator.

A weekly-stepped market where rule-based and reinforcement-learning agents
price product portfolios against an elasticity-calibrated demand model, with
a fairness/stability/coordination metric suite and a reproducible experiment
harness.

Importing the package pins every BLAS/OpenMP thread pool to one thread. The
last bits of a float64 matrix product depend on how the BLAS splits it
between threads, so the seeded artifacts are byte-reproducible only at a
fixed thread count; one thread is also the fastest at the simulator's sizes.
The pin takes effect only if pricebench is imported before numpy.
"""

import os
import sys
import warnings

__version__ = "0.1.0"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_blas_threads() -> None:
    unpinned = [var for var in BLAS_THREAD_VARS if os.environ.get(var) != "1"]
    for var in unpinned:
        os.environ[var] = "1"
    if unpinned and "numpy" in sys.modules:
        warnings.warn(
            "numpy was imported before pricebench, so its BLAS keeps the thread count "
            f"it started with ({', '.join(unpinned)} not 1): seeded artifacts may differ "
            "from the pinned ones in the last digits. Import pricebench first.",
            RuntimeWarning,
            stacklevel=3,
        )


_pin_blas_threads()
