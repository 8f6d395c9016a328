"""Backend selection for the local-search core.

The inner loops of the iterated local search (:mod:`mwis._ls_core`) are
written as plain loops so that they can either be JIT-compiled with numba,
over ``int64`` arrays, or run as-is, over Python lists.  Everything else is
plain Python or numpy on either backend: the solver's exact work
(reductions, including the meta rule's local subsolves, and the branch and
bound) and the brute-force oracle's vectorized subset scan.

The backend is chosen once at import time from the ``MWIS_BACKEND``
environment variable:

* ``auto`` (default): use numba when it is importable, else the fallback.
* ``numba``: require numba, fail loudly if it is missing.
* ``numpy``: force the pure numpy/Python fallback even if numba is present.

Both backends produce bit-identical results.  To compare their speed, run
the benchmark under each, e.g. ``MWIS_BACKEND=numba python3 perfbench/run.py
--workload kernel-large --seed 1 --seconds 30``; it stamps the backend in its
output and reports local-search rounds per second.
"""

import os

_CHOICE = os.environ.get("MWIS_BACKEND", "auto").strip().lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"MWIS_BACKEND must be one of auto/numba/numpy, got {_CHOICE!r}"
    )

NUMBA_ENABLED = False
if _CHOICE in ("auto", "numba"):
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:
        if _CHOICE == "numba":
            raise ImportError(
                "MWIS_BACKEND=numba but numba is not installed; "
                "install the 'accel' extra or set MWIS_BACKEND=numpy"
            ) from None

BACKEND = "numba" if NUMBA_ENABLED else "numpy"


def maybe_njit(fn):
    """JIT-compile ``fn`` under the numba backend, return it unchanged otherwise."""
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)
    return fn
