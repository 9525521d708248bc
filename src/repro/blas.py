"""Pin GEMM threading for anything digest-gated.

Multi-threaded OpenBLAS splits a GEMM's reduction differently per thread
count, which moves float32 results by an ulp — enough to break every
bit-identity gate recorded on a one-core host.  The test suite and the
CLI (``repro selfcheck`` included) call :func:`pin_blas_threads` first thing.
This module imports nothing heavy, so the environment route still works
when numpy has not loaded yet.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["blas_threads", "pin_blas_threads"]

_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: ``(setter, getter)`` symbol pairs across OpenBLAS builds (scipy's
#: vendored ILP64 build, plain ILP64, LP64).
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


#: The ``(set_num_threads, get_num_threads)`` pairs found, once any is:
#: an OpenBLAS stays mapped, so later calls skip the maps file and the
#: ``dlopen``.  One mapped after that is pinned by the environment
#: variables, which it reads when it loads.
_FOUND: list | None = None


def _loaded_openblas() -> list:
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS mapped into this process."""
    global _FOUND
    if _FOUND is None:
        found = list(_discover())
        if not found:  # nothing loaded yet: look again next time
            return found
        _FOUND = found
    return _FOUND


def _discover():
    """Read the maps file for OpenBLAS libraries and bind their entry points."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:  # no procfs: only the environment route is available
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                yield set_threads, get_threads
                break


def pin_blas_threads(n: int = 1) -> None:
    """Make every GEMM run on ``n`` threads, now and in child processes.

    Sets the thread-count environment variables (read when a BLAS
    loads) and, for an OpenBLAS that already has, calls its
    ``set_num_threads`` entry point.
    """
    for name in _ENV_VARS:
        os.environ[name] = str(n)
    for set_threads, _ in _loaded_openblas():
        set_threads(n)


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count (None if none is loaded)."""
    for _, get_threads in _loaded_openblas():
        return int(get_threads())
    return None
