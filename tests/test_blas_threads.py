"""The GEMM-thread pin every digest gate depends on (see conftest)."""

import os
import subprocess
import sys

from repro.blas import blas_threads


def test_suite_runs_single_threaded():
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert blas_threads() in (1, None)  # None: numpy linked to another BLAS


def test_pin_reaches_an_already_loaded_openblas():
    """numpy first, pin second: the ``set_num_threads`` route."""
    code = (
        "import numpy, repro.blas as b\n"
        "before = b.blas_threads(); b.pin_blas_threads(); print(before, b.blas_threads())"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    before, after = out.stdout.split()
    assert after in ("1", "None") and (before == "None") == (after == "None")

