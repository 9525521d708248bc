"""The GEMM-thread pin every digest gate depends on (see conftest)."""

import json
import os
import subprocess
import sys

from repro.blas import blas_threads
from repro.nn._fused import kernel_status


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



def test_cli_pins_before_numpy_loads():
    """``repro.cli`` imports no numpy, so ``main``'s pin takes the environment route."""
    code = (
        "import sys, repro.cli\n"
        "assert 'numpy' not in sys.modules, 'repro.cli imported numpy'\n"
        "repro.cli.main(['scales'])\n"
        "import os, repro.blas as b\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules, b.blas_threads())"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] in ("1 True 1", "1 True None")


def test_run_json_records_the_thread_count_and_resume_reports_a_change(tmp_path):
    from repro.checkpoint import RunStore, spec_fingerprint
    from repro.experiments.configs import CI
    from repro.experiments.runner import RunSpec

    store = RunStore(tmp_path)
    spec = RunSpec(method="LbChat", scale=CI, seed=3, checkpoint_every=10.0)
    run_json = store.ensure_run(spec) / "run.json"
    recorded = json.loads(run_json.read_text())
    assert recorded["blas_threads"] == blas_threads()
    assert recorded["adam_kernel"] == kernel_status()
    assert recorded["adam_kernel"]["path"] in ("kernel", "numpy")
    assert recorded["fingerprint"] == spec_fingerprint(spec)  # not part of the identity

    store.log_resumed(spec, 1, 10.0)
    assert [e["event"] for e in store.events(spec)] == ["resumed"]

    if blas_threads() is None:  # nothing to compare against on this BLAS
        return
    recorded["blas_threads"] = blas_threads() + 3
    run_json.write_text(json.dumps(recorded))
    store.log_resumed(spec, 1, 10.0)
    assert store.events(spec)[-2:] == [
        {"event": "resumed", "barrier": 1, "time": 10.0},
        {
            "event": "blas_threads_changed",
            "recorded": blas_threads() + 3,
            "now": blas_threads(),
        },
    ]
