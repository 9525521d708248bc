"""Measure one workload: ``python3 benchmarks/perf/run.py --workload NAME``.

One process, one thread, closed loop.  The process pins its environment
(re-executing itself once if need be), imports the program, sets a fresh
world up ``SETUP_REPEATS`` times (``build_context`` on a scale name the
context memo has not seen, then a short warm-up run), and then repeats
the workload's run — ``run_method(context, spec)``, the same spec every
time — until ``--seconds`` have passed, dropping each result and
collecting garbage outside the timer.  Every repetition's outputs are
checked and must digest identically.  With ``--trace 1`` every other
repetition (and the single set-up) runs under the outside-in
:class:`~benchmarks.perf.tracer.Tracer` and the per-layer metrics are
reported in place of the end-to-end ones.

All times are read off the :mod:`~benchmarks.perf.hostclock`; the raw
wall times are printed beside them.  The last line of standard output is
the JSON result the PR driver reads.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
#: Everything a run leaves behind but its trace (kernel cache, temporary
#: checkpoint directories) goes here; the directory is git-ignored.
BUILD_DIR = ROOT / ".bench_build"
TRACE_DIR = Path(__file__).resolve().parent / "out"

#: The host has 2 cores and the repo's bit-identity gates assume
#: single-threaded BLAS (ROADMAP "Fix first"); the hash seed is pinned so
#: no iteration order depends on the invocation.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNEL_CACHE_DIR": str(BUILD_DIR / "kernels"),
    "TMPDIR": str(BUILD_DIR / "tmp"),
}


def pin_environment() -> None:
    """Re-execute under :data:`PINNED_ENV` unless it is already in effect.

    The hash seed only takes effect at interpreter start and the BLAS
    thread variables only before numpy is imported, hence the exec.
    """
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from repro.experiments.runner import build_context, run_method  # noqa: E402

from benchmarks.perf.hostclock import HEAP_BOUND, Sampler  # noqa: E402
from benchmarks.perf.tracer import SETUP_SPANS, Tracer, chrome_events, span_stats  # noqa: E402
from benchmarks.perf.workloads import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

_IMPORTS_END = time.perf_counter()

SETUP_REPEATS = 3
#: Share of the workload's horizon the warm-up run of a set-up covers.
WARMUP_SHARE = 0.25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=3, help="RunSpec seed of every repetition")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads_in_effect() -> int | None:
    """What the loaded OpenBLAS says its thread count is (None if not found)."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def host_fingerprint(seed: int) -> dict:
    blas = np.__config__.show(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_effect(),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "git_sha": git_sha(),
        "seed": seed,
    }


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def observe(result, checkpoint_dir: str | None) -> dict:
    """The outputs of one repetition the metrics and checks are made of."""
    counters = result.counters
    fleet = result.trainer.fleet
    checkpoints = Path(checkpoint_dir).rglob("ckpt-*.npz") if checkpoint_dir else ()
    sizes = [path.stat().st_size for path in checkpoints]
    return {
        "final_val_loss": result.final_loss(),
        "core.train_steps": counters.get("train_steps", 0.0),
        "core.chats": counters.get("chats", 0.0),
        "core.models_attempted": float(result.receive_attempted),
        "core.models_received": float(result.receive_completed),
        "core.model_receive_rate": result.receive_rate,
        "core.coresets_exchanged": counters.get("coresets_exchanged", 0.0),
        "core.frames_absorbed": counters.get("frames_absorbed", 0.0),
        "core.virtual_chat_seconds": counters.get("chat_seconds", 0.0),
        "core.mean_step_width": fleet.mean_step_width if fleet is not None else 0.0,
        "checkpoint.barriers": float(len(sizes)),
        "checkpoint.bytes_per_barrier": sum(sizes) / len(sizes) if sizes else 0.0,
    }


def digest(observation: dict) -> str:
    """Identity of a repetition's outputs: loss, receive counts, counters.

    Floats enter as their exact bits; nothing is compared with a golden
    (those depend on the BLAS build), only repetitions with each other.
    """
    parts = [
        f"{key}={float(value).hex()}"
        for key, value in sorted(observation.items())
        if not key.startswith("checkpoint.")
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


class Repetitions:
    """Runs, checks and times the repetitions of one workload."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_digest: str | None = None
        #: ``(start, end, tracer or None)`` of each good full repetition.
        self.marks: list[tuple[float, float, Tracer | None]] = []
        self.observation: dict | None = None

    def run(self, context, horizon: float | None = None, tracer: Tracer | None = None) -> None:
        """One repetition; a failure is recorded, never raised.

        ``horizon`` shortens the run (warm-up); only full-horizon
        repetitions are timed and digest-compared.
        """
        workload = self.workload
        checkpoint_dir = None
        if workload.checkpoint_every is not None:
            checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-")
        spec = workload.spec(context, self.seed, horizon, checkpoint_dir)
        self.attempted += 1
        gc.collect()
        try:
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                result = run_method(context, spec)
                end = time.perf_counter()
            observation = observe(result, checkpoint_dir)
            del result
        except Exception:  # the boundary: the failure goes into the result line
            self.failures.append(traceback.format_exc())
            return
        finally:
            if checkpoint_dir is not None:
                shutil.rmtree(checkpoint_dir, ignore_errors=True)
        expected_steps = workload.expected_train_steps(horizon)
        if not math.isfinite(observation["final_val_loss"]):
            self.failures.append(f"non-finite loss {observation['final_val_loss']}")
        elif observation["core.train_steps"] != expected_steps:
            self.failures.append(
                f"{observation['core.train_steps']} train steps, expected {expected_steps}"
            )
        elif horizon is None:
            rep_digest = digest(observation)
            if self.reference_digest is None:
                self.reference_digest = rep_digest
            if rep_digest != self.reference_digest:
                self.failures.append(
                    f"outputs digest {rep_digest} differs from the first repetition's "
                    f"{self.reference_digest} (traced: {tracer is not None})"
                )
            else:
                self.observation = observation
                self.marks.append((start, end, tracer))

    def intervals(self, traced: bool) -> list[tuple[float, float]]:
        return [(s, e) for s, e, tracer in self.marks if (tracer is not None) == traced]


def median_elapsed(clock, intervals) -> float:
    return statistics.median(clock.elapsed(start, end) for start, end in intervals)


def layer_values(setup_tracer, reps, setup_clock, clock) -> dict[str, float]:
    """Per-span calls / total / self seconds, and the two trace ratios.

    Set-up spans come from the traced set-up; every other span is the
    mean over the traced repetitions (whose counts repeat exactly).
    """
    stats = span_stats(setup_tracer, setup_clock)
    per_rep = [span_stats(tracer, clock) for _, _, tracer in reps.marks if tracer is not None]
    values = {}
    for span in setup_tracer.spans:
        if span not in SETUP_SPANS:
            stats[span] = {
                key: statistics.fmean(rep[span][key] for rep in per_rep)
                for key in ("calls", "total_s", "self_s")
            }
        for key, value in stats[span].items():
            values[f"{span}.{key}"] = value
    traced_s = median_elapsed(clock, reps.intervals(traced=True))
    untraced_s = median_elapsed(clock, reps.intervals(traced=False))
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    values["trace.root_self_ratio"] = stats["engine.sim_run"]["self_s"] / traced_s
    return values


def write_chrome_trace(workload, setup_tracer, rep_tracer) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    events = chrome_events(setup_tracer, 0, _PROCESS_START)
    events += chrome_events(rep_tracer, 1, _PROCESS_START)
    path = TRACE_DIR / f"trace-{workload.name}.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    for directory in (PINNED_ENV["TMPDIR"], PINNED_ENV["REPRO_KERNEL_CACHE_DIR"]):
        os.makedirs(directory, exist_ok=True)
    reps = Repetitions(workload, args.seed)
    setup_tracer = Tracer() if args.trace else None
    setup_intervals = []
    load_start = loadavg()
    with Sampler() as sampler:
        # The traced invocation reports no setup_s, so it sets up once.
        for k in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            with setup_tracer or contextlib.nullcontext():
                context = build_context(workload.scale.derived(f"{workload.scale.name}#{k}"))
                reps.run(context, horizon=WARMUP_SHARE * workload.horizon)
            setup_intervals.append((start, time.perf_counter()))
        measure_start = time.perf_counter()
        needed = 2 if args.trace else 1
        while not reps.failures and (
            len(reps.marks) < needed or time.perf_counter() - measure_start < args.seconds
        ):
            # Tracing alternates, so both kinds sample the same host phases.
            traced = args.trace and len(reps.marks) % 2
            reps.run(context, tracer=Tracer() if traced else None)
    # Importing and building a world walk the Python heap on every
    # workload; the repetitions are bound by what the workload says.
    setup_clock = sampler.clock(HEAP_BOUND)
    clock = sampler.clock(workload.clock_mix)

    print(f"workload {workload.name}: {workload.why}")
    print("host", json.dumps(host_fingerprint(args.seed)))
    print(f"loadavg at start [{load_start}] at end [{loadavg()}]")
    p10, p50, p90 = np.quantile(clock.slowdown, [0.1, 0.5, 0.9])
    print(
        f"host slowdown over {len(clock.slowdown)} calibration slices: "
        f"p10 {p10:.3f} p50 {p50:.3f} p90 {p90:.3f}"
    )
    for label, interval_clock, intervals in (
        ("imports", setup_clock, [(_PROCESS_START, _IMPORTS_END)]),
        ("set-up", setup_clock, setup_intervals),
        ("repetition", clock, reps.intervals(traced=False)),
        ("traced repetition", clock, reps.intervals(traced=True)),
    ):
        for index, (start, end) in enumerate(intervals, 1):
            print(
                f"{label} {index}: {interval_clock.elapsed(start, end):.4f} s host-normalised, "
                f"{end - start:.4f} s wall"
            )
    for failure in reps.failures:
        print("FAILED:", failure, file=sys.stderr)

    values = dict(reps.observation or {})
    if reps.marks and not reps.failures:
        if args.trace:
            values.update(layer_values(setup_tracer, reps, setup_clock, clock))
            last_tracer = [tracer for _, _, tracer in reps.marks if tracer is not None][-1]
            path = write_chrome_trace(workload, setup_tracer, last_tracer)
            print(f"chrome trace of the set-up and the last traced repetition: {path}")
        else:
            values["run_wall_s"] = median_elapsed(clock, reps.intervals(traced=False))
            values["setup_s"] = setup_clock.elapsed(
                _PROCESS_START, _IMPORTS_END
            ) + median_elapsed(setup_clock, setup_intervals)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for metric in PER_LAYER if args.trace else END_TO_END:
        if metric.name in values:
            metrics[metric.name] = {"value": values[metric.name], "unit": metric.unit}
            print(f"{metric.name} {values[metric.name]:.6g} {metric.unit}")
    result = {
        "correct": not reps.failures,
        "attempted": reps.attempted,
        "failed": len(reps.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
