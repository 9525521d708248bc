"""Optional fused C kernel for the fleet Adam update.

The chunked numpy update in :class:`~repro.nn.bank.FleetAdam` makes ~14
elementwise passes over the moment matrices; at paper scale that is the
single largest slice of a batched training step.  This module compiles
a tiny single-pass C kernel with the system C compiler the first time
it is needed and exposes it through ctypes.  Everything is optional:
when no compiler is available (or compilation fails for any reason) the
caller falls back to the numpy path.

Compiled kernels are cached on disk keyed by a hash of the C source
(plus the flags and the platform tag), so the compiler runs **at most
once per host** no matter how many processes need the kernel — the
run-level pool's workers all dlopen the same cached ``.so`` (a
process's step shards are threads sharing its one load).  Concurrent first use is serialized by a lockfile: one process
compiles into a private temp file and publishes it with an atomic
rename; the others wait for the artifact to appear.  A stale lock (a
compiler crash) times out and the waiter compiles privately — the
rename makes the last writer win with a byte-identical artifact.

Bit-identity contract: the kernel performs the *exact* float32 op
sequence of ``Adam.step``/``FleetAdam._step_chunked`` — one rounding per
arithmetic op, scalars pre-cast to float32.  The flags keep that true
while letting the compiler vectorise the loop (``_CFLAGS``):
``-ffp-contract=off`` forbids fusing a multiply-add into an FMA with a
different rounding; ``-fno-math-errno`` only drops ``sqrtf``'s ``errno``
side effect, which is what lets it become an inline ``sqrtps``; ``-O3``
turns on the loop vectoriser, and packed ``mulps``/``addps``/``divps``/
``sqrtps`` are the same correctly rounded IEEE operations as their
scalar forms, lane by lane.  No ``-ffast-math`` (reassociation,
reciprocal approximations, flush-to-zero) and no ``-march=native`` (the
cached artifact must not depend on which host compiled it).
``tests/test_nn_bank.py`` asserts the kernel, the numpy path and
per-node ``Adam.step`` produce byte-identical results on adversarial
values, and that the compiler reports the loop vectorised.

Nothing here degrades silently: :func:`kernel_status` says which path
runs and why, and a failed build raises one ``RuntimeWarning`` per
process carrying the compiler's error.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

__all__ = ["fused_adam_step", "kernel_cache_dir", "kernel_status"]

#: Set to a non-empty value to force the numpy fallback (benchmarks and
#: tests use this to exercise both paths).
_DISABLE_ENV = "REPRO_NO_FUSED_ADAM"

#: Override the on-disk kernel cache directory (tests point this at a
#: temp dir to exercise cold-cache and lock-contention paths).
_CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

_CFLAGS = ["-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC"]

#: How long a waiter polls for a concurrent compiler to publish the
#: ``.so`` before assuming the lock is stale and compiling privately.
_LOCK_WAIT_SECONDS = 120.0
_LOCK_POLL_SECONDS = 0.05

_SOURCE = r"""
#include <math.h>

/* One Adam update over one row of n contiguous float32 elements,
 * mirroring repro.nn.optim.Adam.step op for op:
 *   m    = m*b1 + (1-b1)*g
 *   v    = v*b2 + (1-b2)*(g*g)
 *   p   -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
 * Every intermediate is a float; each op rounds once.  The arrays never
 * overlap (restrict) and the loop body is branch-free, so the compiler
 * vectorises it. */
static inline void adam_row(float *restrict p, const float *restrict g,
                            float *restrict m, float *restrict v,
                            long long n, float b1, float omb1, float b2,
                            float omb2, float bc1, float bc2, float lr,
                            float eps)
{
    long long i;
    for (i = 0; i < n; ++i) {
        float mi = m[i] * b1;
        mi = mi + omb1 * g[i];
        m[i] = mi;
        float vi = v[i] * b2;
        float gs = g[i] * g[i];
        vi = vi + omb2 * gs;
        v[i] = vi;
        float num = lr * (mi / bc1);
        float den = sqrtf(vi / bc2) + eps;
        p[i] = p[i] - num / den;
    }
}

/* n_rows consecutive rows of n_cols elements each; row r is corrected
 * by bc1[r], bc2[r] (its own step count).  Lock-step fleets and
 * staggered restores are both this one call. */
void adam_step(float *restrict p, const float *restrict g,
               float *restrict m, float *restrict v,
               long long n_rows, long long n_cols,
               const float *restrict bc1, const float *restrict bc2,
               float b1, float omb1, float b2, float omb2,
               float lr, float eps)
{
    long long r;
    for (r = 0; r < n_rows; ++r) {
        long long o = r * n_cols;
        adam_row(p + o, g + o, m + o, v + o, n_cols, b1, omb1, b2, omb2,
                 bc1[r], bc2[r], lr, eps);
    }
}
"""

#: ``(entry point or None, .so name or None, failure reason or None)``
#: once the first call has resolved the kernel — loaded or failed, the
#: probe runs exactly once per process.
_resolved: tuple | None = None

_F32P = np.ctypeslib.ndpointer(dtype=np.float32, flags="C_CONTIGUOUS")


def kernel_cache_dir() -> Path:
    """The on-disk kernel cache directory (env-overridable)."""
    override = os.environ.get(_CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "kernels"


def _source_key() -> str:
    """Cache key: hash of source + flags + platform ABI tag."""
    tag = "\x00".join([_SOURCE, " ".join(_CFLAGS), platform.machine()])
    return hashlib.sha256(tag.encode()).hexdigest()[:16]


def _run_compiler(src: Path, out: Path) -> None:
    subprocess.run(
        ["cc", *_CFLAGS, str(src), "-o", str(out), "-lm"],
        check=True,
        capture_output=True,
        timeout=120,
    )


def _compile_into(cache: Path, so_path: Path) -> None:
    """Compile into a private temp file and atomically publish it.

    Appends one line to ``compiles.log`` per actual compiler run — the
    at-most-once-per-host property is directly observable there (and
    asserted by the lock-contention regression test).
    """
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=cache)
    with os.fdopen(fd, "w") as fh:
        fh.write(_SOURCE)
    tmp_so = tmp_src[:-2] + ".so"
    try:
        _run_compiler(Path(tmp_src), Path(tmp_so))
        with open(cache / "compiles.log", "a") as log:
            log.write(f"{os.getpid()} {so_path.name}\n")
        os.replace(tmp_so, so_path)  # atomic publish; last writer wins
    finally:
        for leftover in (tmp_src, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def _ensure_cached(so_path: Path) -> None:
    """Make ``so_path`` exist, compiling at most once across processes."""
    if so_path.exists():
        return
    cache = so_path.parent
    cache.mkdir(parents=True, exist_ok=True)
    lock = so_path.with_suffix(".lock")
    try:
        lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        # Another process is compiling: wait for it to publish the .so.
        deadline = time.monotonic() + _LOCK_WAIT_SECONDS
        while time.monotonic() < deadline:
            if so_path.exists():
                return
            if not lock.exists():  # holder finished (or died) — re-check
                break
            time.sleep(_LOCK_POLL_SECONDS)
        if so_path.exists():
            return
        # Stale lock: compile privately; the atomic rename keeps the
        # artifact consistent even if the holder resurfaces.
        _compile_into(cache, so_path)
        return
    try:
        if not so_path.exists():
            _compile_into(cache, so_path)
    finally:
        os.close(lock_fd)
        try:
            os.unlink(lock)
        except OSError:
            pass


def _load() -> tuple[ctypes._CFuncPtr, str]:
    """The ``adam_step`` entry point and the name of the ``.so`` it is in."""
    so_path = kernel_cache_dir() / f"adam-{_source_key()}.so"
    try:
        _ensure_cached(so_path)
        lib, so_name = ctypes.CDLL(str(so_path)), so_path.name
    except OSError:
        # Unwritable/broken cache dir: fall back to a throwaway build
        # (the pre-cache behaviour).  A compiler that ran and failed is
        # not an OSError and propagates — a second build would fail too.
        # The mapping outlives the file, so the directory goes as soon
        # as the library is loaded.
        with tempfile.TemporaryDirectory(prefix="repro-fused-adam-") as build_dir:
            src = Path(build_dir) / "adam.c"
            src.write_text(_SOURCE)
            out = Path(build_dir) / "adam.so"
            _run_compiler(src, out)
            lib, so_name = ctypes.CDLL(str(out)), "adam.so (uncached build)"
    lib.adam_step.argtypes = [
        _F32P,  # p
        _F32P,  # g
        _F32P,  # m
        _F32P,  # v
        ctypes.c_longlong,  # n_rows
        ctypes.c_longlong,  # n_cols
        _F32P,  # bc1, one per row
        _F32P,  # bc2, one per row
        *[ctypes.c_float] * 6,  # b1, 1-b1, b2, 1-b2, lr, eps
    ]
    lib.adam_step.restype = None
    return lib.adam_step, so_name


def _describe(exc: Exception) -> str:
    """Why the kernel could not be built or loaded (warning and status text)."""
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        return f"cc exited {exc.returncode}: {stderr or 'no output'}"
    if isinstance(exc, FileNotFoundError) and exc.filename == "cc":
        return "no C compiler: cc is not on PATH"
    return f"{type(exc).__name__}: {exc}"


def _resolve() -> tuple:
    """``_resolved``, loading (or failing to load) the kernel on first use."""
    global _resolved
    if _resolved is None:
        try:
            _resolved = (*_load(), None)
        except Exception as exc:
            reason = _describe(exc)
            warnings.warn(
                f"fused Adam kernel unavailable, FleetAdam runs on the numpy "
                f"fallback (same results, slower): {reason}",
                RuntimeWarning,
                stacklevel=3,
            )
            _resolved = (None, None, reason)
    return _resolved


def fused_adam_step():
    """The compiled ``adam_step`` entry point, or None if unavailable.

    The first call resolves the kernel — from the on-disk cache when a
    previous process already compiled it, else by compiling once — and
    a failure is cached (and warned about, once), so broken environments
    pay the probe exactly once per process.  ``REPRO_NO_FUSED_ADAM`` is
    read on every call.
    """
    if os.environ.get(_DISABLE_ENV):
        return None
    return _resolve()[0]


def kernel_status() -> dict:
    """Which Adam update runs in this process, and why.

    ``path`` is ``"kernel"`` or ``"numpy"``, ``reason`` says how that was
    decided (the compiler's error when a build failed), ``flags`` are the
    compiler flags of the kernel and ``so`` the loaded artifact's name.
    Resolves the kernel if nothing has yet, like the first update would.
    """
    if os.environ.get(_DISABLE_ENV):
        path, so_name, reason = "numpy", None, f"{_DISABLE_ENV} is set"
    else:
        kernel, so_name, failure = _resolve()
        path = "numpy" if kernel is None else "kernel"
        reason = failure or "compiled kernel loaded"
    return {"path": path, "reason": reason, "flags": " ".join(_CFLAGS), "so": so_name}
