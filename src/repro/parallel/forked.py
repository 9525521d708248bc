"""One call in a forked child while the caller does other work.

A context's set-up steps two independent worlds: the fleet's collection
world and the background-free trace world of
:func:`~repro.sim.traces.simulate_traces`.  :func:`fork_call` starts
``fn(*args)`` in a forked child and returns at once;
:meth:`ForkedCall.result` reads the child's pickled return value off a
pipe and reaps the child::

    with fork_call(simulate_traces, config, duration) as traces:
        ...  # the caller's own work, on the other core
        value = traces.result()

The child runs the same function on the same arguments under the same
pinned BLAS; only the process differs, so the value is the in-process
value bit for bit.  Leaving the ``with`` block without the result (the
caller's work raised) kills and reaps the child.

The call runs in the calling process instead, inside
:meth:`ForkedCall.result` — where an unforked caller would have run it —
for three reasons, each counted as ``fork.in_process.<reason>``:

* ``no_fork`` — the platform has no ``os.fork``;
* ``thread_alive`` — another Python thread is alive, and a child can
  inherit a lock that thread holds;
* ``child_failed`` — the child exited non-zero or died before it wrote;
  a :class:`RuntimeWarning` carries its exit status or traceback.

A value that came back from a child counts ``fork.from_child``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings

__all__ = ["ForkedCall", "fork_call"]


def _in_process_reason() -> str | None:
    """Why ``fork_call`` must not fork here, or None if it may."""
    if not hasattr(os, "fork"):
        return "no_fork"
    if threading.active_count() > 1:
        return "thread_alive"
    return None


def fork_call(fn, *args) -> "ForkedCall":
    """Start ``fn(*args)`` in a forked child; collect it with :meth:`ForkedCall.result`."""
    from repro.telemetry import hooks

    reason = _in_process_reason()
    if reason is not None:
        hooks.count(f"fork.in_process.{reason}")
        return ForkedCall(fn, args)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # The child never returns into the caller's stack: no atexit
        # handler, no flush of stdio buffers it inherited half full.
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    payload = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
                except BaseException:
                    pipe.write(traceback.format_exc().encode())
                else:
                    pipe.write(payload)
                    status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return ForkedCall(fn, args, pid, read_end)


class ForkedCall:
    """A :func:`fork_call` in flight: collect it once, or close it."""

    def __init__(self, fn, args: tuple, pid: int | None = None, read_end: int | None = None):
        self._fn = fn
        self._args = args
        self._pid = pid  # None: the call runs in this process
        self._read_end = read_end

    def result(self):
        """``fn(*args)``: the child's value, or the call run in this process."""
        from repro.telemetry import hooks

        if self._pid is None:
            return self._fn(*self._args)
        # Read to EOF before reaping: a value larger than the pipe's
        # buffer keeps the child blocked in its write until it is read.
        read_end, self._read_end = self._read_end, None
        with open(read_end, "rb") as pipe:
            payload = pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            hooks.count("fork.from_child")
            return pickle.loads(payload)
        said = payload.decode(errors="replace").strip() or "it wrote nothing"
        warnings.warn(
            f"the forked {getattr(self._fn, '__qualname__', self._fn)!r} exited with "
            f"status {code}; running it in this process instead. {said}",
            RuntimeWarning,
            stacklevel=2,
        )
        hooks.count("fork.in_process.child_failed")
        return self._fn(*self._args)

    def close(self) -> None:
        """Kill and reap a child whose result was never collected."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._read_end is not None:
            os.close(self._read_end)
            self._read_end = None

    def __enter__(self) -> "ForkedCall":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
