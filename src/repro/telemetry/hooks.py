"""Opt-in instrumentation entry points for the simulation hot paths.

Core modules call the module-level functions below at interesting
moments: ``net.channel`` and ``core.overlap`` per transfer,
``core.chat`` per protocol stage, ``LbChatTrainer.account_chat`` per
resolved chat, ``core.node`` per coreset rebuild and merge-reduce,
``core.trainer_base`` at run start and end and per loss record, and
``core.fleet`` / ``parallel.pool`` / ``parallel.forked`` through
:func:`count`.  When no :class:`TelemetrySession` is active every
call is a global read plus a ``None`` check — the no-op fast path that
keeps disabled-telemetry overhead well under 5%.  Activating a session
(via ``with TelemetrySession(): ...`` or :func:`activate`) routes the
same calls into its tracer/registry.

What a trainer counts itself — chats, absorbed frames, train steps,
model receptions — lives in its ``CounterSet`` / ``ReceiveRateRecorder``
only; :func:`on_run_finished` adds those into the registry once, and the
hooks count only what no recorder has.

The telemetry package never imports ``repro.core``/``repro.net``;
domain objects (a ``ChatOutcome``, a trainer) are duck-typed here so the
dependency arrow points strictly from the hot paths to telemetry.
"""

from __future__ import annotations

import threading

from repro.telemetry.registry import MetricRegistry
from repro.telemetry.tracer import Tracer

__all__ = [
    "TelemetrySession",
    "activate",
    "active",
    "count",
    "on_transfer",
    "on_chat_stage",
    "on_chat_resolved",
    "on_coreset_refresh",
    "on_coreset_merge",
    "on_run_started",
    "on_run_finished",
    "on_record_tick",
]


class TelemetrySession:
    """One run's worth of telemetry: tracer + metrics.

    Usable as a context manager; entering activates it globally (saving
    any previously active session) and exiting restores the previous
    state, so sessions nest safely in tests.
    """

    def __init__(self, label: str = "run"):
        self.label = label
        self.tracer = Tracer()
        self.registry = MetricRegistry()
        self.clock = None  # callable -> current virtual time, set by trainers
        self._previous: "TelemetrySession | None" = None

    def now(self) -> float:
        """Current virtual time (0.0 before any trainer sets the clock)."""
        return float(self.clock()) if self.clock is not None else 0.0

    def __enter__(self) -> "TelemetrySession":
        self._previous = active()
        activate(self)
        return self

    def __exit__(self, *exc) -> None:
        activate(self._previous)
        self._previous = None


_ACTIVE: TelemetrySession | None = None


def activate(session: TelemetrySession | None) -> None:
    """Make ``session`` the globally active one (None disables)."""
    global _ACTIVE
    _ACTIVE = session


def active() -> TelemetrySession | None:
    """The active session, or None when telemetry is off."""
    return _ACTIVE


# -- generic instruments (each no-ops when telemetry is off) -----------------


#: Serialises :func:`count`: a chat's side thread reaches it
#: (``loss_cache.resets``), and a counter's read-add-write and its
#: creation on first use are not atomic.
_COUNT_LOCK = threading.Lock()


def count(name: str, amount: float = 1.0) -> None:
    """Increment a registry counter (safe from any thread)."""
    s = _ACTIVE
    if s is not None:
        with _COUNT_LOCK:
            s.registry.counter(name).inc(amount)


# -- net.channel ------------------------------------------------------------


def on_transfer(n_bytes: float, result, start_time: float) -> None:
    """One simulated transfer finished (``result`` is a TransferResult)."""
    s = _ACTIVE
    if s is None:
        return
    s.registry.counter("transfer.count").inc()
    s.registry.counter("transfer.bytes_requested").inc(n_bytes)
    s.registry.counter("transfer.bytes_delivered").inc(result.bytes_delivered)
    if not result.completed:
        s.registry.counter("transfer.failed").inc()
    s.registry.histogram("transfer.elapsed_s").observe(result.elapsed)
    s.tracer.event(
        "transfer",
        start_time + result.elapsed,
        bytes=float(n_bytes),
        delivered=float(result.bytes_delivered),
        elapsed=float(result.elapsed),
        completed=bool(result.completed),
    )


# -- core.chat / core.lbchat ---------------------------------------------------


def on_chat_stage(stage: str, time: float, ok: bool) -> None:
    """One protocol stage of the current chat finished (or died)."""
    s = _ACTIVE
    if s is not None:
        s.tracer.event("chat.stage", time, stage=stage, ok=bool(ok))


def on_chat_resolved(start_time: float, outcome, overlapped: bool) -> None:
    """A chat's ``ChatOutcome`` was accounted, under either protocol.

    Counts what the trainer's recorders do not: aborts by stage, the
    psi and duration distributions, and overlap commits/aborts (a commit
    is a chat cut at no stage whose every attempted leg arrived).  A
    synchronous chat closes the span ``LbChatTrainer._chat`` opened; an
    overlapped one cannot use the tracer's span stack — several can be
    in flight at once — so it is one event carrying explicit start/end
    times.
    """
    s = _ACTIVE
    if s is None:
        return
    psi_i = outcome.psi.psi_i if outcome.psi is not None else None
    psi_j = outcome.psi.psi_j if outcome.psi is not None else None
    if outcome.aborted:
        s.registry.counter(f"chat.aborted.{outcome.aborted}").inc()
    s.registry.histogram("chat.duration_s").observe(outcome.duration)
    for psi in (psi_i, psi_j):
        if psi is not None:
            s.registry.histogram("chat.psi").observe(psi)
    attrs = dict(
        status="aborted" if outcome.aborted else "ok",
        aborted=outcome.aborted,
        coresets_exchanged=outcome.coresets_exchanged,
        psi_i=psi_i,
        psi_j=psi_j,
        i_received_model=outcome.i_received_model,
        j_received_model=outcome.j_received_model,
        absorbed=outcome.absorbed_by_i + outcome.absorbed_by_j,
    )
    end = start_time + outcome.duration
    if not overlapped:
        s.tracer.end_span(end, **attrs)
        return
    committed = (
        not outcome.aborted
        and outcome.i_attempted == outcome.i_received_model
        and outcome.j_attempted == outcome.j_received_model
    )
    s.tracer.event("overlap.chat", end, start=start_time, committed=committed, **attrs)
    s.registry.counter("overlap.commits" if committed else "overlap.aborts").inc()


# -- core.node (coreset lifecycle) -------------------------------------------


def on_coreset_refresh(node_id: str, size: int) -> None:
    """A node rebuilt its coreset from scratch (Algorithm 1)."""
    s = _ACTIVE
    if s is None:
        return
    s.registry.counter("coreset.refreshes").inc()
    s.tracer.event("coreset.refresh", s.now(), node=node_id, size=size)


def on_coreset_merge() -> None:
    """A node merge-reduced a received coreset into its own (§III-D)."""
    s = _ACTIVE
    if s is not None:
        s.registry.counter("coreset.merges").inc()


# -- core.trainer_base --------------------------------------------------------


def on_run_started(trainer) -> None:
    """A trainer's run() began: bind the virtual clock, open the run span."""
    s = _ACTIVE
    if s is None:
        return
    s.clock = lambda: trainer.sim.now
    s.tracer.start_span(
        "trainer_run",
        trainer.sim.now,
        method=trainer.name,
        n_vehicles=len(trainer.nodes),
        duration=trainer.config.duration,
    )
    s.registry.gauge("run.n_vehicles").set(len(trainer.nodes))


def on_run_finished(trainer) -> None:
    """A trainer's run() ended: add its recorders in, close the run span.

    The recorders are the run's one ledger of what they count — a
    resumed trainer restored them from its barrier — so they are added
    here, once, and never counted live.
    """
    s = _ACTIVE
    if s is None:
        return
    for name, value in trainer.counters.as_dict().items():
        s.registry.counter(f"trainer.{name}").inc(value)
    s.registry.counter("model_rx.attempted").inc(trainer.receive_rate.attempted)
    s.registry.counter("model_rx.completed").inc(trainer.receive_rate.completed)
    if s.tracer.current_span is not None:
        s.tracer.end_span(trainer.sim.now, status="ok")


def on_record_tick(time: float, n_nodes: int) -> None:
    """The periodic loss recorder fired."""
    s = _ACTIVE
    if s is not None:
        s.tracer.event("record_losses", time, n_nodes=n_nodes)
        s.registry.counter("run.record_ticks").inc()
