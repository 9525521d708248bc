"""Shared experiment scaffolding for LbChat and every baseline.

A trainer owns: the vehicle nodes, the mobility traces driving
encounters, the wireless/channel models, the discrete-event simulator,
and the metric recorders (fleet validation-loss curve, model receive
rate, byte counters).  Subclasses implement how/when vehicles exchange
models; the base class provides the fleet's main loop, neighbor
queries, and periodic loss recording so every method is measured
identically, :meth:`TrainerBase.exchange_models` the one fixed-ratio
model swap the decentralised baselines (DP, DFL-DDS) exchange through,
and :class:`RoundTrainer` the one round clock the synchronous-round
baselines (ProxSkip, DFL-DDS) exchange on.  The base trainer itself is
the ``Local`` method: its scan does nothing, so vehicles never
communicate.

Timing conventions:

* each local training iteration occupies ``train_interval`` simulated
  seconds (a scaling knob standing in for GPU minibatch time — the paper
  trains far larger models on an RTX 2060);
* a vehicle is *busy* while chatting: it starts and accepts no other
  chat, and keeps training (busy state gates communication only);
* validation loss of every vehicle is recorded every
  ``record_interval`` simulated seconds;
* a round-based method exchanges at every ``round_interval`` tick of
  its round clock, on top of the same continuous local training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checkpoint.state import FrameTable
from repro.compression import decompress
from repro.core.chat import equal_compression_decision, estimated_chat_bytes
from repro.core.ledger import TransferLedger
from repro.core.node import NOMINAL_MODEL_BYTES, VehicleNode
from repro.engine import (
    CounterSet,
    ReceiveRateRecorder,
    Simulator,
    TimeSeriesRecorder,
)
from repro.net.channel import BANDWIDTH_BPS, simulate_transfer
from repro.net.contact import ContactEstimate, estimate_contact, estimate_contacts
from repro.net.wireless import WirelessModel
from repro.sim.dataset import DrivingDataset
from repro.sim.traces import MobilityTraces
from repro.telemetry import hooks as telemetry

__all__ = [
    "PAIR_COOLDOWN",
    "ROUTE_HORIZON",
    "SCAN_INTERVAL",
    "TIME_BUDGET",
    "TrainerConfig",
    "TrainerBase",
    "RoundConfig",
    "RoundTrainer",
    "pair_times_state",
    "pair_times_from_state",
]


#: How often an idle vehicle looks for peers in range (§III-A), seconds.
SCAN_INTERVAL = 5.0
#: Look-ahead of the routes vehicles share to estimate a contact's
#: duration (§III-A), seconds.
ROUTE_HORIZON = 120.0
#: T_B, the time budget of one exchange's model transfers (§IV-A: 15 s).
TIME_BUDGET = 15.0
#: Minimum time before the same pair exchanges again, seconds (§III-A):
#: repeat chats with a peer whose model and data were just absorbed add
#: nothing.
PAIR_COOLDOWN = 60.0


def pair_times_state(pairs: dict[tuple[int, int], float]) -> dict:
    """A ``(i, j) -> time`` dict as a checkpointable pair of arrays."""
    items = sorted(pairs.items())
    return {
        "pairs": np.asarray([key for key, _ in items], dtype=np.int64).reshape(-1, 2),
        "times": np.asarray([value for _, value in items], dtype=float),
    }


def pair_times_from_state(state) -> dict[tuple[int, int], float]:
    """Inverse of :func:`pair_times_state`."""
    pairs = np.asarray(state["pairs"], dtype=np.int64).reshape(-1, 2)
    times = np.asarray(state["times"], dtype=float)
    return {(int(i), int(j)): float(t) for (i, j), t in zip(pairs, times)}


@dataclass
class TrainerConfig:
    """Timeline and communication parameters shared by all methods."""

    duration: float = 1200.0  # simulated training time T
    train_interval: float = 2.0  # sim-seconds per local iteration
    record_interval: float = 30.0
    lambda_c: float = 0.02
    wireless_loss: bool = True
    seed: int = 0
    #: Ring-buffer budget for per-chat logs (0 = unbounded).  City-scale
    #: fleets chat often enough that an append-only log would dominate
    #: resident memory; the budget keeps the newest records and counts
    #: the evicted ones.
    chat_log_budget: int = 0
    #: Overlap chat model transfers with training (:mod:`repro.core.overlap`):
    #: the plan phase (handshake, selection, psi planning) stays synchronous
    #: at contact start, the model byte-transfer becomes a background
    #: activity on the virtual clock, and the exchanged state is absorbed
    #: at a commit barrier when the transfer resolves.  Off by default —
    #: the synchronous protocol is the golden-pinned reference.
    overlap_chat: bool = False


class TrainerBase:
    """Runs one collaborative-training experiment on the event engine.

    Used as is, it is pure local training (``Local``): the
    no-collaboration floor every collaborative method claims to beat.
    """

    name = "Local"
    #: The config a trainer of this class runs on (built with its
    #: defaults when none is given).
    config_class: type[TrainerConfig] = TrainerConfig

    def __init__(
        self,
        nodes: list[VehicleNode],
        traces: MobilityTraces,
        validation: DrivingDataset,
        config: TrainerConfig | None = None,
    ):
        if config is None:
            config = self.config_class()
        if len(nodes) != traces.positions.shape[1]:
            raise ValueError(
                f"{len(nodes)} nodes but traces cover {traces.positions.shape[1]} vehicles"
            )
        self.nodes = nodes
        self.traces = traces
        self.validation = validation
        self.config = config
        self.sim = Simulator()
        self.wireless = WirelessModel(enabled=config.wireless_loss)
        self.loss_curve = TimeSeriesRecorder()
        self.receive_rate = ReceiveRateRecorder()
        self.counters = CounterSet()
        self.ledger = TransferLedger(len(nodes))
        #: Async transfer scheduler (set by subclasses when
        #: ``config.overlap_chat`` is on); ``None`` keeps every chat
        #: synchronous.
        self.overlap = None
        self._last_chat: dict[tuple[int, int], float] = {}
        # Externalized per-process timer state, so a checkpoint can
        # re-arm every pending loop from absolute times (generators
        # themselves cannot be serialized).
        self.next_scan = np.zeros(len(nodes))
        self._next_train = 0.0
        self._next_record = 0.0
        self._restored_at: float | None = None
        pools = {node.dataset.pool for node in nodes}
        #: The fleet's one frame pool and its length now, when there is
        #: one: any trainer a resume builds the same way holds those
        #: frames, so a barrier names them by id (private pools are each
        #: restored onto the restoring node's own, so they name none).
        self._known_frames = None
        if len(pools) == 1:
            pool = pools.pop()
            self._known_frames = (pool, len(pool))
        from repro.core.fleet import FleetEngine

        #: The fleet the nodes were born in, the only way a trainer takes
        #: a gradient step: nodes it cannot step together raise
        #: :class:`~repro.core.fleet.FleetIncompatible` here.
        self.fleet = FleetEngine.of(nodes)

    # -- helpers subclasses use ------------------------------------------------

    @property
    def busy_until(self) -> np.ndarray:
        """Radio occupancy horizons (owned by the :class:`TransferLedger`)."""
        return self.ledger.busy_until

    @busy_until.setter
    def busy_until(self, value) -> None:
        self.ledger.busy_until = np.asarray(value, dtype=float)

    def is_idle(self, i: int) -> bool:
        """Whether vehicle ``i`` is free to start a chat."""
        return self.ledger.is_idle(i, self.sim.now)

    def occupy(self, i: int, duration: float) -> None:
        """Mark vehicle ``i`` busy for ``duration`` from now."""
        self.ledger.occupy(i, self.sim.now, duration)

    def estimate_chat_bytes(self, i: int, j: int, psi_total: float) -> float:
        """:func:`~repro.core.chat.estimated_chat_bytes` for the pair ``(i, j)``."""
        return estimated_chat_bytes(self.nodes[i], self.nodes[j], psi_total)

    def idle_neighbors(self, i: int) -> list[int]:
        """Idle, cooldown-clear vehicles within radio range of ``i``."""
        near = self.traces.neighbors(i, self.sim.now, self.wireless.max_range)
        return [j for j in near if self.is_idle(j) and self.pair_ready(i, j)]

    def pair_ready(self, i: int, j: int) -> bool:
        """Whether pair (i, j) is past its exchange cooldown."""
        last = self._last_chat.get((min(i, j), max(i, j)))
        return last is None or self.sim.now - last >= PAIR_COOLDOWN

    def note_chat(self, i: int, j: int) -> None:
        """Record that pair (i, j) just chatted (cooldown start)."""
        self._last_chat[(min(i, j), max(i, j))] = self.sim.now

    def contact_estimate(self, i: int, j: int, exchange_bytes: float) -> ContactEstimate:
        """§III-A estimate for pair (i, j) from shared future routes."""
        now = self.sim.now
        route_i = self.traces.future_positions(i, now, ROUTE_HORIZON)
        route_j = self.traces.future_positions(j, now, ROUTE_HORIZON)
        return estimate_contact(
            route_i,
            route_j,
            self.traces.interval,
            self.wireless,
            exchange_bytes,
        )

    def contact_estimates(
        self, i: int, candidates: list[int], exchange_bytes: list[float]
    ) -> list[ContactEstimate]:
        """:meth:`contact_estimate` of ``i`` with every candidate, from one
        slice of the traces."""
        now = self.sim.now
        return estimate_contacts(
            self.traces.future_positions(i, now, ROUTE_HORIZON),
            self.traces.future_positions(candidates, now, ROUTE_HORIZON),
            self.traces.interval,
            self.wireless,
            exchange_bytes,
        )

    def pair_distance_fn(self, i: int, j: int):
        """Distance between i and j as a function of absolute time."""
        return lambda t: self.traces.distance(i, j, t)

    def exchange_models(self, i: int, j: int, window: float, merge) -> None:
        """Swap models between ``i`` and ``j`` at one fixed compression ratio.

        §IV-B runs the decentralised baselines under LbChat's
        communication constraints: with no value assessment, both models
        get the same ratio, sized to fill ``min(window, contact)`` at raw
        bandwidth.  There is no loss-aware estimate (that is LbChat's
        route machinery), so under wireless loss an exchange can overrun
        the contact.  ``x_i`` goes first, then ``x_j``; each model that
        arrives is handed to ``merge(receiver, sender, params)`` by row.
        """
        now = self.sim.now
        node_i, node_j = self.nodes[i], self.nodes[j]
        estimate = self.contact_estimate(i, j, NOMINAL_MODEL_BYTES)
        contact = max(estimate.contact_duration, 1.0)
        decision = equal_compression_decision(NOMINAL_MODEL_BYTES, BANDWIDTH_BPS, window, contact)
        distance_fn = self.pair_distance_fn(i, j)
        deadline = now + min(contact, window)
        session = telemetry.active()
        if session is not None:
            session.tracer.start_span("exchange", now, i=node_i.node_id, j=node_j.node_id)
        elapsed = 0.0
        received = 0
        for sender, receiver, psi in ((i, j, decision.psi_i), (j, i, decision.psi_j)):
            if psi <= 0:
                continue
            compressed = self.nodes[sender].compress_model(psi)
            # As in a chat: a payload that keeps no entry is no reception.
            if compressed.nominal_bytes <= 0:
                continue
            sent = simulate_transfer(
                compressed.nominal_bytes,
                distance_fn,
                self.wireless,
                now + elapsed,
                deadline,
            )
            elapsed += sent.elapsed
            self.receive_rate.observe(sent.completed)
            if sent.completed:
                received += 1
                fill = self.nodes[receiver].flat_params
                merge(receiver, sender, decompress(compressed, fill=fill))
        if session is not None:
            session.tracer.end_span(now + elapsed, status="ok", received=received)
        self.occupy(i, elapsed)
        self.occupy(j, elapsed)
        self.note_chat(i, j)

    def record_losses(self) -> None:
        """Record every vehicle's validation loss at the current time.

        All nodes evaluate in one batched forward (the shared validation
        batch broadcasts against the parameter bank).
        """
        losses = self.fleet.evaluate_fleet(self.validation)
        for node, loss in zip(self.nodes, losses):
            self.loss_curve.record(node.node_id, self.sim.now, float(loss))
        telemetry.on_record_tick(self.sim.now, len(self.nodes))

    # -- processes ------------------------------------------------------------

    def _fleet_process(self):
        """Algorithm 2's main loop, for the whole fleet (train + encounters).

        Local training runs continuously — the onboard GPU keeps
        iterating while the radio is mid-transfer (the paper counts only
        local training time; communication and computation overlap).
        Every vehicle trains at the same instants, so one process steps
        the whole bank once per instant, then lets each due, idle
        vehicle scan, in row order.  The busy state gates
        *communication* only: a vehicle in a chat does not start or
        accept another chat.

        Yield-first, like every process here: a fresh loop waits until
        0, a resumed one until its pending timer — the absolute time it
        would have fired at in the original run.
        """
        cfg = self.config
        n = len(self.nodes)
        while True:
            yield self.sim.wait_until(self._next_train)
            if self.sim.now >= cfg.duration:
                return
            self.fleet.train_step_all()
            self.counters.add("train_steps", n)
            for i in range(n):
                if self.sim.now >= self.next_scan[i] and self.is_idle(i):
                    self.next_scan[i] = self.sim.now + SCAN_INTERVAL
                    self.on_scan(i)
            self._next_train = self.sim.now + cfg.train_interval

    def _recorder_process(self):
        while True:
            yield self.sim.wait_until(self._next_record)
            if self.sim.now > self.config.duration:
                return
            self.record_losses()
            self._next_record = self.sim.now + self.config.record_interval

    # -- subclass hooks -----------------------------------------------------------

    def on_scan(self, i: int) -> None:
        """Called whenever idle vehicle ``i`` looks for exchange partners
        (a no-op here: ``Local`` vehicles never communicate)."""

    def extra_activities(self) -> list:
        """``(armed_at, generator)`` pairs for additional processes (a
        round clock, :class:`RoundTrainer`); none by default.

        ``armed_at`` is the virtual time the process's pending timer was
        *created* — it decides heap tie-break order on resume (see
        :meth:`run`).
        """
        return []

    def extra_state(self) -> dict:
        """Subclass-owned state to include in checkpoints."""
        return {}

    def restore_extra(self, state) -> None:
        """Restore what :meth:`extra_state` captured."""

    # -- entry point -----------------------------------------------------------

    def run(self, checkpointer=None) -> None:
        """Execute the experiment until ``config.duration``.

        With a :class:`~repro.checkpoint.policy.Checkpointer`, barrier
        snapshots are armed *before* any process so that at a barrier
        instant the snapshot callback always dispatches ahead of
        same-time timer events (it holds a lower sequence number).

        On a resumed trainer (:meth:`restore` was called), processes are
        re-created and sorted by ``(armed_at, creation index)`` — the
        order their pending timers entered the original heap — so ties
        at the next fire instant dispatch exactly as the uninterrupted
        run would have dispatched them.
        """
        telemetry.on_run_started(self)
        if checkpointer is not None:
            checkpointer.schedule(self)
        cfg = self.config
        activities = [
            (self._next_train - cfg.train_interval, self._fleet_process()),
            (self._next_record - cfg.record_interval, self._recorder_process()),
            *self.extra_activities(),
        ]
        if self.overlap is not None:
            activities += self.overlap.activities()
        if self._restored_at is not None:
            # A stable sort: timers armed at one instant keep creation order.
            activities.sort(key=lambda item: item[0])
        for _, gen in activities:
            self.sim.process(gen)
        self.sim.run(until=cfg.duration)
        # Final snapshot so curves end exactly at T.
        self.record_losses()
        telemetry.on_run_finished(self)

    # -- checkpointing ------------------------------------------------------------

    def checkpoint_barrier(self, barrier: int) -> dict:
        """The snapshot a checkpoint barrier writes: :meth:`snapshot`
        plus the barrier's index.

        The state holds views of the live parameter and optimizer banks
        (:meth:`snapshot`): write it before the simulator runs on, or
        copy it (``copy.deepcopy``) to keep it past the barrier.
        """
        state = self.snapshot()
        state["barrier"] = barrier
        return state

    def snapshot(self) -> dict:
        """Full trainer state as a checkpointable tree (a pure read).

        Not a copy: each node's parameters and optimizer moments are
        rows of the fleet's banks (see :meth:`checkpoint_barrier`).
        """
        frames = FrameTable(known=self._known_frames)
        nodes = [node.snapshot(frames) for node in self.nodes]
        for row, node_state in enumerate(nodes):
            node_state["optimizer"] = self.fleet.optim.node_snapshot(row)
        state = {
            "time": self.sim.now,
            "nodes": nodes,
            "busy_until": self.busy_until.copy(),
            "next_train": self._next_train,
            "next_scan": self.next_scan.copy(),
            "next_record": self._next_record,
            "last_chat": pair_times_state(self._last_chat),
            "loss_curve": self.loss_curve.snapshot(),
            "receive_rate": self.receive_rate.snapshot(),
            "counters": self.counters.snapshot(),
            "extra": self.extra_state(),
        }
        if self.overlap is not None:
            state["overlap"] = self.overlap.snapshot(frames)
        # Last: every dataset of the tree has named its rows by now.
        state["frame_table"] = frames.state()
        session = telemetry.active()
        state["telemetry"] = session.registry.state() if session is not None else None
        return state

    def restore(self, state) -> None:
        """Load a barrier snapshot into this (freshly built) trainer.

        Must be called before :meth:`run`; the saved telemetry registry
        state is merged into the active session so counters accumulated
        before the interruption are not lost.
        """
        frames = FrameTable(state["frame_table"])
        self.sim.advance_to(float(state["time"]))
        for row, (node, node_state) in enumerate(zip(self.nodes, state["nodes"], strict=True)):
            node.restore(node_state, frames)
            self.fleet.optim.node_restore(row, node_state["optimizer"])
        self.busy_until = np.asarray(state["busy_until"], dtype=float).copy()
        self._next_train = float(state["next_train"])
        self.next_scan = np.asarray(state["next_scan"], dtype=float).copy()
        self._next_record = float(state["next_record"])
        self._last_chat = pair_times_from_state(state["last_chat"])
        self.loss_curve.restore(state["loss_curve"])
        self.receive_rate.restore(state["receive_rate"])
        self.counters.restore(state["counters"])
        self.restore_extra(state["extra"])
        overlap_state = state.get("overlap")
        if self.overlap is not None:
            self.overlap.restore(overlap_state, frames)
        elif overlap_state is not None and overlap_state.get("flights"):
            raise ValueError(
                "checkpoint holds in-flight overlap transfers but this trainer "
                "has no transfer scheduler to re-arm them on"
            )
        session = telemetry.active()
        if session is not None and state.get("telemetry") is not None:
            session.registry.merge_state(state["telemetry"])
        self._restored_at = self.sim.now


@dataclass
class RoundConfig(TrainerConfig):
    """A timeline with a global round clock."""

    #: Round length; the paper sets it equal to LbChat's T_B (§IV-B).
    round_interval: float = 15.0


class RoundTrainer(TrainerBase):
    """Exchanges at the ticks of one global round clock.

    Vehicles train continuously, as under every method; at each
    ``round_interval`` tick the clock calls :meth:`on_round`, which each
    round-based baseline fills in (a ProxSkip server synchronisation, a
    DFL-DDS round boundary).  ``next_round`` is the clock's pending fire
    time, checkpointed so a resumed clock re-arms at the exact instant.
    """

    config_class = RoundConfig
    config: RoundConfig

    def __init__(self, nodes, traces, validation, config: RoundConfig | None = None):
        super().__init__(nodes, traces, validation, config)
        self.next_round = self.config.round_interval

    def _round_process(self):
        # Yield-first: a fresh clock waits out its first round, a resumed
        # one its pending timer — the same absolute time either way.
        cfg = self.config
        while True:
            yield self.sim.wait_until(self.next_round)
            self.on_round()
            if self.sim.now >= cfg.duration:
                return
            self.next_round = self.sim.now + cfg.round_interval

    def extra_activities(self) -> list:
        """The round clock."""
        return [(self.next_round - self.config.round_interval, self._round_process())]

    def extra_state(self) -> dict:
        return {"next_round": self.next_round}

    def restore_extra(self, state) -> None:
        self.next_round = float(state["next_round"])
