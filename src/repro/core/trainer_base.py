"""Shared experiment scaffolding for LbChat and every baseline.

A trainer owns: the vehicle nodes, the mobility traces driving
encounters, the wireless/channel models, the discrete-event simulator,
and the metric recorders (fleet validation-loss curve, model receive
rate, byte counters).  Subclasses implement how/when vehicles exchange
models; the base class provides the vehicle main loop, neighbor
queries, and periodic loss recording so every method is measured
identically.

Timing conventions:

* each local training iteration occupies ``train_interval`` simulated
  seconds (a scaling knob standing in for GPU minibatch time — the paper
  trains far larger models on an RTX 2060);
* a vehicle is *busy* while chatting: it starts and accepts no other
  chat, and keeps training (busy state gates communication only);
* validation loss of every vehicle is recorded every
  ``record_interval`` simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint.state import FrameTable
from repro.core.chat import estimated_chat_bytes
from repro.core.ledger import TransferLedger
from repro.core.node import VehicleNode
from repro.engine import (
    CounterSet,
    ReceiveRateRecorder,
    Simulator,
    TimeSeriesRecorder,
    spawn_rng,
)
from repro.net.channel import ChannelConfig
from repro.net.contact import ContactEstimate, estimate_contact, estimate_contacts
from repro.net.wireless import WirelessModel
from repro.sim.dataset import DrivingDataset
from repro.sim.traces import MobilityTraces
from repro.telemetry import hooks as telemetry

__all__ = ["TrainerConfig", "TrainerBase", "pair_times_state", "pair_times_from_state"]


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
    scan_interval: float = 5.0  # how often an idle vehicle looks around
    record_interval: float = 30.0
    time_budget: float = 15.0  # T_B (§IV-A)
    route_horizon: float = 120.0  # shared route lookahead (§III-A)
    lambda_c: float = 0.02
    #: Minimum time before the same pair exchanges again — repeat chats
    #: with a peer whose model/data was just absorbed add nothing.
    pair_cooldown: float = 60.0
    wireless_loss: bool = True
    max_range: float = 500.0
    channel: ChannelConfig = field(default_factory=ChannelConfig)
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
    """Runs one collaborative-training experiment on the event engine."""

    name = "base"

    def __init__(
        self,
        nodes: list[VehicleNode],
        traces: MobilityTraces,
        validation: DrivingDataset,
        config: TrainerConfig,
    ):
        if len(nodes) != traces.positions.shape[1]:
            raise ValueError(
                f"{len(nodes)} nodes but traces cover {traces.positions.shape[1]} vehicles"
            )
        self.nodes = nodes
        self.traces = traces
        self.validation = validation
        self.config = config
        self.sim = Simulator()
        self.wireless = WirelessModel(
            max_range=config.max_range, enabled=config.wireless_loss
        )
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
        self._next_train = np.zeros(len(nodes))
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
        """Idle, cooldown-clear vehicles within radio range of ``i``.

        A non-positive ``max_range`` disables communication entirely
        (the local-training-only configuration).
        """
        if self.config.max_range <= 0:
            return []
        near = self.traces.neighbors(i, self.sim.now, self.config.max_range)
        return [j for j in near if self.is_idle(j) and self.pair_ready(i, j)]

    def pair_ready(self, i: int, j: int) -> bool:
        """Whether pair (i, j) is past its exchange cooldown."""
        last = self._last_chat.get((min(i, j), max(i, j)))
        return last is None or self.sim.now - last >= self.config.pair_cooldown

    def note_chat(self, i: int, j: int) -> None:
        """Record that pair (i, j) just chatted (cooldown start)."""
        self._last_chat[(min(i, j), max(i, j))] = self.sim.now

    def contact_estimate(self, i: int, j: int, exchange_bytes: float) -> ContactEstimate:
        """§III-A estimate for pair (i, j) from shared future routes."""
        now = self.sim.now
        route_i = self.traces.future_positions(i, now, self.config.route_horizon)
        route_j = self.traces.future_positions(j, now, self.config.route_horizon)
        return estimate_contact(
            route_i,
            route_j,
            self.traces.interval,
            self.wireless,
            self.config.channel,
            exchange_bytes,
            bandwidth_bps=min(
                self.nodes[i].config.bandwidth_bps, self.nodes[j].config.bandwidth_bps
            ),
        )

    def contact_estimates(
        self, i: int, candidates: list[int], exchange_bytes: list[float]
    ) -> list[ContactEstimate]:
        """:meth:`contact_estimate` of ``i`` with every candidate, from one
        slice of the traces."""
        now, horizon = self.sim.now, self.config.route_horizon
        bandwidth_i = self.nodes[i].config.bandwidth_bps
        return estimate_contacts(
            self.traces.future_positions(i, now, horizon),
            self.traces.future_positions(candidates, now, horizon),
            self.traces.interval,
            self.wireless,
            self.config.channel,
            exchange_bytes,
            [min(bandwidth_i, self.nodes[j].config.bandwidth_bps) for j in candidates],
        )

    def pair_distance_fn(self, i: int, j: int):
        """Distance between i and j as a function of absolute time."""
        return lambda t: self.traces.distance(i, j, t)

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

    def _vehicle_process(self, i: int, resume: bool = False):
        """Algorithm 2 main loop for one vehicle (train + encounters).

        Local training runs continuously — the onboard GPU keeps
        iterating while the radio is mid-transfer (the paper counts only
        local training time; communication and computation overlap).
        The busy state gates *communication* only: a vehicle in a chat
        does not start or accept another chat.

        With ``resume`` the loop first waits until the absolute time its
        pending timer would have fired in the original run, then
        proceeds exactly as if it had never been torn down.
        """
        cfg = self.config
        if resume:
            yield self.sim.wait_until(self._next_train[i])
        while self.sim.now < cfg.duration:
            # All vehicles fire at the same instants (training is never
            # gated by busy state), so the fleet engine runs one batched
            # step per instant; this event just claims vehicle i's share.
            self.fleet.train_tick(i)
            self.counters.add("train_steps")
            if self.sim.now >= self.next_scan[i] and self.is_idle(i):
                self.next_scan[i] = self.sim.now + cfg.scan_interval
                self.on_scan(i)
            self._next_train[i] = self.sim.now + cfg.train_interval
            yield self.sim.timeout(cfg.train_interval)

    def _recorder_process(self, resume: bool = False):
        if resume:
            yield self.sim.wait_until(self._next_record)
        while self.sim.now <= self.config.duration:
            self.record_losses()
            self._next_record = self.sim.now + self.config.record_interval
            yield self.sim.timeout(self.config.record_interval)

    # -- subclass hooks -----------------------------------------------------------

    def on_scan(self, i: int) -> None:
        """Called whenever idle vehicle ``i`` looks for exchange partners."""

    def extra_processes(self) -> list:
        """Additional generator processes (servers, RSUs, round clocks)."""
        return []

    def extra_activities(self, resume: bool = False) -> list:
        """``(armed_at, generator)`` pairs for the extra processes.

        ``armed_at`` is the virtual time the process's pending timer was
        *created* — it decides heap tie-break order on resume (see
        :meth:`run`).  Subclasses with resumable servers/round clocks
        override this alongside :meth:`extra_state`/:meth:`restore_extra`.
        """
        return [(self.sim.now, gen) for gen in self.extra_processes()]

    def extra_state(self) -> dict:
        """Subclass-owned state to include in checkpoints."""
        return {}

    def restore_extra(self, state) -> None:
        """Restore what :meth:`extra_state` captured."""

    def _reseed_extra_streams(self, barrier: int) -> None:
        """Re-derive subclass RNG streams at a checkpoint barrier."""

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
        resume = self._restored_at is not None
        activities: list[tuple[float, int, object]] = []
        for i in range(len(self.nodes)):
            armed_at = self._next_train[i] - cfg.train_interval
            activities.append(
                (armed_at, len(activities), self._vehicle_process(i, resume=resume))
            )
        activities.append(
            (
                self._next_record - cfg.record_interval,
                len(activities),
                self._recorder_process(resume=resume),
            )
        )
        for armed_at, gen in self.extra_activities(resume):
            activities.append((armed_at, len(activities), gen))
        if self.overlap is not None:
            for armed_at, gen in self.overlap.activities(resume):
                activities.append((armed_at, len(activities), gen))
        if resume:
            activities.sort(key=lambda item: (item[0], item[1]))
        for _, _, gen in activities:
            self.sim.process(gen)
        try:
            self.sim.run(until=cfg.duration)
            # Final snapshot so curves end exactly at T.
            self.record_losses()
        finally:
            self.fleet.close()
        telemetry.on_run_finished(self)

    # -- checkpointing ------------------------------------------------------------

    def checkpoint_barrier(self, barrier: int) -> dict:
        """Reseed RNG streams, then snapshot (the per-barrier protocol).

        Reseeding happens in *every* checkpointed run at *every*
        barrier, interrupted or not — a resumed run re-derives the same
        streams from ``(seed, name, barrier)`` alone, so no generator
        state needs to be serialized mid-stream.

        The state holds views of the live parameter and optimizer banks
        (:meth:`snapshot`): write it before the simulator runs on, or
        copy it (``copy.deepcopy``) to keep it past the barrier.
        """
        self.reseed_streams(barrier)
        state = self.snapshot()
        state["barrier"] = barrier
        return state

    def reseed_streams(self, barrier: int) -> None:
        """Re-derive every named RNG stream for the given barrier index."""
        for node in self.nodes:
            node.rng = spawn_rng(self.config.seed, f"node-{node.node_id}@ckpt{barrier}")
        self._reseed_extra_streams(barrier)

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
            "next_train": self._next_train.copy(),
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
        barrier = int(state["barrier"])
        frames = FrameTable(state["frame_table"])
        self.sim.advance_to(float(state["time"]))
        for row, (node, node_state) in enumerate(zip(self.nodes, state["nodes"], strict=True)):
            node.restore(node_state, frames)
            self.fleet.optim.node_restore(row, node_state["optimizer"])
        self.busy_until = np.asarray(state["busy_until"], dtype=float).copy()
        self._next_train = np.asarray(state["next_train"], dtype=float).copy()
        self.next_scan = np.asarray(state["next_scan"], dtype=float).copy()
        self._next_record = float(state["next_record"])
        self._last_chat = pair_times_from_state(state["last_chat"])
        self.loss_curve.restore(state["loss_curve"])
        self.receive_rate.restore(state["receive_rate"])
        self.counters.restore(state["counters"])
        self.reseed_streams(barrier)
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
