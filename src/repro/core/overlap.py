"""Overlapped chats: plan synchronously, transfer in the background.

The synchronous protocol (:mod:`repro.core.chat`) resolves a whole chat
— handshake, coreset exchange, psi planning, and both model transfers —
at the scan instant, and occupies both radios for the summed duration.
This module splits that into two phases:

**Plan phase** (synchronous, at contact start): assistive info,
coreset exchange, cross-evaluations, psi-map fitting, and the Eq. 7
compression decision run exactly as in the synchronous protocol (the
same :func:`repro.core.chat._negotiate`), and both directions'
compressed payloads are captured immediately.

Both protocols fit their psi maps with :class:`DensePsiProber`: the ~7
compressed variants are stacked into a small
:class:`~repro.nn.bank.ParamBank` and scored with a single
:class:`~repro.nn.bank.FleetWaypointNet` forward over the coreset
instead of seven sequential per-model forwards, and payload compression
reuses the psi map's :class:`~repro.compression.TopkPlan` ordering,
avoiding fresh argpartitions.

**Transfer phase** (background): the model byte-transfers become an
:class:`InFlightTransfer` activity on the virtual clock, advanced one
channel chunk at a time by a :class:`~repro.net.channel.TransferSession`
while every vehicle keeps issuing train ticks at full fleet width.  The
exchanged coresets and models are absorbed atomically at a *commit
barrier* when the flight resolves (completion, range cut, or deadline).

Staleness model (delayed averaging): payloads are snapshots of the
sender's parameters *at plan time*; by commit time both vehicles have
trained further, and Eq. 8 aggregation scores the stale payload against
the receiver's trained-ahead parameters on the plan-time joint coreset.
The synchronous protocol additionally lets the second sender compress
*after* absorbing the first model — overlapped chats drop that coupling
(both payloads are plan-time snapshots), mirroring how collaborative
training frameworks apply background-averaged state at a sync point
rather than freezing the learner.

Flights participate in checkpointing: the scheduler snapshots every
in-flight transfer (session arithmetic state, payloads, captured
coresets, the armed wakeup time) and re-arms each one on resume through
:meth:`TransferScheduler.activities`, so barrier resumes stay
bit-identical even with transfers in the air.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.compression import CompressedModel, topk_plan
from repro.core.chat import ChatOutcome, _absorb_both, _negotiate
from repro.core.psi import PsiDecision, PsiLossMap
from repro.coreset.construction import Coreset
from repro.coreset.penalty import penalized_loss
from repro.net.channel import TransferSession
from repro.telemetry import hooks as telemetry

__all__ = [
    "ChatPlan",
    "DensePsiProber",
    "InFlightTransfer",
    "TransferLeg",
    "TransferScheduler",
    "plan_chat",
]


class DensePsiProber:
    """Psi-grid probes of one model, evaluated as a fleet batch.

    One probe bank row per grid level: row ``k`` holds the model
    compressed to ``psi_grid[k]`` (dense at ``psi >= 1``).  A single
    shared-batch forward over the coreset then scores every level at
    once — the same per-layer GEMMs the fleet engine uses for training,
    instead of one full forward per level.
    """

    def __init__(self, template, psi_grid):
        from repro.nn.bank import FleetWaypointNet, ParamBank

        self.psis = [float(p) for p in sorted(psi_grid)]
        if len(self.psis) < 2:
            raise ValueError("psi grid needs at least two levels")
        self.bank = ParamBank(template, len(self.psis))
        self.net = FleetWaypointNet(self.bank, template)

    def compatible(self, node) -> bool:
        """Whether ``node``'s model/config fits this probe bank."""
        if node.config.compressor != "topk":
            return False
        if [float(p) for p in sorted(node.config.psi_grid)] != self.psis:
            return False
        try:
            self.bank._check_compatible(node.model)
        except ValueError:
            return False
        return True

    def build(self, node):
        """``(PsiLossMap, TopkPlan)`` for ``node`` in one batched forward."""
        from repro.compression.topk import topk_for_psi

        flat = np.asarray(node.flat_params, dtype=np.float32)
        plan = topk_plan(flat, node.config.nominal_model_bytes)
        n = flat.size
        # Fill rows densest-first: each sparser level copies its denser
        # neighbor and zeroes the next magnitude-order slice, so the
        # whole grid costs one pass over ``plan.order`` instead of a
        # compress + dense decompress per level.  Rows are bit-identical
        # to ``decompress(plan.compress(psi))``.
        prev_row: np.ndarray | None = None
        prev_k = n
        for row in reversed(range(len(self.psis))):
            dst = self.bank.flat[row]
            if self.psis[row] >= 1.0:
                dst[:] = flat
                prev_row, prev_k = dst, n
                continue
            k = topk_for_psi(n, self.psis[row])
            if prev_row is None:
                dst[:] = 0.0
                kept = plan.order[n - k :]
                dst[kept] = flat[kept]
            else:
                dst[:] = prev_row
                dst[plan.order[n - prev_k : n - k]] = 0.0
            prev_row, prev_k = dst, k
        bev, commands, targets, weights = node.coreset.data.arrays()
        pred = self.net.forward(bev, commands)  # (levels, batch, 2w)
        per_sample = np.abs(pred - np.asarray(targets)[None]).mean(axis=2)
        penalty = node.config.penalty
        losses = []
        for row, row_losses in enumerate(per_sample):
            if penalty.enabled:
                value = penalized_loss(
                    self.bank.flat[row], row_losses, commands, weights, penalty
                )
            else:
                norm = np.asarray(weights, dtype=row_losses.dtype)
                value = float(row_losses @ (norm / norm.sum()))
            losses.append(value)
        return PsiLossMap(np.asarray(self.psis), np.asarray(losses)), plan


@dataclass
class TransferLeg:
    """One directional model transfer inside a flight."""

    sender: int  # trainer node index
    receiver: int
    n_bytes: float
    payload: CompressedModel | None
    session: TransferSession | None = None


@dataclass
class InFlightTransfer:
    """A chat's transfer phase, live on the virtual clock."""

    i: int
    j: int
    plan_start: float
    transfer_start: float
    contact_deadline: float
    model_deadline: float
    mean_aggregation: bool
    outcome: ChatOutcome
    legs: list[TransferLeg]
    joint: object  # DrivingDataset captured at plan time (Eq. 8 eval set)
    coreset_i: Coreset  # plan-time coreset snapshots, absorbed at commit
    coreset_j: Coreset
    leg_idx: int = 0
    #: Absolute time of the pending wakeup, and the virtual time that
    #: wakeup was armed (decides same-instant dispatch order on resume).
    next_fire: float | None = None
    armed_at: float = 0.0


@dataclass
class ChatPlan:
    """Result of the synchronous plan phase."""

    outcome: ChatOutcome
    elapsed: float  # plan-phase seconds (handshake through Eq. 7)
    flight: InFlightTransfer | None  # None when the chat ended in planning


def plan_chat(
    node_i,
    node_j,
    i: int,
    j: int,
    distance_fn,
    start_time: float,
    contact_deadline: float,
    wireless,
    channel,
    time_budget: float,
    *,
    lambda_c: float = 0.02,
    refresh_coresets: bool = True,
    equal_compression: bool = False,
    mean_aggregation: bool = False,
    coreset_only: bool = False,
    expected_goodput: float = 1.0,
    prober: DensePsiProber | None = None,
) -> ChatPlan:
    """Run a chat's plan phase; package the transfer phase as a flight.

    Stages 1-4 of the synchronous protocol (assist, coresets,
    cross-evaluations/results, Eq. 7) run unchanged; chats that end in
    planning (stage aborts, coreset-only, psi = 0) are finalized here
    exactly as the synchronous path would.  Otherwise both payloads are
    compressed from plan-time parameter snapshots and returned as an
    unlaunched :class:`InFlightTransfer`.
    """
    talks = _negotiate(
        node_i,
        node_j,
        distance_fn,
        start_time,
        contact_deadline,
        wireless,
        channel,
        time_budget,
        lambda_c=lambda_c,
        refresh_coresets=refresh_coresets,
        equal_compression=equal_compression,
        coreset_only=coreset_only,
        expected_goodput=expected_goodput,
        prober=prober,
    )
    outcome, now = talks.outcome, talks.now
    if talks.settled:
        return ChatPlan(outcome, now - start_time, None)
    # Capture payloads now: overlapped transfers ship plan-time parameter
    # snapshots (the delayed-averaging staleness model, see module doc).
    legs: list[TransferLeg] = []
    for sender, receiver, node, psi in (
        (i, j, node_i, outcome.psi.psi_i),
        (j, i, node_j, outcome.psi.psi_j),
    ):
        payload = talks.payload(node, psi) if psi > 0 else None
        if payload is not None and payload.nominal_bytes > 0:
            legs.append(
                TransferLeg(sender, receiver, float(payload.nominal_bytes), payload)
            )
    if not legs:
        # Nothing to ship: the chat resolves at plan end, as the
        # synchronous protocol would.
        _absorb_both(node_i, node_j, outcome)
        outcome.duration = now - start_time
        return ChatPlan(outcome, now - start_time, None)

    joint = node_i.coreset.data.copy()
    joint.absorb_from(node_j.coreset.data)
    flight = InFlightTransfer(
        i=i,
        j=j,
        plan_start=start_time,
        transfer_start=now,
        contact_deadline=contact_deadline,
        model_deadline=min(contact_deadline, now + time_budget),
        mean_aggregation=mean_aggregation,
        outcome=outcome,
        legs=legs,
        joint=joint,
        coreset_i=node_i.coreset,
        coreset_j=node_j.coreset,
    )
    return ChatPlan(outcome, now - start_time, flight)


def _outcome_from_state(state) -> ChatOutcome:
    psi = state["psi"]
    return ChatOutcome(**{**state, "psi": None if psi is None else PsiDecision(**psi)})


def _payload_state(payload: CompressedModel | None):
    if payload is None:
        return None
    return {
        "indices": payload.indices,
        "values": payload.values,
        "n_total": int(payload.n_total),
        "psi": float(payload.psi),
        "nominal_bytes": int(payload.nominal_bytes),
    }


def _payload_from_state(state) -> CompressedModel | None:
    if state is None:
        return None
    return CompressedModel(
        indices=np.asarray(state["indices"], dtype=np.int64),
        values=np.asarray(state["values"], dtype=np.float32),
        n_total=int(state["n_total"]),
        psi=float(state["psi"]),
        nominal_bytes=int(state["nominal_bytes"]),
    )


class TransferScheduler:
    """Owns every in-flight transfer of one trainer.

    Each launched flight runs as its own simulator process: wait for the
    next chunk boundary, advance the :class:`TransferSession` arithmetic,
    and on resolution commit the exchanged state atomically.  Vehicles
    stay in the :class:`~repro.core.ledger.TransferLedger`'s in-flight
    set for the whole window, so they train at full fleet width but
    accept no other chat.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.flights: list[InFlightTransfer] = []

    # -- flight lifecycle ----------------------------------------------------

    def launch(self, flight: InFlightTransfer) -> None:
        """Register a planned flight and start its background process."""
        trainer = self.trainer
        flight.next_fire = flight.transfer_start
        flight.armed_at = trainer.sim.now
        trainer.ledger.begin_flight(flight.i)
        trainer.ledger.begin_flight(flight.j)
        self.flights.append(flight)
        trainer.sim.process(self._flight_process(flight))

    def _flight_process(self, flight: InFlightTransfer):
        sim = self.trainer.sim
        # The pending wakeup (fresh launches: the transfer start; resumed
        # flights: whatever boundary was armed before the snapshot).
        if flight.next_fire is not None and sim.now < flight.next_fire:
            yield sim.wait_until(flight.next_fire)
        while True:
            when = self._advance(flight)
            if when is None:
                break
            flight.next_fire = when
            flight.armed_at = sim.now
            if when > sim.now:
                yield sim.wait_until(when)
        self._commit(flight)

    def _advance(self, flight: InFlightTransfer) -> float | None:
        """Zero-time bookkeeping at a wakeup; next wakeup time or None."""
        trainer = self.trainer
        sim = trainer.sim
        distance_fn = trainer.pair_distance_fn(flight.i, flight.j)
        while flight.leg_idx < len(flight.legs):
            leg = flight.legs[flight.leg_idx]
            if leg.session is None:
                leg.session = TransferSession(
                    leg.n_bytes, trainer.config.channel, sim.now
                )
                if leg.receiver == flight.i:
                    flight.outcome.i_attempted = True
                else:
                    flight.outcome.j_attempted = True
            session = leg.session
            if session.resolved:
                # The resolution instant arrived (or the cut happened at
                # the current time): close the leg, move on.
                self._finish_leg(leg)
                flight.leg_idx += 1
                continue
            when = session.step(distance_fn, trainer.wireless, flight.model_deadline)
            if when is None:
                # Cut (range/rate/deadline) effective immediately.
                self._finish_leg(leg)
                flight.leg_idx += 1
                continue
            return when  # chunk boundary, or a future completion instant
        return None

    def _finish_leg(self, leg: TransferLeg) -> None:
        telemetry.on_transfer(leg.n_bytes, leg.session.result(), leg.session.start_time)

    def _commit(self, flight: InFlightTransfer) -> None:
        """The commit barrier: absorb everything the flight delivered."""
        trainer = self.trainer
        now = trainer.sim.now
        outcome = flight.outcome
        node_i = trainer.nodes[flight.i]
        node_j = trainer.nodes[flight.j]
        delivered_all = True
        for leg in flight.legs:
            if leg.session is None or not leg.session.completed:
                delivered_all = False
                continue
            trainer.nodes[leg.receiver].receive_and_aggregate(
                leg.payload, flight.joint, mean_weights=flight.mean_aggregation
            )
            if leg.receiver == flight.i:
                outcome.i_received_model = True
            else:
                outcome.j_received_model = True
        # Coresets arrived during the plan phase; their plan-time
        # snapshots commit here, whatever happened to the models.
        outcome.absorbed_by_i = node_i.absorb_coreset(flight.coreset_j)
        outcome.absorbed_by_j = node_j.absorb_coreset(flight.coreset_i)
        outcome.duration = now - flight.plan_start
        trainer.ledger.end_flight(flight.i)
        trainer.ledger.end_flight(flight.j)
        self.flights.remove(flight)
        telemetry.on_overlap_outcome(
            flight.plan_start, now, outcome, committed=delivered_all
        )
        finalize = getattr(trainer, "on_overlap_commit", None)
        if finalize is not None:
            finalize(flight)

    # -- checkpointing -------------------------------------------------------

    def activities(self, resume: bool = False) -> list:
        """``(armed_at, generator)`` pairs re-arming every live flight."""
        return [(flight.armed_at, self._flight_process(flight)) for flight in self.flights]

    def snapshot(self) -> dict:
        from repro.checkpoint.state import dataset_state

        flights = []
        for flight in self.flights:
            flights.append(
                {
                    "i": int(flight.i),
                    "j": int(flight.j),
                    "plan_start": float(flight.plan_start),
                    "transfer_start": float(flight.transfer_start),
                    "contact_deadline": float(flight.contact_deadline),
                    "model_deadline": float(flight.model_deadline),
                    "mean_aggregation": bool(flight.mean_aggregation),
                    "leg_idx": int(flight.leg_idx),
                    "next_fire": flight.next_fire,
                    "armed_at": float(flight.armed_at),
                    "outcome": asdict(flight.outcome),
                    "legs": [
                        {
                            "sender": int(leg.sender),
                            "receiver": int(leg.receiver),
                            "n_bytes": float(leg.n_bytes),
                            "payload": _payload_state(leg.payload),
                            "session": (
                                leg.session.snapshot() if leg.session is not None else None
                            ),
                        }
                        for leg in flight.legs
                    ],
                    "joint": dataset_state(flight.joint),
                    "coreset_i_data": dataset_state(flight.coreset_i.data),
                    "coreset_i_weights": flight.coreset_i.source_weights.copy(),
                    "coreset_j_data": dataset_state(flight.coreset_j.data),
                    "coreset_j_weights": flight.coreset_j.source_weights.copy(),
                }
            )
        return {"flights": flights}

    def restore(self, state) -> None:
        from repro.checkpoint.state import dataset_from_state

        self.flights = []
        if not state:
            return
        channel = self.trainer.config.channel
        for fs in state.get("flights", []):
            legs = []
            for ls in fs["legs"]:
                legs.append(
                    TransferLeg(
                        sender=int(ls["sender"]),
                        receiver=int(ls["receiver"]),
                        n_bytes=float(ls["n_bytes"]),
                        payload=_payload_from_state(ls["payload"]),
                        session=(
                            TransferSession.from_snapshot(ls["session"], channel)
                            if ls["session"] is not None
                            else None
                        ),
                    )
                )
            flight = InFlightTransfer(
                i=int(fs["i"]),
                j=int(fs["j"]),
                plan_start=float(fs["plan_start"]),
                transfer_start=float(fs["transfer_start"]),
                contact_deadline=float(fs["contact_deadline"]),
                model_deadline=float(fs["model_deadline"]),
                mean_aggregation=bool(fs["mean_aggregation"]),
                outcome=_outcome_from_state(fs["outcome"]),
                legs=legs,
                joint=dataset_from_state(fs["joint"]),
                coreset_i=Coreset(
                    data=dataset_from_state(fs["coreset_i_data"]),
                    source_weights=np.asarray(fs["coreset_i_weights"], dtype=float),
                ),
                coreset_j=Coreset(
                    data=dataset_from_state(fs["coreset_j_data"]),
                    source_weights=np.asarray(fs["coreset_j_weights"], dtype=float),
                ),
                leg_idx=int(fs["leg_idx"]),
                next_fire=(None if fs["next_fire"] is None else float(fs["next_fire"])),
                armed_at=float(fs["armed_at"]),
            )
            self.flights.append(flight)
            self.trainer.ledger.begin_flight(flight.i)
            self.trainer.ledger.begin_flight(flight.j)
