"""Overlapped chats: the same chat, its model legs on the virtual clock.

A chat is one :class:`~repro.core.chat.Chat` under both protocols; the
stages, and the only statements of capture, delivery (Eq. 8) and commit,
are in :mod:`repro.core.chat`.  The synchronous protocol resolves a
whole chat at the scan instant and occupies both radios for the summed
duration.  This one differs in two call times and nothing else:

* **capture** — :func:`plan_chat` compresses both directions' payloads
  at plan time, right after Eq. 7 (the synchronous protocol lets the
  second sender compress *after* absorbing the first model; that
  coupling is dropped here);
* **delivery** — the legs become a background activity of the
  :class:`TransferScheduler`, advanced one channel chunk at a time by a
  :class:`~repro.net.channel.TransferSession` while the whole fleet
  keeps training at every train instant, and the delivered models and
  the stage-2 coresets are applied together at a *commit barrier* when
  the last leg resolves (completion, range cut, or deadline).

Staleness model (delayed averaging): payloads are snapshots of the
sender's parameters *at plan time*; by commit time both vehicles have
trained further, and Eq. 8 aggregation scores the stale payload against
the receiver's trained-ahead parameters on the plan-time joint coreset
— mirroring how collaborative training frameworks apply
background-averaged state at a sync point rather than freezing the
learner.

Both protocols fit their psi maps with :class:`DensePsiProber`: the ~7
compressed variants are stacked into one side's half of a small
forward-only :class:`~repro.nn.bank.ParamBank` and scored with a single
:class:`~repro.nn.bank.FleetWaypointNet` forward over the coreset
instead of seven sequential per-model forwards, and payload compression
reuses the psi map's :class:`~repro.compression.TopkPlan` (the sorted
magnitudes), so a payload costs one compare instead of a fresh sort.

Flights participate in checkpointing: the scheduler snapshots every
chat on the air (session arithmetic state, payloads, stage-2 coresets,
the armed wakeup time) and re-arms each one on resume through
:meth:`TransferScheduler.activities`, so barrier resumes stay
bit-identical even with transfers in the air.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import topk_for_psi, topk_plan
from repro.core.chat import Chat, negotiate
from repro.core.node import NOMINAL_MODEL_BYTES
from repro.core.psi import DEFAULT_PSI_GRID, PsiLossMap
from repro.coreset.penalty import penalized_losses
from repro.net.channel import TransferSession
from repro.telemetry import hooks as telemetry

__all__ = ["DensePsiProber", "TransferScheduler", "plan_chat"]


class DensePsiProber:
    """Psi-grid probes of a chat's two models, evaluated as fleet batches.

    One forward-only probe bank (no gradient array: nothing here runs
    backward) with one row per level of :data:`~repro.core.psi.
    DEFAULT_PSI_GRID` per chat side: row ``k`` of side ``s``'s half
    holds side ``s``'s model compressed to level ``k`` (dense at
    ``psi >= 1``).  A single shared-batch forward over the coreset then
    scores every level at once — the same per-layer GEMMs the fleet
    engine uses for training, instead of one full forward per level.
    Each side has its own half (a :meth:`~repro.nn.bank.ParamBank.
    slice_rows` view) and its own net, so the two sides of one chat can
    build at once, on two threads (:func:`~repro.core.chat.negotiate`).
    Every node it is asked about shares ``template``'s parameter layout,
    as every node of a fleet does.
    """

    SIDES = 2

    def __init__(self, template):
        from repro.nn.bank import FleetWaypointNet, ParamBank

        self.psis = [float(p) for p in DEFAULT_PSI_GRID]
        levels = len(self.psis)
        self.bank = ParamBank(template, self.SIDES * levels, grads=False)
        #: Side ``s``'s rows of :attr:`bank`, one per psi level.
        self.side_banks = tuple(
            self.bank.slice_rows(s * levels, (s + 1) * levels) for s in range(self.SIDES)
        )
        self._nets = tuple(FleetWaypointNet(bank, template) for bank in self.side_banks)

    def build(self, node, side: int = 0):
        """``(PsiLossMap, TopkPlan)`` for ``node`` in one batched forward
        on side ``side``'s half of the bank."""
        bank, net = self.side_banks[side], self._nets[side]
        flat = np.asarray(node.flat_params, dtype=np.float32)
        plan = topk_plan(flat, NOMINAL_MODEL_BYTES)
        keep = plan.keep([topk_for_psi(flat.size, psi) for psi in self.psis])
        # Row = the parameters' bit patterns times its level's mask: a
        # kept entry keeps every bit and an unsent one is +0.0 (a float
        # multiply would leave -0.0 and turn inf into NaN), so rows are
        # bit-identical to ``decompress(plan.compress(psi))``.
        np.multiply(flat.view(np.uint32), keep, out=bank.flat.view(np.uint32))
        bev, commands, targets, weights = node.coreset.data.arrays()
        pred = net.forward(bev, commands)  # (levels, batch, 2w)
        per_sample = np.abs(pred - np.asarray(targets)[None]).mean(axis=2)
        losses = penalized_losses(bank.flat, per_sample, commands, weights)
        return PsiLossMap(np.asarray(self.psis), losses), plan


def plan_chat(node_i, node_j, **protocol) -> Chat:
    """Run a chat's plan phase: negotiate, then capture every leg now.

    ``protocol`` is :func:`~repro.core.chat.negotiate`'s keyword list.
    The returned chat's ``legs`` are what :meth:`TransferScheduler.launch`
    has to ship, as plan-time parameter snapshots (the delayed-averaging
    staleness model, see module doc).  With nothing to ship — stage
    abort, coreset-only, psi = 0, payloads that round to empty — the
    chat is committed here, exactly as the synchronous protocol would.
    """
    chat = negotiate(node_i, node_j, **protocol)
    chat.legs = [
        leg for leg in chat.legs if chat.capture(leg, node_j if leg.to_i else node_i)
    ]
    if not chat.legs:
        chat.commit(node_i, node_j, chat.now)
    return chat


@dataclass
class _Flight:
    """A launched chat's place on the virtual clock."""

    chat: Chat
    i: int  # trainer node indices of the pair
    j: int
    #: Absolute time of the pending wakeup, and the virtual time that
    #: wakeup was armed (decides same-instant dispatch order on resume).
    next_fire: float
    armed_at: float
    leg_idx: int = 0


class TransferScheduler:
    """Owns every chat of one trainer that is on the air.

    Each launched chat runs as its own simulator process: wait for the
    next chunk boundary, advance the :class:`TransferSession` arithmetic,
    and on resolution commit the exchanged state atomically.  Vehicles
    stay in the :class:`~repro.core.ledger.TransferLedger`'s in-flight
    set for the whole window, so they train at full fleet width but
    accept no other chat.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.flights: list[_Flight] = []

    # -- flight lifecycle ----------------------------------------------------

    def launch(self, chat: Chat, i: int, j: int) -> None:
        """Put a planned chat's legs on the air between nodes ``i`` and ``j``."""
        flight = _Flight(chat, i, j, next_fire=chat.now, armed_at=self.trainer.sim.now)
        self._hold(flight)
        self.trainer.sim.process(self._flight_process(flight))

    def _hold(self, flight: _Flight) -> None:
        self.flights.append(flight)
        self.trainer.ledger.begin_flight(flight.i)
        self.trainer.ledger.begin_flight(flight.j)

    def _flight_process(self, flight: _Flight):
        sim = self.trainer.sim
        # The pending wakeup (fresh launches: the end of the plan phase;
        # resumed flights: whatever boundary was armed before the snapshot).
        if sim.now < flight.next_fire:
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

    def _advance(self, flight: _Flight) -> float | None:
        """Zero-time bookkeeping at a wakeup; next wakeup time or None."""
        chat = flight.chat
        distance_fn, wireless = chat.radio
        while flight.leg_idx < len(chat.legs):
            leg = chat.legs[flight.leg_idx]
            if leg.session is None:
                leg.session = TransferSession(leg.payload.nominal_bytes, self.trainer.sim.now)
            if not leg.session.resolved:
                when = leg.session.step(distance_fn, wireless, chat.model_deadline)
                if when is not None:
                    return when  # chunk boundary, or a future completion instant
            # The resolution instant arrived, or a cut (range/rate/
            # deadline) took effect at the current time: close the leg.
            telemetry.on_transfer(
                leg.session.n_bytes, leg.session.result(), leg.session.start_time
            )
            flight.leg_idx += 1
        return None

    def _commit(self, flight: _Flight) -> None:
        """The commit barrier: apply everything the flight delivered.

        The coresets arrived during the plan phase; they commit here
        whatever happened to the models.
        """
        trainer, chat = self.trainer, flight.chat
        node_i, node_j = trainer.nodes[flight.i], trainer.nodes[flight.j]
        for leg in chat.legs:
            if leg.session.completed:
                chat.deliver(leg, node_i if leg.to_i else node_j)
        chat.commit(node_i, node_j, trainer.sim.now)
        trainer.ledger.end_flight(flight.i)
        trainer.ledger.end_flight(flight.j)
        self.flights.remove(flight)
        trainer.account_chat(chat.start, flight.i, flight.j, chat.outcome)

    # -- checkpointing -------------------------------------------------------

    def activities(self) -> list:
        """``(armed_at, generator)`` pairs re-arming every live flight."""
        return [(flight.armed_at, self._flight_process(flight)) for flight in self.flights]

    def snapshot(self, frames) -> dict:
        return {
            "flights": [
                {**vars(flight), "chat": flight.chat.snapshot(frames)}
                for flight in self.flights
            ]
        }

    def restore(self, state, frames) -> None:
        trainer = self.trainer
        self.flights = []
        for flight in (state or {}).get("flights", []):
            radio = (trainer.pair_distance_fn(flight["i"], flight["j"]), trainer.wireless)
            pool = trainer.nodes[flight["i"]].dataset.pool
            chat = Chat.from_snapshot(flight["chat"], radio, frames, pool)
            self._hold(_Flight(**{**flight, "chat": chat}))
