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

Both protocols fit their psi maps with :class:`DensePsiProber`: the
psi = 1 point is the Eq. 6 loss stage 3 already has, and the six
compressed variants are scored together, their first layer one stacked
GEMM over the coreset's lit BEV pixels (and one column per constant
plane) instead of a dense GEMM per level; payload compression reuses
the psi map's :class:`~repro.compression.TopkPlan` (the sorted
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
    """Eq. 7's psi map of one chat side's model, every level in one batch.

    Level ``psi`` of :data:`~repro.core.psi.DEFAULT_PSI_GRID` is the
    node's parameters under :meth:`~repro.compression.TopkPlan.keep`'s
    mask, scored on its own coreset with Eq. 6.  The dense level
    (``psi = 1``) is the node's own Eq. 6 loss on that coreset, which
    stage 3 has just computed: :meth:`build` is handed it and runs
    nothing for it.  The six sub-dense levels run in one batch, built
    from three facts about the MLP trunk's first layer (93.5 % of the
    paper model's parameters):

    * a BEV pixel that is 0 in every coreset frame multiplies its weight
      row by 0, so only the *lit* pixels' rows enter the product (the
      four binary channels light 42–51 % of their pixels over a
      150-frame paper coreset);
    * a *constant plane* — a channel that is one value per frame, such as
      the speed channel — is one operand column whose weight row is the
      sum of the plane's masked rows (found from the data: a channel
      constant on the first frame, confirmed on the rest);
    * a level's mask is a compare against its cut (:meth:`TopkPlan.
      cuts`), so it is taken on those rows and on the layers after the
      first weight only, never on a full parameter row; a level whose
      cut has surplus ties takes ``keep``'s rows instead.

    So the first layer is one stacked GEMM ``(batch, K) @ (levels, K,
    hidden)`` with K the lit pixels plus one column per lit constant
    plane (650–850 of 2 000 on paper coresets), and the rest of the
    network runs as the fleet's layers do.  Eq. 6's L2 term of a level
    is :meth:`TopkPlan.kept_norms`.  The losses differ from the
    per-level loop's (:func:`~repro.core.psi.build_psi_map`, the test
    oracle) by summation order only (at most 2.9e-7 relative over 2 744
    maps of a full ``paper`` run); which entries a level keeps is the
    same to the bit.

    A trunk that does not start with a flattened linear layer (the
    conv trunk, which no run trains) scores full masked rows in a
    forward-only :class:`~repro.nn.bank.ParamBank` per chat side.
    Nothing else is shared between builds, so the two sides of
    one chat can build at once, on two threads
    (:func:`~repro.core.chat.negotiate`).  Every node it is asked about
    shares ``template``'s parameter layout, as every node of a fleet does.
    """

    SIDES = 2

    def __init__(self, template):
        from repro.nn.bank import FleetWaypointNet, ParamBank
        from repro.nn.layers import Flatten, Linear

        self.psis = [float(p) for p in DEFAULT_PSI_GRID]  # ascending, ends at 1.0
        spans, offset = [], 0  # (start, stop, shape) of each parameter in a row
        for param in template.parameters():
            spans.append((offset, offset + param.data.size, param.data.shape))
            offset += param.data.size
        modules = template.trunk.modules
        self._mlp = isinstance(modules[0], Flatten) and isinstance(modules[1], Linear)
        if not self._mlp:
            levels = len(self.psis) - 1
            banks = [ParamBank(template, levels, grads=False) for _ in range(self.SIDES)]
            self._full_rows = [(bank, FleetWaypointNet(bank, template)) for bank in banks]
            return
        # Layers past the first weight, as (slice, shape) spans into the
        # tail of a row: the first bias, then each later trunk Linear's
        # (weight, bias) or None for a ReLU, then each head's.
        self._first = spans[0][2]  # (inputs, hidden)
        self._tail_start = start = spans[1][0]
        tail = iter([(slice(lo - start, hi - start), shape) for lo, hi, shape in spans[1:]])
        self._bias = next(tail)
        self._trunk = [
            (next(tail), next(tail)) if isinstance(module, Linear) else None
            for module in modules[2:]
        ]
        self._heads = list(zip(tail, tail))
        self._outputs = 2 * template.n_waypoints

    def build(self, node, dense_loss: float, side: int = 0):
        """``(PsiLossMap, TopkPlan)`` for ``node``, whose own Eq. 6 loss on
        its coreset is ``dense_loss``; side ``side`` of a chat.

        A model with a non-finite parameter (a diverged one: its
        magnitudes sort last by bit pattern, so ``ranked[-1]`` tells) or
        a non-finite loss fits no map: the map is ``None``, which Eq. 7
        reads as no gain from sending it, and it is counted as
        ``psi_probe.fallback.non_finite``.
        """
        flat = np.asarray(node.flat_params, dtype=np.float32)
        plan = topk_plan(flat, NOMINAL_MODEL_BYTES)
        if np.isfinite(plan.ranked[-1]):
            ks = [topk_for_psi(flat.size, psi) for psi in self.psis[:-1]]
            bev, commands, targets, weights = node.coreset.data.arrays()
            masked = _level_masker(plan, ks)
            if self._mlp:
                pred = self._forward(masked, bev, commands)
            else:
                bank, net = self._full_rows[side]
                masked(lambda row: row, out=bank.flat)
                pred = net.forward(bev, commands)
            per_sample = np.abs(pred - np.asarray(targets)[None]).mean(axis=2)
            losses = penalized_losses(
                None, per_sample, commands, weights, norms=plan.kept_norms(ks)
            )
            losses = np.append(losses, dense_loss)
            if np.isfinite(losses).all():
                return PsiLossMap(np.asarray(self.psis), losses), plan
        telemetry.count("psi_probe.fallback.non_finite")
        return None, plan

    def _forward(self, masked, bev, commands) -> np.ndarray:
        """``(levels, batch, 2w)`` predictions of every sub-dense level."""
        n_in, hidden = self._first
        batch, channels = bev.shape[:2]
        operand, lit, planes = _first_layer_operand(bev)

        def first_rows(row):
            return row[: n_in * hidden].reshape(n_in, hidden)

        tail = masked(lambda row: row[self._tail_start :])
        levels = len(tail)
        weight = np.empty((levels, operand.shape[1], hidden), dtype=np.float32)
        masked(lambda row: first_rows(row)[lit], out=weight[:, : lit.size])
        plane_rows = masked(lambda row: first_rows(row).reshape(channels, -1, hidden)[planes])
        plane_rows.sum(axis=2, out=weight[:, lit.size :])

        def param(span):
            columns, shape = span
            return tail[:, columns].reshape(levels, *shape)

        h = np.matmul(operand, weight)
        h += param(self._bias)[:, None, :]
        for layer in self._trunk:
            if layer is None:
                np.maximum(h, 0.0, out=h)
            else:
                h = np.matmul(h, param(layer[0]))
                h += param(layer[1])[:, None, :]
        out = np.zeros((levels, batch, self._outputs), dtype=np.float32)
        for cmd, (w, b) in enumerate(self._heads):
            rows = commands == cmd
            if rows.any():
                out[:, rows] = np.matmul(h[:, rows], param(w)) + param(b)[:, None, :]
        return out


def _first_layer_operand(bev):
    """``(operand, lit, planes)``: the flattened ``bev`` (batch, C, H, W)
    as the first layer's compact operand — a column per lit pixel
    (nonzero in some frame; flat indices ``lit``), then one per lit
    constant plane (channels ``planes``, each one value per frame: a
    channel constant on the first frame, confirmed on every frame)."""
    batch, channels = bev.shape[:2]
    x = bev.reshape(batch, channels, -1)
    live = x.any(axis=0)  # (C, H * W)
    # A lit constant plane is lit at every pixel; of those channels, the
    # ones constant on the first frame are confirmed on all of them.
    first = x[0]
    candidates = np.flatnonzero(live.all(axis=1) & (first == first[:, :1]).all(axis=1))
    confirmed = (x[:, candidates] == x[:, candidates, :1]).all(axis=(0, 2))
    planes = candidates[confirmed]
    live[planes] = False  # a constant plane is its one column
    lit = np.flatnonzero(live)
    # ``take`` gathers columns C-ordered; ``x[:, lit]`` would come out
    # Fortran-ordered and make the concatenation a strided copy.
    operand = np.concatenate((x.reshape(batch, -1).take(lit, axis=1), x[:, planes, 0]), axis=1)
    return operand, lit, planes


def _level_masker(plan, ks):
    """``masked(select, out=None)``: ``select`` of the plan's parameters,
    once per ``ks[r]``, each entry outside the top ``ks[r]`` set to +0.0.

    ``select`` picks entries out of a parameter-shaped vector (a slice,
    a reshape, rows); the mask is taken on the picked entries alone — a
    compare against the level's cut — except on a level whose cut has
    surplus ties, which picks from :meth:`TopkPlan.keep`'s row.  A kept
    entry keeps every bit (the bit patterns are multiplied by the mask:
    a float multiply would leave -0.0), so ``masked(lambda row: row)[r]``
    is ``decompress(plan.compress(psi))`` of level ``r`` to the bit.
    """
    cuts, surplus = plan.cuts(ks)
    tied = {level: plan.keep([ks[level]])[0] for level in np.flatnonzero(surplus)}
    magnitude = plan.magnitude.view(np.uint32)

    def masked(select, out=None):
        bits = select(magnitude)
        keep = bits >= cuts.reshape(-1, *(1,) * bits.ndim)
        for level, mask in tied.items():
            keep[level] = select(mask)
        values = select(plan.flat).view(np.uint32)
        out = None if out is None else out.view(np.uint32)
        return np.multiply(values, keep, out=out).view(np.float32)

    return masked


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
