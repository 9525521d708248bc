"""The pairwise "chat" protocol (Algorithm 2, lines 8-16), stated once.

One chat between vehicles i and j, simulated with real transfer timing:

1. assistive info (route, bandwidth — 184 bytes each, §III-A),
2. coreset exchange (C_i then C_j over the shared half-duplex channel),
3. cross-evaluations + psi-map fitting, results exchanged (small),
4. Eq. 7 joint compression optimization,
5. compressed model exchange (x_i then x_j), each direction aggregated
   on arrival via Eq. 8 on the joint coreset C_i ∪ C_j,
6. both sides absorb the peer's coreset into their local dataset.

A chat is one :class:`Chat`.  :func:`negotiate` runs stages 1-4 and
leaves stage 5 on it as a list of :class:`Leg` objects (none when the
chat ended early); :meth:`Chat.capture`, :meth:`Chat.deliver` and
:meth:`Chat.commit` are the only statements of compressing a payload,
applying Eq. 8 and absorbing the coresets.  The two protocols run that
same object and differ in *when* a payload is captured and *when* it is
applied — two call times and nothing else:

* synchronous (:func:`pairwise_chat`, the paper's): all at the scan
  instant.  Each leg is captured as its turn comes, so the second sender
  compresses *after* absorbing the first model, and is delivered the
  moment its simulated transfer completes;
* overlapped (:func:`repro.core.overlap.plan_chat`): every leg is
  captured at plan time, the legs go on the air on the virtual clock
  while both vehicles train on, and delivery waits for the commit
  barrier (:class:`~repro.core.overlap.TransferScheduler`).

A chat can be cut short at any stage by the vehicles moving out of
range; whatever already arrived is still used (a received coreset is
absorbed even if the model transfer after it died).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.compression import CompressedModel, TopkPlan
from repro.core.node import NOMINAL_MODEL_BYTES, VehicleNode
from repro.core.psi import PsiDecision, optimize_compression
from repro.core.value import assess_value
from repro.coreset.construction import Coreset
from repro.net.channel import ASSIST_INFO_BYTES, BANDWIDTH_BPS, TransferSession, simulate_transfer
from repro.net.wireless import WirelessModel
from repro.parallel.stepshard import default_step_shards, run_shards
from repro.sim.dataset import DrivingDataset
from repro.telemetry import hooks as telemetry

__all__ = [
    "THREADED_SIDES_MIN_WORK",
    "Chat",
    "ChatOutcome",
    "Leg",
    "estimated_chat_bytes",
    "negotiate",
    "pairwise_chat",
]

#: Fixed overhead for computing/exchanging evaluation results and maps.
_RESULTS_EXCHANGE_SECONDS = 0.1

#: Stage 3 runs a chat's two sides concurrently (side 1 on a thread)
#: from this much work on: ``n_params × (|C_i| + |C_j|)``, the
#: parameter-frames its forwards touch.  Below it a side is too small to
#: outrun the GIL hand-offs and a thread's start, and both run on the
#: caller.  The benchmark's two worlds sit far either side: every
#: ``bench-city`` chat is 0.62 M, ``bench-paper`` chats 26.7-61.6 M.
#: Measured on a 2-core x86 host (``benchmarks/perf/run.py``, parent
#: and change alternated): threading every chat (floor 0) made
#: ``city_lbchat``'s ``run_wall_s`` ~40 % slower; at this floor it is
#: flat, while ``paper_lbchat`` falls ~24 % (10 of 10 pairs).
THREADED_SIDES_MIN_WORK = 4_000_000


@dataclass
class ChatOutcome:
    """What one chat produced and how long it took."""

    duration: float
    coresets_exchanged: bool = False
    i_attempted: bool = False
    j_attempted: bool = False
    i_received_model: bool = False
    j_received_model: bool = False
    psi: PsiDecision | None = None
    absorbed_by_i: int = 0
    absorbed_by_j: int = 0
    aborted: str = ""  # stage at which contact was lost, if any
    #: Psi-map fits this chat ran on the prober, a diverged side's
    #: included (trainers tally them; ``equal_compression`` and a chat cut
    #: before stage 3 run none).
    psi_probe_builds: int = 0


@dataclass
class Leg:
    """One directional model transfer of stage 5."""

    to_i: bool  # x_j to vehicle i; otherwise x_i to vehicle j
    psi: float
    #: The sender's psi-map plan (its sorted magnitudes) and the model
    #: version it ranked, until :meth:`Chat.capture` spends it.
    plan: tuple[TopkPlan, int] | None = None
    payload: CompressedModel | None = None
    #: Progress on the air (overlapped protocol; the synchronous one
    #: resolves a leg in one :func:`simulate_transfer`).
    session: TransferSession | None = None


def _coreset_state(coreset: Coreset, frames) -> dict:
    return {"data": frames.ref(coreset.data)}


def _coreset_from_state(state, frames, pool) -> Coreset:
    return Coreset(frames.dataset(state["data"], pool))


@dataclass
class Chat:
    """One chat: what it produced so far, its clock, what is left to ship."""

    outcome: ChatOutcome
    #: The pair's link, ``(distance_fn, wireless)``.
    radio: tuple[Callable[[float], float], WirelessModel]
    start: float
    now: float  # virtual time the inline part of the chat has reached
    mean_aggregation: bool
    model_deadline: float = 0.0  # set with the legs, after stage 4
    #: The coresets as exchanged in stage 2: what Eq. 8 scores on and
    #: what each side absorbs, whatever the nodes hold by then.
    coreset_i: Coreset | None = None
    coreset_j: Coreset | None = None
    legs: list[Leg] = field(default_factory=list)
    joint: DrivingDataset | None = None  # C_i ∪ C_j, built once a model actually arrives

    def exchange(self, stage: str, n_bytes: float, deadline: float) -> bool:
        """Ship ``n_bytes`` inline from ``now``; whether they got through."""
        sent = simulate_transfer(n_bytes, *self.radio, self.now, deadline)
        self.now += sent.elapsed
        telemetry.on_chat_stage(stage, self.now, sent.completed)
        return sent.completed

    def capture(self, leg: Leg, sender: VehicleNode) -> bool:
        """Compress ``sender``'s model as it is now; whether there is a payload.

        Reuses the psi map's sorted magnitudes while the parameters they
        rank are still current; ``sender.compress_model`` is the same
        selection from scratch.  The plan is dropped either way (two
        float32 vectors, ~1.6 MB per node at paper size; a flight must
        not keep it alive).
        """
        plan, leg.plan = leg.plan, None
        if plan is not None and plan[1] == sender.model_version:
            payload = plan[0].compress(leg.psi)
        else:
            payload = sender.compress_model(leg.psi)
        # A positive psi can still round to an empty model (top-k keeps
        # zero entries); a zero-byte "transfer" would complete instantly
        # and inflate the receive rate, so it is never attempted.
        if payload.nominal_bytes <= 0:
            return False
        leg.payload = payload
        if leg.to_i:
            self.outcome.i_attempted = True
        else:
            self.outcome.j_attempted = True
        return True

    def deliver(self, leg: Leg, receiver: VehicleNode) -> None:
        """A leg arrived: Eq. 8 on the joint coreset, into ``receiver``."""
        if self.joint is None:
            self.joint = self.coreset_i.data.copy()
            self.joint.absorb_from(self.coreset_j.data)
        receiver.receive_and_aggregate(
            leg.payload, self.joint, mean_weights=self.mean_aggregation
        )
        if leg.to_i:
            self.outcome.i_received_model = True
        else:
            self.outcome.j_received_model = True

    def commit(self, node_i: VehicleNode, node_j: VehicleNode, now: float) -> None:
        """End the chat at ``now``: stage 6, if the coresets got through.

        Each side absorbs what was actually sent in stage 2 (absorption
        merge-reduces the owner's own coreset), whatever became of the
        model legs after it.
        """
        if self.outcome.coresets_exchanged:
            self.outcome.absorbed_by_i = node_i.absorb_coreset(self.coreset_j)
            self.outcome.absorbed_by_j = node_j.absorb_coreset(self.coreset_i)
        self.outcome.duration = now - self.start

    # -- checkpointing (a chat between its plan and its commit) ---------------

    def snapshot(self, frames) -> dict:
        """The chat as a checkpoint tree, its coresets' frames in ``frames``
        (the snapshot's :class:`~repro.checkpoint.state.FrameTable`).
        ``joint`` is not in it: the deliveries that build it run in the
        same event as the commit, never across a barrier."""
        return {
            "outcome": asdict(self.outcome),
            "start": self.start,
            "now": self.now,
            "mean_aggregation": self.mean_aggregation,
            "model_deadline": self.model_deadline,
            "coreset_i": _coreset_state(self.coreset_i, frames),
            "coreset_j": _coreset_state(self.coreset_j, frames),
            "legs": [
                {
                    "to_i": leg.to_i,
                    "psi": leg.psi,
                    "payload": vars(leg.payload),
                    "session": leg.session and leg.session.snapshot(),
                }
                for leg in self.legs
            ],
        }

    @classmethod
    def from_snapshot(cls, state, radio, frames, pool) -> "Chat":
        """Inverse of :meth:`snapshot`, on the link ``radio``, its coresets
        rebuilt from ``frames`` over ``pool``."""
        outcome = {**state["outcome"], "psi": PsiDecision(**state["outcome"]["psi"])}
        legs = [
            Leg(
                leg["to_i"],
                leg["psi"],
                payload=CompressedModel(**leg["payload"]),
                session=leg["session"]
                and TransferSession.from_snapshot(leg["session"]),
            )
            for leg in state["legs"]
        ]
        restored = {
            "outcome": ChatOutcome(**outcome),
            "coreset_i": _coreset_from_state(state["coreset_i"], frames, pool),
            "coreset_j": _coreset_from_state(state["coreset_j"], frames, pool),
            "legs": legs,
        }
        return cls(radio=radio, **{**state, **restored})


def negotiate(
    node_i: VehicleNode,
    node_j: VehicleNode,
    *,
    distance_fn: Callable[[float], float],
    start_time: float,
    contact_deadline: float,
    wireless: WirelessModel,
    time_budget: float,
    lambda_c: float = 0.02,
    equal_compression: bool = False,
    mean_aggregation: bool = False,
    coreset_only: bool = False,
    expected_goodput: float = 1.0,
    prober=None,
) -> Chat:
    """Run stages 1-4 of a chat; stage 5 is left on it as ``legs``.

    This signature is the chat's parameter list; both protocols forward
    theirs here.  ``contact_deadline`` is the absolute time the estimator
    predicts the pair drops out of range (transfers are additionally cut
    by actual distance via ``distance_fn``).  ``time_budget`` is T_B.

    The three flags implement the paper's ablations: ``equal_compression``
    replaces Eq. 7 with a fixed ratio that evenly fills the contact
    window (§IV-F); ``mean_aggregation`` replaces Eq. 8 with plain
    averaging (§IV-F); ``coreset_only`` skips model exchange entirely —
    the SCO variant of §IV-G.

    ``prober`` is the trainer's :class:`~repro.core.overlap.DensePsiProber`,
    which fits every psi map; a chat outside a trainer passes none and
    gets one built here on ``node_i``'s fleet template.  Only Eq. 7 reads the
    maps, so ``equal_compression`` fits none.

    Stage 3 is one function per side, as each vehicle computes on its
    own computer: side ``k`` scores its node on its own coreset and on
    the peer's, then fits its map from the first of those losses
    (``prober.build(node, own_loss)``).  When the chat's work reaches
    :data:`THREADED_SIDES_MIN_WORK` and more than one core is usable,
    side 1 runs on a thread of :func:`~repro.parallel.stepshard.
    run_shards` while side 0 runs here, joined before stage 3 ends;
    otherwise both run here in turn.  A side touches only its own node
    (row, loss cache, coreset) and the peer's coreset frames (read), so
    both paths compute the same bits.
    A side whose model diverged fits no map (``None``): Eq. 7 gives it
    nothing to gain, so it sends nothing.

    A chat that ends here (stage abort, coreset-only, nothing worth
    sending) has no legs; the caller commits it like any other, which
    still absorbs coresets that got through.
    """
    outcome = ChatOutcome(duration=0.0)
    chat = Chat(
        outcome, (distance_fn, wireless), start_time, start_time, mean_aggregation
    )

    def cut(stage: str) -> Chat:
        outcome.aborted = stage
        return chat

    # 1. assistive info both ways.
    if not chat.exchange("assist", 2 * ASSIST_INFO_BYTES, contact_deadline):
        return cut("assist")

    # 2. coresets (rebuild first so they reflect the current model/data).
    node_i.maybe_refresh_coreset()
    node_j.maybe_refresh_coreset()
    chat.coreset_i, chat.coreset_j = node_i.coreset, node_j.coreset
    if not chat.exchange(
        "coresets",
        chat.coreset_i.nominal_bytes + chat.coreset_j.nominal_bytes,
        contact_deadline,
    ):
        return cut("coresets")
    outcome.coresets_exchanged = True

    if coreset_only:
        # SCO (§IV-G): data sharing only; no model value assessment or
        # model exchange at all.
        return chat

    # 3. cross-evaluations and psi maps (compute treated as free, §IV-A),
    # each vehicle on its own computer: side 1 on a thread when it pays.
    if not equal_compression and prober is None:
        from repro.core.overlap import DensePsiProber

        prober = DensePsiProber(node_i.fleet.template)

    sides = (
        (node_i, chat.coreset_i, chat.coreset_j),
        (node_j, chat.coreset_j, chat.coreset_i),
    )

    def assess(side: int):
        """One vehicle's stage 3: its loss on both coresets, then its psi map."""
        node, own, peer = sides[side]
        losses = node.evaluate(own.data), node.evaluate(peer.data)
        return losses, None if equal_compression else prober.build(node, losses[0])

    work = node_i.flat_params.size * (len(chat.coreset_i) + len(chat.coreset_j))
    if work >= THREADED_SIDES_MIN_WORK and default_step_shards() >= 2:
        (losses_i, built_i), (losses_j, built_j) = run_shards((0, 1), assess)
    else:
        (losses_i, built_i), (losses_j, built_j) = assess(0), assess(1)
    value = assess_value(
        loss_i_on_ci=losses_i[0],
        loss_i_on_cj=losses_i[1],
        loss_j_on_cj=losses_j[0],
        loss_j_on_ci=losses_j[1],
    )
    plans = [None, None]
    if not equal_compression:
        outcome.psi_probe_builds += 2
        plans = [(built_i[1], node_i.model_version), (built_j[1], node_j.model_version)]
    if not chat.exchange("results", 2 * 256, contact_deadline):  # tiny payloads
        return cut("results")
    # The fixed compute/exchange overhead applies only when the results
    # actually made it across — and it can itself eat the rest of the
    # contact, in which case planning Eq. 7 and starting model transfers
    # against an already-dead pair would be wasted (and would distort
    # receive-rate accounting with doomed attempts).
    chat.now += _RESULTS_EXCHANGE_SECONDS
    if chat.now >= contact_deadline:
        telemetry.on_chat_stage("results_overhead", chat.now, False)
        return cut("results_overhead")

    # 4. Eq. 7: optimize both compression ratios jointly.  Planning uses
    # the loss-discounted effective bandwidth the §III-A estimator
    # predicts; actual transfers are simulated against the real channel.
    planning_bandwidth = BANDWIDTH_BPS * max(min(expected_goodput, 1.0), 1e-3)
    remaining_contact = max(contact_deadline - chat.now, 0.0)
    if equal_compression:
        outcome.psi = equal_compression_decision(
            NOMINAL_MODEL_BYTES,
            planning_bandwidth,
            time_budget,
            remaining_contact,
        )
    else:
        outcome.psi = optimize_compression(
            built_i[0],
            built_j[0],
            loss_i_on_cj=value.loss_i_on_cj,
            loss_j_on_ci=value.loss_j_on_ci,
            model_size_bytes=NOMINAL_MODEL_BYTES,
            bandwidth_bps=planning_bandwidth,
            time_budget=time_budget,
            contact_duration=remaining_contact,
            lambda_c=lambda_c,
        )
    # 5 is left to the caller: x_i to j, then x_j to i, on the shared channel.
    chat.model_deadline = min(contact_deadline, chat.now + time_budget)
    chat.legs = [
        Leg(to_i, psi, plan)
        for to_i, psi, plan in (
            (False, outcome.psi.psi_i, plans[0]),
            (True, outcome.psi.psi_j, plans[1]),
        )
        if psi > 0
    ]
    return chat


def pairwise_chat(node_i: VehicleNode, node_j: VehicleNode, **protocol) -> ChatOutcome:
    """Run one full chat the paper's way — all of it at the scan instant.

    Mutates both nodes on success.  ``protocol`` is :func:`negotiate`'s
    keyword list.
    """
    chat = negotiate(node_i, node_j, **protocol)
    # 5. model exchange, a leg at a time: the second sender compresses
    # after the first model was aggregated into it.
    for leg in chat.legs:
        sender, receiver = (node_j, node_i) if leg.to_i else (node_i, node_j)
        if chat.capture(leg, sender) and chat.exchange(
            "model_j" if leg.to_i else "model_i",
            leg.payload.nominal_bytes,
            chat.model_deadline,
        ):
            chat.deliver(leg, receiver)
    # 6. absorb peer coresets, expanding local datasets.
    chat.commit(node_i, node_j, chat.now)
    return chat.outcome


def equal_compression_decision(
    model_size_bytes: float,
    bandwidth_bps: float,
    time_budget: float,
    contact_duration: float,
) -> PsiDecision:
    """§IV-F ablation: both sides get the same fixed compression.

    The ratio is chosen so the two transfers exactly fill the available
    window — the straightforward rule the paper masks Eq. 7 with.
    """
    window = min(time_budget, contact_duration)
    bytes_per_second = bandwidth_bps / 8.0
    psi = min(window * bytes_per_second / (2.0 * model_size_bytes), 1.0)
    t_c = model_size_bytes * 2.0 * psi / bytes_per_second
    return PsiDecision(psi_i=float(psi), psi_j=float(psi), objective=0.0, exchange_time=t_c)


def estimated_chat_bytes(node_i: VehicleNode, node_j: VehicleNode, psi_total: float = 1.0) -> float:
    """Bytes a chat is expected to move, for the Eq. 5 estimator.

    Coresets both ways plus models at an anticipated combined relative
    size ``psi_total`` (callers typically assume a moderately compressed
    exchange when ranking neighbors).
    """
    return (
        node_i.coreset.nominal_bytes
        + node_j.coreset.nominal_bytes
        + psi_total * NOMINAL_MODEL_BYTES
    )

