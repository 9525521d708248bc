"""The pairwise "chat" protocol (Algorithm 2, lines 8-16).

One chat between vehicles i and j, simulated with real transfer timing:

1. assistive info (route, bandwidth — 184 bytes each, §III-A),
2. coreset exchange (C_i then C_j over the shared half-duplex channel),
3. cross-evaluations + psi-map fitting, results exchanged (small),
4. Eq. 7 joint compression optimization,
5. compressed model exchange (x_i then x_j), each direction aggregated
   on arrival via Eq. 8 on the joint coreset C_i ∪ C_j,
6. both sides absorb the peer's coreset into their local dataset.

Stages 1-4 (:func:`_negotiate`) are shared with the overlapped protocol
(:mod:`repro.core.overlap`), which ships stage 5 in the background.

A chat can be cut short at any stage by the vehicles moving out of
range; whatever already arrived is still used (a received coreset is
absorbed even if the model transfer after it died).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compression import CompressedModel, TopkPlan
from repro.core.node import VehicleNode
from repro.core.psi import PsiDecision, optimize_compression
from repro.core.value import assess_value
from repro.net.channel import ChannelConfig, simulate_transfer
from repro.net.wireless import WirelessModel
from repro.telemetry import hooks as telemetry

__all__ = ["ChatBytesMemo", "ChatOutcome", "estimated_chat_bytes", "pairwise_chat"]

#: Fixed overhead for computing/exchanging evaluation results and maps.
_RESULTS_EXCHANGE_SECONDS = 0.1


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
    #: Psi maps this chat fitted with the dense probe bank / with the
    #: per-level fallback loop (trainers tally them; never silent).
    psi_probe_builds: int = 0
    psi_probe_fallbacks: int = 0


@dataclass
class _Negotiation:
    """Stages 1-4 of a chat: everything up to the Eq. 7 decision."""

    outcome: ChatOutcome
    now: float  # virtual time the negotiation ended
    #: node_id -> (TopkPlan, model version it was sorted at), for the
    #: nodes whose psi map came from the dense prober.
    plans: dict[str, tuple[TopkPlan, int]] = field(default_factory=dict)

    @property
    def settled(self) -> bool:
        """The chat ended before Eq. 7 (stage abort or coreset-only):
        coresets that got through are absorbed and ``outcome`` is final."""
        return self.outcome.psi is None

    def payload(self, node: VehicleNode, psi: float) -> CompressedModel:
        """``node``'s model compressed to ``psi``.

        Reuses the psi map's magnitude ordering while the parameters it
        sorted are still current (in the synchronous protocol the second
        sender compresses *after* absorbing the first model).
        """
        plan, version = self.plans.get(node.node_id, (None, -1))
        if plan is not None and version == node.model_version:
            return plan.compress(psi)
        return node.compress_model(psi)


def _negotiate(
    node_i: VehicleNode,
    node_j: VehicleNode,
    distance_fn: Callable[[float], float],
    start_time: float,
    contact_deadline: float,
    wireless: WirelessModel,
    channel: ChannelConfig,
    time_budget: float,
    *,
    lambda_c: float,
    refresh_coresets: bool,
    equal_compression: bool,
    coreset_only: bool,
    expected_goodput: float,
    prober,
) -> _Negotiation:
    """Run stages 1-4; ``outcome.psi`` is set unless the chat settled."""
    outcome = ChatOutcome(duration=0.0)
    talks = _Negotiation(outcome, start_time)

    def exchange(stage: str, n_bytes: float) -> bool:
        transfer = simulate_transfer(
            n_bytes, distance_fn, wireless, channel, talks.now, contact_deadline
        )
        talks.now += transfer.elapsed
        telemetry.on_chat_stage(stage, talks.now, transfer.completed)
        return transfer.completed

    def settle(aborted: str = "", absorb: bool = True) -> _Negotiation:
        outcome.aborted = aborted
        if absorb:
            # Coresets still got through: absorb them before bailing.
            _absorb_both(node_i, node_j, outcome)
        outcome.duration = talks.now - start_time
        return talks

    # 1. assistive info both ways.
    if not exchange("assist", 2 * channel.assist_info_bytes):
        return settle("assist", absorb=False)

    # 2. coresets (rebuild first so they reflect the current model/data).
    if refresh_coresets:
        node_i.maybe_refresh_coreset()
        node_j.maybe_refresh_coreset()
    if not exchange(
        "coresets", node_i.coreset.nominal_bytes + node_j.coreset.nominal_bytes
    ):
        return settle("coresets", absorb=False)
    outcome.coresets_exchanged = True

    if coreset_only:
        # SCO (§IV-G): data sharing only; no model value assessment or
        # model exchange at all.
        return settle()

    # 3. cross-evaluations and psi maps (compute treated as free, §IV-A).
    value = assess_value(
        loss_i_on_ci=node_i.evaluate(node_i.coreset.data),
        loss_i_on_cj=node_i.evaluate(node_j.coreset.data),
        loss_j_on_cj=node_j.evaluate(node_j.coreset.data),
        loss_j_on_ci=node_j.evaluate(node_i.coreset.data),
    )
    maps = []
    for node in (node_i, node_j):
        if prober is not None and prober.compatible(node):
            psi_map, plan = prober.build(node)
            talks.plans[node.node_id] = (plan, node.model_version)
            outcome.psi_probe_builds += 1
        else:
            psi_map = node.build_psi_map()
            outcome.psi_probe_fallbacks += 1
        maps.append(psi_map)
    if not exchange("results", 2 * 256):  # tiny payloads
        return settle("results")
    # The fixed compute/exchange overhead applies only when the results
    # actually made it across — and it can itself eat the rest of the
    # contact, in which case planning Eq. 7 and starting model transfers
    # against an already-dead pair would be wasted (and would distort
    # receive-rate accounting with doomed attempts).
    talks.now += _RESULTS_EXCHANGE_SECONDS
    if talks.now >= contact_deadline:
        telemetry.on_chat_stage("results_overhead", talks.now, False)
        return settle("results_overhead")

    # 4. Eq. 7: optimize both compression ratios jointly.  Planning uses
    # the loss-discounted effective bandwidth the §III-A estimator
    # predicts; actual transfers are simulated against the real channel.
    bandwidth = min(node_i.config.bandwidth_bps, node_j.config.bandwidth_bps)
    planning_bandwidth = bandwidth * max(min(expected_goodput, 1.0), 1e-3)
    remaining_contact = max(contact_deadline - talks.now, 0.0)
    if equal_compression:
        outcome.psi = equal_compression_decision(
            node_i.config.nominal_model_bytes,
            planning_bandwidth,
            time_budget,
            remaining_contact,
        )
    else:
        outcome.psi = optimize_compression(
            maps[0],
            maps[1],
            loss_i_on_cj=value.loss_i_on_cj,
            loss_j_on_ci=value.loss_j_on_ci,
            model_size_bytes=node_i.config.nominal_model_bytes,
            bandwidth_bps=planning_bandwidth,
            time_budget=time_budget,
            contact_duration=remaining_contact,
            lambda_c=lambda_c,
        )
    return talks


def pairwise_chat(
    node_i: VehicleNode,
    node_j: VehicleNode,
    distance_fn: Callable[[float], float],
    start_time: float,
    contact_deadline: float,
    wireless: WirelessModel,
    channel: ChannelConfig,
    time_budget: float,
    lambda_c: float = 0.02,
    refresh_coresets: bool = True,
    equal_compression: bool = False,
    mean_aggregation: bool = False,
    coreset_only: bool = False,
    expected_goodput: float = 1.0,
    prober=None,
) -> ChatOutcome:
    """Run one full chat; mutates both nodes on success.

    ``contact_deadline`` is the absolute time the estimator predicts the
    pair drops out of range (transfers are additionally cut by actual
    distance via ``distance_fn``).  ``time_budget`` is T_B.

    The three flags implement the paper's ablations: ``equal_compression``
    replaces Eq. 7 with a fixed ratio that evenly fills the contact
    window (§IV-F); ``mean_aggregation`` replaces Eq. 8 with plain
    averaging (§IV-F); ``coreset_only`` skips model exchange entirely —
    the SCO variant of §IV-G.

    ``prober`` is the trainer's :class:`~repro.core.overlap.DensePsiProber`;
    without one (or for a node it does not fit) the psi maps come from
    the per-level loop of :func:`repro.core.psi.build_psi_map`.
    """
    session = telemetry.active()
    if session is not None:
        session.tracer.start_span(
            "chat", start_time, i=node_i.node_id, j=node_j.node_id
        )
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
    outcome = talks.outcome
    model_deadline = min(contact_deadline, talks.now + time_budget)
    joint = None  # C_i ∪ C_j, built once a model actually arrives

    def ship(sender, receiver, psi: float, stage: str) -> tuple[bool, bool]:
        """One model leg; ``(attempted, received)``."""
        nonlocal joint
        if psi <= 0:
            return False, False
        compressed = talks.payload(sender, psi)
        # A positive psi can still round to an empty model (top-k keeps
        # zero entries); a zero-byte "transfer" would complete instantly
        # and inflate the receive rate, so skip it entirely.
        if compressed.nominal_bytes <= 0:
            return False, False
        sent = simulate_transfer(
            compressed.nominal_bytes, distance_fn, wireless, channel,
            talks.now, model_deadline,
        )
        talks.now += sent.elapsed
        telemetry.on_chat_stage(stage, talks.now, sent.completed)
        if sent.completed:
            if joint is None:
                joint = node_i.coreset.data.copy()
                joint.absorb_from(node_j.coreset.data)
            receiver.receive_and_aggregate(
                compressed, joint, mean_weights=mean_aggregation
            )
        return True, sent.completed

    if not talks.settled:
        # 5. model exchange: x_i to j, then x_j to i, on the shared channel.
        outcome.j_attempted, outcome.j_received_model = ship(
            node_i, node_j, outcome.psi.psi_i, "model_i"
        )
        outcome.i_attempted, outcome.i_received_model = ship(
            node_j, node_i, outcome.psi.psi_j, "model_j"
        )
        # 6. absorb peer coresets, expanding local datasets.
        _absorb_both(node_i, node_j, outcome)
        outcome.duration = talks.now - start_time
    if session is not None:
        telemetry.on_chat_outcome(start_time, outcome)
    return outcome


def _absorb_both(node_i: VehicleNode, node_j: VehicleNode, outcome: ChatOutcome) -> None:
    # Capture both coresets first: absorption merge-reduces the owner's
    # coreset in place, and each side must absorb what was actually sent.
    coreset_i, coreset_j = node_i.coreset, node_j.coreset
    outcome.absorbed_by_i = node_i.absorb_coreset(coreset_j)
    outcome.absorbed_by_j = node_j.absorb_coreset(coreset_i)


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
        + psi_total * node_i.config.nominal_model_bytes
    )


class ChatBytesMemo:
    """Memoized :func:`estimated_chat_bytes` keyed on coreset identity.

    Selection policies estimate the same pairs over and over within a
    scan tick (every candidate neighbor of every scanning vehicle).  The
    estimate only changes when a coreset changes, so the memo keys on
    each node's ``(dataset uid, generation)`` — a coreset refresh swaps
    the dataset object (fresh uid) and absorption bumps the generation,
    so stale entries can never be served; they just age out of the
    bounded table.
    """

    #: Entries kept before the table is cleared wholesale (keys are
    #: per-(pair, coreset-identity), so city-scale fleets would otherwise
    #: grow it without bound).
    max_entries = 8192

    def __init__(self):
        self._table: dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def estimate(self, node_i, node_j, psi_total: float = 1.0) -> float:
        data_i = node_i.coreset.data
        data_j = node_j.coreset.data
        key = (
            node_i.node_id,
            node_j.node_id,
            data_i.uid,
            data_i.generation,
            data_j.uid,
            data_j.generation,
            psi_total,
        )
        cached = self._table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = estimated_chat_bytes(node_i, node_j, psi_total)
        if len(self._table) >= self.max_entries:
            self._table.clear()
        self._table[key] = value
        return value
