"""LbChat — the paper's primary contribution.

A vehicle continuously trains on its local dataset; upon encountering
peers it (1) prioritizes whom to chat with via route sharing (Eq. 5),
(2) exchanges coresets and evaluates models on them to assess peer-model
value (§III-B/C), (3) jointly optimizes both sides' model compression
ratios (Eq. 7), (4) aggregates the received model with loss-derived
weights (Eq. 8), and (5) absorbs the peer's coreset into its local
dataset, keeping its own coreset fresh by merge-and-reduce (§III-D).
"""

from repro.core.value import ModelValue, assess_value
from repro.core.psi import PsiLossMap, build_psi_map, optimize_compression
from repro.core.aggregate import aggregate_models
from repro.core.node import NodeConfig, VehicleNode
from repro.core.chat import ChatOutcome, pairwise_chat
from repro.core.chatlog import ChatLog, ChatRecord
from repro.core.lbchat import LbChatConfig, LbChatTrainer

__all__ = [
    "ChatLog",
    "ChatRecord",
    "ModelValue",
    "assess_value",
    "PsiLossMap",
    "build_psi_map",
    "optimize_compression",
    "aggregate_models",
    "NodeConfig",
    "VehicleNode",
    "ChatOutcome",
    "pairwise_chat",
    "LbChatConfig",
    "LbChatTrainer",
]
