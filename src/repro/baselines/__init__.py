"""Benchmark methods the paper compares against (§IV-B).

* :class:`~repro.baselines.proxskip.ProxSkipTrainer` — central-server
  federated learning with probabilistic synchronization (idealized: no
  backend bandwidth constraint).
* :class:`~repro.baselines.rsul.RsuLTrainer` — road-side units at
  intersections act as local aggregation points.
* :class:`~repro.baselines.dfl_dds.DflDdsTrainer` — synchronous fully
  decentralized rounds with data-source-diversity aggregation weights.
* :class:`~repro.baselines.dp.DpTrainer` — asynchronous gossip with
  log-loss merge weights.

DP and DFL-DDS swap models through one fixed-ratio exchange,
:meth:`~repro.core.trainer_base.TrainerBase.exchange_models`.  The other
methods are rows of :data:`repro.experiments.runner.METHODS`: ``Local``
is the base trainer, and SCO (§IV-G) and the ablations (§IV-F) are
LbChat with one config field fixed.
"""

from repro.baselines.proxskip import ProxSkipConfig, ProxSkipTrainer
from repro.baselines.rsul import RsuLConfig, RsuLTrainer
from repro.baselines.dfl_dds import DflDdsTrainer
from repro.baselines.dp import DpTrainer

__all__ = [
    "ProxSkipConfig",
    "ProxSkipTrainer",
    "RsuLConfig",
    "RsuLTrainer",
    "DflDdsTrainer",
    "DpTrainer",
]
