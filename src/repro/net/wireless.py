"""Distance-based wireless loss model.

The paper estimates wireless loss from a distance-loss lookup table
derived from physical-layer V2X evaluations (Anwar et al., VTC 2019),
exactly as its predecessor RoadTrain does.  We ship a table of the same
shape: packet loss grows from ~1% at close range to near-total at the
500 m communication boundary.

The *effective rate* at a distance folds MAC retransmissions into
throughput: every lost transmission costs one packet time, so the
goodput of a link with per-try loss ``p`` is ``bandwidth * (1 - p)``
(transport-layer recovery re-queues the rare packet that exhausts its
three retransmissions, which costs time rather than aborting a model
transfer — a transfer only *fails* by not completing within contact).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_LOSS_TABLE", "RADIO_RANGE", "WirelessModel", "table_loss"]

#: V2V communication range in meters (§IV-A): the radius of every
#: neighbour query and the edge past which a link delivers nothing.
RADIO_RANGE = 500.0

#: (max_distance_m, packet_loss_probability) rows, ascending distance.
#: Shape follows the 802.11bd highway measurements in Anwar et al.
DEFAULT_LOSS_TABLE: tuple[tuple[float, float], ...] = (
    (50.0, 0.01),
    (100.0, 0.03),
    (150.0, 0.06),
    (200.0, 0.10),
    (250.0, 0.16),
    (300.0, 0.24),
    (350.0, 0.35),
    (400.0, 0.48),
    (450.0, 0.63),
    (500.0, 0.80),
)

_TABLE_LOSSES = np.array([row[1] for row in DEFAULT_LOSS_TABLE])


def table_loss(rng: np.random.Generator) -> float:
    """One loss value drawn uniformly from the table's rows — how the
    paper samples an infrastructure link's loss (§IV-C: ProxSkip and
    RSU-L communications)."""
    return float(rng.choice(_TABLE_LOSSES))


class WirelessModel:
    """Lookup-table wireless loss plus derived link quantities.

    Parameters
    ----------
    table:
        ``(max_distance, loss)`` rows; beyond the last row loss is 1.
    max_range:
        Communication range in meters (:data:`RADIO_RANGE`).
    enabled:
        When false the channel is lossless within range — the paper's
        "w/o wireless loss" idealization.
    """

    def __init__(
        self,
        table: tuple[tuple[float, float], ...] = DEFAULT_LOSS_TABLE,
        max_range: float = RADIO_RANGE,
        enabled: bool = True,
    ):
        distances = [row[0] for row in table]
        if sorted(distances) != distances:
            raise ValueError("loss table distances must be ascending")
        self.table = table
        self.max_range = float(max_range)
        self.enabled = enabled
        # The table as arrays for :meth:`goodput_factors`; the entry past
        # the last bound is the loss beyond the table.
        self._bounds = np.array(distances, dtype=float)
        self._losses = np.array([row[1] for row in table] + [1.0])

    @classmethod
    def fixed(cls, loss: float, max_range: float = RADIO_RANGE) -> "WirelessModel":
        """A model with one distance-independent loss value.

        Used for infrastructure links where the paper samples the loss
        uniformly from the lookup table instead of using geometry
        (§IV-C: ProxSkip and RSU-L communications).
        """
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must lie in [0, 1]: {loss}")
        return cls(table=((max_range, loss),), max_range=max_range, enabled=True)

    def loss_at(self, distance: float) -> float:
        """Per-transmission packet loss probability at ``distance``."""
        if distance > self.max_range:
            return 1.0
        if not self.enabled:
            return 0.0
        for max_dist, loss in self.table:
            if distance <= max_dist:
                return loss
        return 1.0

    def in_range(self, distance: float) -> bool:
        """Whether two radios at ``distance`` can communicate at all."""
        return distance <= self.max_range

    def goodput_factor(self, distance: float) -> float:
        """Fraction of raw bandwidth delivered as goodput at ``distance``."""
        return 1.0 - self.loss_at(distance)

    def goodput_factors(self, distances: np.ndarray) -> np.ndarray:
        """:meth:`goodput_factor` of every distance of an array.

        One table lookup: a distance belongs to the first row whose
        (inclusive) bound reaches it, and past the last row, or past
        ``max_range``, everything is lost.
        """
        distances = np.asarray(distances, dtype=float)
        loss = 0.0
        if self.enabled:
            loss = self._losses[np.searchsorted(self._bounds, distances, side="left")]
        return 1.0 - np.where(distances > self.max_range, 1.0, loss)

    def expected_goodput_factor(self, distances: np.ndarray) -> float:
        """Mean goodput factor over a predicted distance profile.

        Used by the §III-A estimator: given the distance samples two
        vehicles' shared routes imply, this is the average fraction of
        bandwidth the link will deliver.
        """
        factors = self.goodput_factors(distances)
        if factors.size == 0:
            return 0.0
        return float(factors.mean())
