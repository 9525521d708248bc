"""Mobility traces for the communication simulation.

The paper runs the fleet for an additional 120 hours collecting vehicle
locations at 2 fps, then replays those traces to drive encounters during
collaborative training.  :func:`simulate_traces` does the same on our
world (background traffic disabled — only the learning fleet's positions
matter for encounters), and :class:`MobilityTraces` answers the queries
the communication layer needs: positions, distances, neighbors and
look-ahead routes for contact-duration estimation (§III-A).  Every
neighbor query, whatever the fleet size, is answered by one
:class:`~repro.net.sweep.ContactIndex` per radius, built from the
whole trace on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.world import World, WorldConfig

__all__ = ["MobilityTraces", "simulate_traces"]


@dataclass
class MobilityTraces:
    """Positions of every fleet vehicle over time.

    ``positions[k, i]`` is vehicle ``i``'s (x, y) at ``times[k]``.
    """

    vehicle_ids: list[str]
    times: np.ndarray  # (n_steps,)
    positions: np.ndarray  # (n_steps, n_vehicles, 2)
    _contact_indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def duration(self) -> float:
        """Time of the final trace sample."""
        return float(self.times[-1]) if len(self.times) else 0.0

    @property
    def interval(self) -> float:
        """Sampling interval between trace rows."""
        if len(self.times) < 2:
            raise ValueError("trace needs at least two samples")
        return float(self.times[1] - self.times[0])

    def index_at(self, time: float) -> int:
        """Index of the last sample at or before ``time``."""
        idx = int(np.searchsorted(self.times, time + 1e-9) - 1)
        return max(min(idx, len(self.times) - 1), 0)

    def position(self, vehicle: int | str, time: float) -> np.ndarray:
        """A vehicle's position at (or just before) ``time``."""
        i = vehicle if isinstance(vehicle, int) else self.vehicle_ids.index(vehicle)
        return self.positions[self.index_at(time), i]

    def distance(self, a: int, b: int, time: float) -> float:
        """Distance between two vehicles at ``time``."""
        k = self.index_at(time)
        return float(np.linalg.norm(self.positions[k, a] - self.positions[k, b]))

    def contact_index(self, radius: float):
        """The :class:`~repro.net.sweep.ContactIndex` for ``radius``.

        Built on first use (one pass over the whole trace) and memoized
        per radius.
        """
        from repro.net.sweep import ContactIndex, sweep_encounters

        index = self._contact_indexes.get(float(radius))
        if index is None:
            index = ContactIndex(sweep_encounters(self.positions, radius))
            self._contact_indexes[float(radius)] = index
        return index

    def neighbors(self, vehicle: int, time: float, radius: float) -> list[int]:
        """Other vehicles within ``radius`` of ``vehicle`` at ``time``, ascending."""
        return self.contact_index(radius).neighbors_at(vehicle, self.index_at(time))

    def future_positions(self, vehicle: int | list[int], time: float, horizon: float) -> np.ndarray:
        """Trace samples of ``vehicle`` in ``[time, time + horizon]``:
        ``(k, 2)``, or ``(k, c, 2)`` for a list of ``c`` vehicles.

        This is the "route for the next few minutes" vehicles share in
        §III-A; in the simulation we read it off the trace, exactly as a
        navigation service would supply it.
        """
        k0 = self.index_at(time)
        k1 = self.index_at(time + horizon)
        return self.positions[k0 : k1 + 1, vehicle]


def simulate_traces(config: WorldConfig, duration: float) -> MobilityTraces:
    """Generate fleet mobility traces by running the world, sampled every
    :data:`~repro.sim.world.SNAPSHOT_INTERVAL`.

    Background traffic is disabled for speed — it does not participate
    in V2V communication — while the fleet still renews random routes
    endlessly, producing realistic intermittent encounter patterns.
    """
    trace_config = WorldConfig(
        map_size=config.map_size,
        grid_n=config.grid_n,
        n_vehicles=config.n_vehicles,
        n_background_cars=0,
        n_pedestrians=0,
        min_route_length=config.min_route_length,
        seed=config.seed + 1,  # decorrelated from data collection
        rural=config.rural,
        # Map structure must match the collection world (districts stay
        # off in trace worlds — only geometry shapes the encounters).
        city_blocks=config.city_blocks,
        shard_stepping=config.shard_stepping,
    )
    world = World(trace_config)
    world.run(duration)
    vehicle_ids = [v.vehicle_id for v in world.vehicles]
    times = np.array([snap.time for snap in world.snapshots])
    positions = np.array(
        [
            [snap.vehicle_states[vid].position for vid in vehicle_ids]
            for snap in world.snapshots
        ]
    )
    return MobilityTraces(vehicle_ids=vehicle_ids, times=times, positions=positions)
