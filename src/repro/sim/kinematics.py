"""Vehicle kinematics: a unicycle model with rate limits.

Good enough for imitation-learning experiments: the controller outputs a
steering rate and an acceleration, both clipped to physical limits, and
the state integrates forward at a fixed timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.geometry import wrap_angle

__all__ = [
    "VehicleState",
    "advance",
    "advance_fleet",
    "MAX_TURN_RATE",
    "MAX_ACCEL",
    "MAX_DECEL",
]

#: Physical limits (roughly a passenger car).
MAX_TURN_RATE = 0.9  # rad/s at full steer
MAX_ACCEL = 3.0  # m/s^2
MAX_DECEL = 6.0  # m/s^2


@dataclass
class VehicleState:
    """Planar pose plus longitudinal speed."""

    x: float
    y: float
    heading: float
    speed: float

    @property
    def position(self) -> np.ndarray:
        """(x, y) position as an array."""
        return np.array([self.x, self.y])

    def copy(self) -> "VehicleState":
        """An independent copy of this state."""
        return VehicleState(self.x, self.y, self.heading, self.speed)


def advance(state: VehicleState, turn_rate: float, accel: float, dt: float) -> VehicleState:
    """Integrate the unicycle one step; returns a new state.

    ``turn_rate`` (rad/s) and ``accel`` (m/s^2) are clipped to the
    vehicle's physical limits; speed never goes negative.
    """
    # Scalar clip via min/max (same result, none of np.clip's dispatch
    # overhead — this runs hundreds of times per tick).
    turn_rate = float(min(max(turn_rate, -MAX_TURN_RATE), MAX_TURN_RATE))
    accel = float(min(max(accel, -MAX_DECEL), MAX_ACCEL))
    speed = max(state.speed + accel * dt, 0.0)
    heading = float(wrap_angle(state.heading + turn_rate * dt))
    # Integrate position with the mid-step speed for stability.
    mid_speed = 0.5 * (state.speed + speed)
    x = state.x + mid_speed * np.cos(heading) * dt
    y = state.y + mid_speed * np.sin(heading) * dt
    return VehicleState(x, y, heading, speed)


def advance_fleet(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    speed: np.ndarray,
    turn_rate: np.ndarray,
    accel: np.ndarray,
    dt: float,
) -> None:
    """:func:`advance` for a whole fleet, in place.

    All arguments but ``dt`` are ``(n,)`` float64 arrays; the four state
    arrays are overwritten.  Each element goes through the expressions
    of :func:`advance` in the same order, so row ``i`` ends up equal, bit
    for bit, to ``advance(VehicleState(x[i], ...), turn_rate[i], ...)``.
    """
    turn_rate = np.minimum(np.maximum(turn_rate, -MAX_TURN_RATE), MAX_TURN_RATE)
    accel = np.minimum(np.maximum(accel, -MAX_DECEL), MAX_ACCEL)
    new_speed = np.maximum(speed + accel * dt, 0.0)
    heading[:] = wrap_angle(heading + turn_rate * dt)
    mid_speed = 0.5 * (speed + new_speed)
    x += mid_speed * np.cos(heading) * dt
    y += mid_speed * np.sin(heading) * dt
    speed[:] = new_speed
