"""Property-based tests for simulation components."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.autopilot import BankDriver, DriverBank, ExpertAutopilot
from repro.sim.kinematics import MAX_DECEL, VehicleState, advance, advance_fleet
from repro.sim.router import RouteBank, RoutePlan

finite = st.floats(-1e3, 1e3, allow_nan=False)


def route_strategy():
    """Random polyline routes with >= 2 distinct vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 6))
        xs = draw(
            st.lists(st.floats(0, 500), min_size=n, max_size=n, unique=True)
        )
        ys = draw(st.lists(st.floats(0, 500), min_size=n, max_size=n))
        return np.stack([xs, ys], axis=1)

    return build()


class TestRoutePlanProperties:
    @settings(max_examples=30)
    @given(route_strategy(), st.floats(-100, 1500))
    def test_point_at_always_on_plan_bbox(self, vertices, s):
        plan = RoutePlan(vertices)
        point = plan.point_at(s)
        lo = vertices.min(axis=0) - 1e-6
        hi = vertices.max(axis=0) + 1e-6
        assert (point >= lo).all() and (point <= hi).all()

    @settings(max_examples=30)
    @given(route_strategy())
    def test_total_length_at_least_endpoint_distance(self, vertices):
        plan = RoutePlan(vertices)
        direct = np.linalg.norm(vertices[-1] - vertices[0])
        assert plan.total_length >= direct - 1e-6

    @settings(max_examples=30)
    @given(route_strategy(), st.floats(0, 1))
    def test_projection_of_route_point_recovers_arc(self, vertices, frac):
        plan = RoutePlan(vertices)
        s = frac * plan.total_length
        point = plan.point_at(s)
        recovered = plan.project(point)
        # Projection maps a route point back to (nearly) its arc position
        # unless the route self-intersects; allow generous slack.
        assert 0.0 <= recovered <= plan.total_length

    @settings(max_examples=30)
    @given(route_strategy())
    def test_commands_defined_everywhere(self, vertices):
        plan = RoutePlan(vertices)
        for s in np.linspace(0, plan.total_length, 9):
            assert plan.command_at(float(s)) in (0, 1, 2, 3)


def same_bits(got, want):
    """Equal as float64 bit patterns (so -0.0 != 0.0 and NaN == NaN)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def bank_cases(draw):
    """A bank of 1-6 routes of mixed length (two-vertex routes with no
    interior vertex and no turn included) and a seed for the queries."""
    plans = [RoutePlan(v) for v in draw(st.lists(route_strategy(), min_size=1, max_size=6))]
    # (Vertices a denormal apart make a route of length zero: not drivable.)
    assume(all(plan.total_length > 0.0 for plan in plans))
    return plans, RouteBank(plans), np.random.default_rng(draw(st.integers(0, 2**31 - 1)))


def arc_positions(plans, rng):
    """One arc position per route: before the start, past the end, exactly
    on a knot, at either end, or anywhere in between."""
    picks = []
    for plan in plans:
        knot = plan.cum_lengths[rng.integers(len(plan.cum_lengths))]
        picks.append(
            rng.choice(
                [
                    rng.uniform(-20.0, 0.0),
                    plan.total_length + rng.uniform(0.0, 20.0),
                    knot,
                    0.0,
                    plan.total_length,
                    rng.uniform(0.0, plan.total_length),
                ]
            )
        )
    return np.array(picks)


class TestRouteBankMatchesRoutePlan:
    """Every batched route query equals the RoutePlan method, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(bank_cases())
    def test_point_queries(self, case):
        plans, bank, rng = case
        for _ in range(4):
            s = arc_positions(plans, rng)
            x, y = bank.point_at(s)
            assert same_bits(np.stack([x, y], axis=1), [p.point_at(v) for p, v in zip(plans, s)])
            assert same_bits(bank.heading_at(s), [p.heading_at(v) for p, v in zip(plans, s)])
            x, y = bank.lane_point_at(s, 2.0)
            assert same_bits(
                np.stack([x, y], axis=1), [p.lane_point_at(v, 2.0) for p, v in zip(plans, s)]
            )
        # Stacked positions: one row per query, cars along the last axis.
        stacked = np.stack([arc_positions(plans, rng) for _ in range(3)])
        x, _ = bank.point_at(stacked)
        assert same_bits(x, [[p.point_at(v)[0] for p, v in zip(plans, row)] for row in stacked])

    @settings(max_examples=60, deadline=None)
    @given(bank_cases())
    def test_vertex_queries(self, case):
        plans, bank, rng = case
        # The lookups carry last call's answer as their guess: jump
        # around, forwards and backwards, to show it is only a guess.
        for _ in range(6):
            s = arc_positions(plans, rng)
            assert same_bits(
                bank.distance_to_intersection(s),
                [p.distance_to_intersection(v) for p, v in zip(plans, s)],
            )
            assert bank.command_at(s).tolist() == [p.command_at(v) for p, v in zip(plans, s)]
            assert bank.done(s).tolist() == [p.done(v) for p, v in zip(plans, s)]

    @settings(max_examples=60, deadline=None)
    @given(bank_cases())
    def test_project_with_hint(self, case):
        plans, bank, rng = case
        for _ in range(4):
            # Hints at the start and the end clip the search window there;
            # a long route's interior hint leaves it whole.
            hint = arc_positions(plans, rng)
            # The car may also be a window's length (60 m) away from the
            # hint, where the nearest knot is the window's first or last.
            off = rng.choice([-62.0, -60.0, -58.0, 0.0, 58.0, 60.0, 62.0], size=len(plans))
            at = np.array([p.point_at(h + d) for p, h, d in zip(plans, hint, off)])
            position = at + rng.normal(scale=4.0, size=at.shape)
            got = bank.project(position[:, 0], position[:, 1], hint)
            assert same_bits(got, [p.project(q, hint=h) for p, q, h in zip(plans, position, hint)])

    def test_set_route_widens_and_rewrites_rows(self):
        short = RoutePlan(np.array([[0.0, 0.0], [30.0, 0.0]]))
        long = RoutePlan(np.array([[0.0, 0.0], [400.0, 0.0], [400.0, 300.0], [0.0, 300.0]]))
        bank = RouteBank([short, short])
        width = bank.knot_capacity
        bank.set_route(1, long)  # longer than every row so far
        assert bank.knot_capacity > width
        bank.set_route(0, long)
        bank.set_route(1, short)  # a shorter route over a longer row
        s = np.array([650.0, 29.0])
        x, y = bank.point_at(s)
        assert same_bits([x[0], y[0]], long.point_at(650.0))
        assert same_bits([x[1], y[1]], short.point_at(29.0))
        assert bank.command_at(np.array([380.0, 10.0])).tolist() == [
            long.command_at(380.0), short.command_at(10.0)
        ]

    def test_project_tie_goes_to_the_lower_knot(self):
        plan = RoutePlan(np.array([[0.0, 0.0], [100.0, 0.0]]))  # knots every 2 m exactly
        assert plan.cum_lengths[1] == 2.0 and plan.cum_lengths[2] == 4.0
        bank = RouteBank([plan])
        # (3, 0) is exactly 1 m from the knots at 2 m and at 4 m.
        got = bank.project(np.array([3.0]), np.array([0.0]), np.array([0.0]))
        assert got[0] == plan.project(np.array([3.0, 0.0]), hint=0.0) == 2.0


class TestDriverBankTies:
    def test_blocker_side_tie_goes_to_the_lower_agent(self):
        """Two blockers exactly as far ahead, one on each side: the car
        edges around the one with the lower agent index, whichever the
        strip scan meets first."""
        plan = RoutePlan(np.array([[0.0, 0.0], [0.0, 100.0]]))  # heading +y
        turned = []
        for left_first in (True, False):
            sides = (-1.0, 1.0) if left_first else (1.0, -1.0)  # x offsets; left is -x
            bank = DriverBank([plan], renew=None)
            bank.stopped_time[0] = 7.0  # creeping, and hard-blocked below
            agents = np.array([[0.0, 0.0], [sides[0], 3.0], [sides[1], 3.0]])
            pilot = ExpertAutopilot(plan)
            pilot._stopped_time = 7.0
            state = VehicleState(0.0, 0.0, plan.heading_at(0.0), 0.0)
            turn_rate, accel = pilot.control(state, agents[1:], dt=0.1)
            want = advance(state, turn_rate, accel, 0.1)
            bank.step(agents, np.ones(3, dtype=bool), 0.1)
            got = BankDriver(bank, 0).state
            assert same_bits(
                [got.x, got.y, got.heading, got.speed],
                [want.x, want.y, want.heading, want.speed],
            )
            turned.append(got.heading)
        assert turned[0] != turned[1]  # the tie-break decided the side


class TestKinematicsProperties:
    @settings(max_examples=50)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.floats(0.01, 1.0))
    def test_advance_fleet_equals_advance_per_row(self, seed, n, dt):
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-1e3, 1e3, size=(2, n))
        heading = rng.uniform(-np.pi, np.pi, size=n)
        speed = rng.uniform(0.0, 30.0, size=n)
        turn_rate = rng.uniform(-5.0, 5.0, size=n)
        accel = rng.uniform(-10.0, 10.0, size=n)
        want = [
            advance(VehicleState(*row[:4]), row[4], row[5], dt)
            for row in zip(x, y, heading, speed, turn_rate, accel)
        ]
        advance_fleet(x, y, heading, speed, turn_rate, accel, dt)
        assert same_bits(
            np.stack([x, y, heading, speed], axis=1),
            [[s.x, s.y, s.heading, s.speed] for s in want],
        )

    @settings(max_examples=50)
    @given(
        finite,
        finite,
        st.floats(-np.pi, np.pi),
        st.floats(0, 30),
        st.floats(-5, 5),
        st.floats(-10, 10),
        st.floats(0.01, 1.0),
    )
    def test_speed_nonnegative_heading_wrapped(
        self, x, y, heading, speed, turn_rate, accel, dt
    ):
        state = VehicleState(x, y, heading, speed)
        out = advance(state, turn_rate, accel, dt)
        assert out.speed >= 0.0
        assert -np.pi <= out.heading <= np.pi

    @settings(max_examples=50)
    @given(st.floats(0, 30), st.floats(0.01, 1.0))
    def test_displacement_bounded_by_speed(self, speed, dt):
        state = VehicleState(0.0, 0.0, 0.0, speed)
        out = advance(state, 0.0, 0.0, dt)
        moved = np.hypot(out.x, out.y)
        assert moved <= (speed + 3.0 * dt) * dt + 1e-9

    @settings(max_examples=50)
    @given(st.floats(0, 30))
    def test_full_braking_stops_within_bound(self, speed):
        state = VehicleState(0.0, 0.0, 0.0, speed)
        steps = int(np.ceil(speed / MAX_DECEL / 0.1)) + 2
        for _ in range(steps):
            state = advance(state, 0.0, -MAX_DECEL, 0.1)
        assert state.speed == 0.0
