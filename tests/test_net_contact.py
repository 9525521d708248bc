"""Unit tests for contact estimation and Eq. 5 prioritization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    BANDWIDTH_BPS,
    DEFAULT_LOSS_TABLE,
    ContactEstimate,
    WirelessModel,
    estimate_contact,
    estimate_contacts,
    priority_score,
)

WIRELESS = WirelessModel()
INTERVAL = 0.5


def parallel_routes(distance, n=40):
    """Two vehicles driving parallel at constant separation."""
    t = np.arange(n) * INTERVAL
    a = np.stack([t * 10.0, np.zeros(n)], axis=1)
    b = a + np.array([0.0, distance])
    return a, b


def diverging_routes(start_distance=100.0, rate=25.0, n=40):
    """Separation grows by ``rate`` meters per sample."""
    a = np.zeros((n, 2))
    b = np.stack([start_distance + rate * np.arange(n), np.zeros(n)], axis=1)
    return a, b


class TestEstimateContact:
    def test_close_parallel_pair_long_contact(self):
        a, b = parallel_routes(50.0)
        est = estimate_contact(a, b, INTERVAL, WIRELESS, exchange_bytes=1e6)
        assert est.contact_duration == pytest.approx((len(a)) * INTERVAL, abs=1.0)
        assert est.p == 1.0

    def test_out_of_range_now_zero(self):
        a, b = parallel_routes(600.0)
        est = estimate_contact(a, b, INTERVAL, WIRELESS, exchange_bytes=1e6)
        assert est.contact_duration == 0.0
        assert est.z == 0.0 and est.p == 0.0

    def test_diverging_pair_contact_ends(self):
        a, b = diverging_routes()
        est = estimate_contact(a, b, INTERVAL, WIRELESS, exchange_bytes=1e5)
        # Distance exceeds 500 m after (500-100)/25 = 16 samples.
        assert est.contact_duration == pytest.approx(16 * INTERVAL, abs=1.0)

    def test_insufficient_contact_zero_z(self):
        a, b = diverging_routes(start_distance=480.0, rate=40.0)
        huge = 1e9  # needs far longer than the ~0.5 s of contact left
        est = estimate_contact(a, b, INTERVAL, WIRELESS, exchange_bytes=huge)
        assert est.z == 0.0
        assert est.p < 1.0

    def test_shorter_sufficient_contact_scores_higher(self):
        # Same exchange, one pair with barely-enough contact, one with
        # plenty: the barely-enough one gets the larger z (urgency).
        bytes_needed = 4e6
        a1, b1 = parallel_routes(50.0, n=10)  # 5 s contact
        a2, b2 = parallel_routes(50.0, n=80)  # 40 s contact
        est_short = estimate_contact(a1, b1, INTERVAL, WIRELESS, bytes_needed)
        est_long = estimate_contact(a2, b2, INTERVAL, WIRELESS, bytes_needed)
        assert est_short.z > est_long.z
        assert est_short.p == est_long.p == 1.0

    def test_closer_pair_better_goodput(self):
        a1, b1 = parallel_routes(30.0)
        a2, b2 = parallel_routes(450.0)
        near = estimate_contact(a1, b1, INTERVAL, WIRELESS, 1e6)
        far = estimate_contact(a2, b2, INTERVAL, WIRELESS, 1e6)
        assert near.mean_goodput_factor > far.mean_goodput_factor

    def test_empty_routes(self):
        est = estimate_contact(
            np.zeros((0, 2)), np.zeros((0, 2)), INTERVAL, WIRELESS, 1e6
        )
        assert est.contact_duration == 0.0


class TestPriorityScore:
    def test_eq5_product(self):
        a, b = parallel_routes(50.0)
        est = estimate_contact(a, b, INTERVAL, WIRELESS, 4e6)
        assert est.z * est.p > 0
        assert priority_score(est) == est.z * est.p * 31e6

    def test_zero_for_unreachable(self):
        a, b = parallel_routes(600.0)
        est = estimate_contact(a, b, INTERVAL, WIRELESS, 4e6)
        assert priority_score(est) == 0.0


def scalar_estimate(route_a, route_b, wireless, exchange_bytes):
    """§III-A for one pair, a sample at a time: the reference
    :func:`estimate_contacts` must equal for every candidate."""
    k = min(len(route_a), len(route_b))
    distances = np.linalg.norm(route_a[:k] - route_b[:k], axis=1)
    in_range = distances <= wireless.max_range
    if k == 0 or not in_range[0]:
        return ContactEstimate(0.0, 0.0, 0.0, 0.0)
    out = np.where(~in_range)[0]
    end = int(out[0]) if len(out) else k
    contact_duration = end * INTERVAL
    goodput = float(np.array([1.0 - wireless.loss_at(d) for d in distances[:end]]).mean())
    bytes_per_second = BANDWIDTH_BPS / 8.0 * goodput
    needed_time = exchange_bytes / max(bytes_per_second, 1e-9)
    if needed_time <= 0:
        z = 1.0
    else:
        z = needed_time / contact_duration if contact_duration >= needed_time else 0.0
    p = float(np.clip(bytes_per_second * contact_duration / max(exchange_bytes, 1e-9), 0.0, 1.0))
    return ContactEstimate(contact_duration, float(z), p, goodput)


WIRELESS_MODELS = {
    "table": WIRELESS,
    "disabled": WirelessModel(enabled=False),
    "fixed": WirelessModel.fixed(0.3),
}
TABLE_BOUNDS = [row[0] for row in DEFAULT_LOSS_TABLE]


def candidate_routes(rng, route, c):
    """``(k, c, 2)`` routes around ``route``.  Routes sit on integer
    coordinates and the first three candidates are displaced along x by
    whole metres, so their separations are exact: one out of range at
    sample 0, one never out of range and on the table's bounds at every
    sample, one at exactly ``max_range`` throughout.  The rest wander."""
    k = len(route)
    radius = rng.choice(
        np.concatenate([TABLE_BOUNDS, rng.uniform(0.0, 650.0, 12)]), size=(k, c)
    )
    angle = rng.uniform(0.0, 2 * np.pi, (k, c))
    offsets = radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    if k:
        offsets[:, 0] = 0.0
        offsets[:, 0, 0] = rng.choice(TABLE_BOUNDS, k)
        offsets[0, 0, 0] = 501.0
        if c > 1:
            offsets[:, 1] = 0.0
            offsets[:, 1, 1] = -rng.choice(TABLE_BOUNDS, k)
        if c > 2:
            offsets[:, 2] = [500.0, 0.0]
    return route[:, None] + offsets


class TestCandidateSetAgainstTheScalarLoop:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 80),
        c=st.integers(1, 20),
        model=st.sampled_from(sorted(WIRELESS_MODELS)),
    )
    def test_every_field_of_every_estimate(self, seed, k, c, model):
        rng = np.random.default_rng(seed)
        wireless = WIRELESS_MODELS[model]
        route = np.cumsum(rng.integers(-12, 13, (k, 2)), axis=0).astype(float)
        routes = candidate_routes(rng, route, c)
        exchange_bytes = rng.choice([0.0, 1.0, 3e5, 4e6, 6e8], c).tolist()
        got = estimate_contacts(route, routes, INTERVAL, wireless, exchange_bytes)
        want = [
            scalar_estimate(route, routes[:, n], wireless, exchange_bytes[n]) for n in range(c)
        ]
        assert got == want
        assert all(type(v) is float for estimate in got for v in vars(estimate).values())
        if k:
            assert got[0] == ContactEstimate(0.0, 0.0, 0.0, 0.0)
            assert c < 2 or got[1].contact_duration == k * INTERVAL
            assert c < 3 or got[2].contact_duration == k * INTERVAL  # max_range is inclusive
        # One pair is the one-candidate case, whichever route is longer.
        for n in range(min(c, 4)):
            longer = np.concatenate([routes[:, n], routes[-1:, n]])
            assert (
                estimate_contact(route, longer, INTERVAL, wireless, exchange_bytes[n])
                == want[n]
            )

    def test_default_bandwidth_is_the_channels(self):
        """Every pair plans at the §IV-A link rate, the channel's."""
        a, b = parallel_routes(120.0)
        got = estimate_contacts(a, b[:, None], INTERVAL, WIRELESS, [4e6])
        assert got == [scalar_estimate(a, b, WIRELESS, 4e6)]
        assert BANDWIDTH_BPS == 31e6
