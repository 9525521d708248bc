"""Unit tests for packet-level transfer simulation."""

import pytest

from repro.net import WirelessModel, simulate_transfer
from repro.net.channel import BYTES_PER_SECOND, transfer_time_lossless


class TestLosslessTime:
    def test_zero_bytes_instant(self):
        assert transfer_time_lossless(0) == 0.0

    def test_packetization_rounds_up(self):
        one = transfer_time_lossless(1)
        full = transfer_time_lossless(1500)
        assert one == full

    def test_52mb_takes_tens_of_seconds(self):
        # The paper's headline: a 52 MB model at 31 Mbps takes ~13-14 s.
        t = transfer_time_lossless(52 * 1024 * 1024)
        assert 12.0 < t < 16.0

    def test_coreset_under_half_second(self):
        # §IV-A: a 0.6 MB coreset transmits in < 0.5 s.
        t = transfer_time_lossless(0.6 * 1024 * 1024)
        assert t < 0.5


class TestSimulateTransfer:
    def test_completes_on_clean_link(self):
        wireless = WirelessModel(enabled=False)
        result = simulate_transfer(
            1_000_000, lambda t: 50.0, wireless, 0.0, 100.0
        )
        assert result.completed
        assert result.elapsed == pytest.approx(1_000_000 / BYTES_PER_SECOND, rel=0.01)

    def test_loss_slows_transfer(self):
        clean = simulate_transfer(
            2_000_000, lambda t: 10.0, WirelessModel(enabled=False), 0.0, 1e9
        )
        lossy = simulate_transfer(
            2_000_000, lambda t: 499.0, WirelessModel(), 0.0, 1e9
        )
        assert lossy.completed
        assert lossy.elapsed > clean.elapsed * 3

    def test_deadline_cuts_transfer(self):
        wireless = WirelessModel(enabled=False)
        needed = 10_000_000 / BYTES_PER_SECOND
        result = simulate_transfer(
            10_000_000, lambda t: 50.0, wireless, 0.0, needed / 2
        )
        assert not result.completed
        assert result.bytes_delivered < 10_000_000

    def test_out_of_range_aborts(self):
        wireless = WirelessModel()

        def distance(t):
            return 100.0 if t < 1.0 else 1000.0  # drives away after 1 s

        result = simulate_transfer(50_000_000, distance, wireless, 0.0, 100.0)
        assert not result.completed
        assert result.elapsed <= 1.5

    def test_zero_bytes_trivially_complete(self):
        result = simulate_transfer(0, lambda t: 50.0, WirelessModel(), 0.0, 1.0)
        assert result.completed and result.elapsed == 0.0

    def test_absolute_time_offsets_respected(self):
        wireless = WirelessModel()
        seen = []

        def distance(t):
            seen.append(t)
            return 50.0

        simulate_transfer(1000, distance, wireless, start_time=42.0, deadline=50.0)
        assert all(t >= 42.0 for t in seen)
