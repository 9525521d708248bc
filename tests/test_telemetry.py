"""Tests for the repro.telemetry observability layer.

Covers the units (tracer, registry, export, report), the
no-op fast path of the hooks, and the end-to-end contract: a traced
fleet run produces spans that match the trainer's own ChatLog, and the
JSONL export round-trips losslessly.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import DflDdsTrainer, DpTrainer
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.engine.metrics import CounterSet, ReceiveRateRecorder
from repro.sim.dataset import DrivingDataset
from repro.telemetry import (
    MetricRegistry,
    TelemetrySession,
    Tracer,
    export_jsonl,
    export_metrics_csv,
    load_jsonl,
    render_report,
    report_session,
    report_trace,
)
from repro.telemetry import hooks
from tests.conftest import make_fleet


def finished_trainer(counters=None, attempted=0, completed=0):
    """What ``hooks.on_run_finished`` reads of a trainer whose run ended."""
    return SimpleNamespace(
        counters=counters or CounterSet(),
        receive_rate=ReceiveRateRecorder(attempted=attempted, completed=completed),
        sim=SimpleNamespace(now=0.0),
    )


class TestTracer:
    def test_spans_nest_and_close(self):
        tracer = Tracer()
        outer = tracer.start_span("run", 0.0, method="LbChat")
        inner = tracer.start_span("chat", 1.0)
        assert inner.parent_id == outer.span_id
        tracer.end_span(3.0, status="ok")
        assert tracer.current_span is outer
        tracer.end_span(10.0)
        assert inner.end == 3.0 and inner.duration == 2.0
        assert outer.status == "ok" and outer.attrs["method"] == "LbChat"

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        orphan = tracer.event("boot", 0.0)
        tracer.start_span("chat", 1.0)
        child = tracer.event("transfer", 2.0, bytes=100)
        assert orphan.span_id is None
        assert child.span_id == tracer.current_span.span_id

    def test_counts_and_find(self):
        tracer = Tracer()
        for t in range(3):
            tracer.start_span("chat", float(t))
            tracer.end_span(float(t) + 0.5)
        tracer.event("transfer", 0.1)
        assert tracer.span_counts() == {"chat": 3}
        assert tracer.event_counts() == {"transfer": 1}
        assert len(tracer.find_spans("chat")) == 3

    def test_end_without_open_span_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end_span(1.0)


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.0)
        reg.gauge("g").set(0.5)
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 3.0
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["mean"] == pytest.approx(2.0)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("a").inc(-1.0)

    def test_unset_gauge_omitted_from_snapshot(self):
        reg = MetricRegistry()
        reg.gauge("never_set")
        assert "never_set" not in reg.snapshot()["gauges"]

    def test_merge_engine_counter_set(self):
        """Each finished run adds its CounterSet in: two runs, twice the counts."""
        counters = CounterSet()
        counters.add("chats", 5)
        counters.add("bytes", 1000.0)
        with TelemetrySession() as session:
            for _ in range(2):
                hooks.on_run_finished(finished_trainer(counters=counters))
        snap = session.registry.snapshot()["counters"]
        assert snap["trainer.chats"] == 10.0
        assert snap["trainer.bytes"] == 2000.0

    def test_merge_receive_rate(self):
        """Receptions land as two counters and nothing else: a rate is
        read off the counters, never kept beside them."""
        with TelemetrySession() as session:
            hooks.on_run_finished(finished_trainer(attempted=2, completed=1))
        snap = session.registry.snapshot()
        assert snap["counters"]["model_rx.attempted"] == 2.0
        assert snap["counters"]["model_rx.completed"] == 1.0
        assert snap["gauges"] == {}


class TestHooksNoOp:
    def test_all_hooks_are_safe_when_inactive(self):
        assert hooks.active() is None
        hooks.count("x")
        hooks.set_gauge("x", 1.0)
        hooks.on_chat_stage("assist", 0.0, True)
        hooks.on_coreset_refresh("v0", 10)
        hooks.on_coreset_merge()
        hooks.on_record_tick(0.0, 4)
        hooks.on_run_finished(finished_trainer())

    def test_session_context_restores_previous(self):
        outer = TelemetrySession("outer")
        with outer:
            assert hooks.active() is outer
            with TelemetrySession("inner") as inner:
                assert hooks.active() is inner
            assert hooks.active() is outer
        assert hooks.active() is None

    def test_generic_instruments_route_to_session(self):
        with TelemetrySession() as session:
            hooks.count("c", 2.0)
            hooks.set_gauge("g", 7.0)
        snap = session.registry.snapshot()
        assert snap["counters"]["c"] == 2.0
        assert snap["gauges"]["g"] == 7.0


class TestExportRoundTrip:
    def _toy_session(self) -> TelemetrySession:
        session = TelemetrySession(label="toy")
        session.tracer.start_span("chat", 0.0, i="v0", j="v1")
        session.tracer.event("transfer", 0.5, bytes=np.float64(10.0))
        session.tracer.end_span(1.0, status="aborted", aborted="coresets")
        session.registry.counter("chat.aborted.coresets").inc()
        session.registry.histogram("chat.psi").observe(0.3)
        return session

    def test_jsonl_round_trip(self, tmp_path):
        session = self._toy_session()
        path = export_jsonl(session, tmp_path / "trace.jsonl")
        trace = load_jsonl(path)
        assert trace.meta["label"] == "toy"
        assert trace.span_counts() == session.tracer.span_counts()
        assert len(trace.events) == len(session.tracer.events)
        assert trace.metrics == session.registry.snapshot()
        assert trace.spans[0]["status"] == "aborted"
        assert trace.spans[0]["attrs"]["i"] == "v0"

    def test_profile_record_of_an_older_trace_is_skipped(self, tmp_path):
        """Traces exported while sessions still carried a wall-clock
        profiler end in a ``profile`` record; they must keep loading."""
        session = self._toy_session()
        path = export_jsonl(session, tmp_path / "old.jsonl")
        with path.open("a") as fh:
            fh.write('{"kind": "profile", "data": {"build": {"count": 1, "total_s": 0.5, "mean_s": 0.5}}}\n')
        trace = load_jsonl(path)
        assert trace.metrics == session.registry.snapshot()
        assert trace.span_counts() == session.tracer.span_counts()
        assert "wall-clock" not in report_trace(trace)

    def test_metrics_csv(self, tmp_path):
        session = self._toy_session()
        path = export_metrics_csv(session.registry, tmp_path / "metrics.csv")
        text = path.read_text()
        assert "chat.aborted.coresets" in text and "chat.psi" in text


class TestReport:
    def test_report_mentions_key_quantities(self):
        metrics = {
            "counters": {
                "trainer.chats": 10.0,
                "trainer.frames_absorbed": 12.0,
                "trainer.train_steps": 90.0,
                "chat.aborted.assist": 2.0,
                "chat.aborted.coresets": 1.0,
                "model_rx.attempted": 8.0,
                "model_rx.completed": 6.0,
                "transfer.count": 40.0,
                "transfer.failed": 3.0,
                "transfer.bytes_requested": 2e6,
                "transfer.bytes_delivered": 1.5e6,
            },
            "histograms": {
                "chat.psi": {
                    "count": 14, "sum": 4.2, "min": 0.0, "max": 1.0,
                    "mean": 0.3, "p50": 0.25, "p90": 0.8,
                }
            },
        }
        text = render_report(metrics, span_counts={"chat": 10}, label="LbChat")
        assert "chats: 10" in text
        assert "assist=2" in text and "coresets=1" in text
        assert "receive rate 75.0%" in text
        assert "psi distribution" in text
        assert "chat=10" in text
        assert "train_steps: 90" in text
        # Each quantity once: chats and absorbed frames are not repeated
        # among the trainer counters.
        assert text.count(": 10") == 1 and text.count(": 12") == 1

    def test_rate_of_merged_runs_is_read_off_the_pooled_counts(self):
        """Two runs' registries merged (several specs, or ``jobs > 1``):
        the rate is of the pooled counts, not the last run's."""
        merged = MetricRegistry()
        for attempted, completed in ((2, 1), (4, 3)):
            with TelemetrySession() as session:
                hooks.on_run_finished(finished_trainer(attempted=attempted, completed=completed))
            merged.merge_state(session.registry.state())
        text = render_report(merged.snapshot())
        assert "model receptions: 4/6 completed (receive rate 66.7%)" in text

    def test_empty_report(self):
        assert "no telemetry" in render_report({})


class TestTracedFleetRun:
    """End-to-end: trace a tiny fleet, export, reload, cross-check."""

    @pytest.fixture()
    def traced_run(self, fleet_datasets, traces):
        nodes = make_fleet(fleet_datasets, coreset_size=10, seed=3)
        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
        )
        trainer = LbChatTrainer(
            nodes,
            traces,
            validation,
            LbChatConfig(
                duration=120.0, train_interval=2.0, record_interval=30.0,
                wireless_loss=False, seed=1,
            ),
        )
        with TelemetrySession(label="test fleet") as session:
            trainer.run()
        return trainer, session

    def test_chat_spans_match_chat_log(self, traced_run):
        trainer, session = traced_run
        counts = session.tracer.span_counts()
        assert counts.get("trainer_run") == 1
        assert counts.get("chat", 0) == len(trainer.chat_log)
        assert len(trainer.chat_log) > 0
        aborted_spans = [
            s for s in session.tracer.find_spans("chat") if s.status == "aborted"
        ]
        assert len(aborted_spans) == sum(
            1 for r in trainer.chat_log.records if r.aborted
        )

    def test_registry_matches_trainer_recorders(self, traced_run):
        """The recorders are the one ledger: the registry holds them as
        they are and counts none of it a second time."""
        trainer, session = traced_run
        counters = session.registry.snapshot()["counters"]
        ledger = {
            **{f"trainer.{name}": value for name, value in trainer.counters.as_dict().items()},
            "model_rx.attempted": trainer.receive_rate.attempted,
            "model_rx.completed": trainer.receive_rate.completed,
        }
        assert {name: counters[name] for name in ledger} == ledger
        assert not {"chat.count", "chat.completed", "chat.frames_absorbed"} & set(counters)
        assert counters["coreset.merges"] > 0

    def test_export_reload_report(self, traced_run, tmp_path):
        trainer, session = traced_run
        path = export_jsonl(session, tmp_path / "fleet.jsonl")
        trace = load_jsonl(path)
        assert trace.span_counts().get("chat", 0) == len(trainer.chat_log)
        text = report_trace(trace)
        assert "receive rate" in text
        assert f"chats: {len(trainer.chat_log)}" in text
        assert report_session(session).splitlines()[1:] == text.splitlines()[1:]

    def test_transfers_nest_under_chats(self, traced_run):
        trainer, session = traced_run
        chat_ids = {s.span_id for s in session.tracer.find_spans("chat")}
        transfer_events = [
            e for e in session.tracer.events if e.name == "transfer"
        ]
        assert transfer_events
        assert all(e.span_id in chat_ids for e in transfer_events)

    def test_untraced_run_records_nothing(self, fleet_datasets, traces):
        nodes = make_fleet(fleet_datasets, coreset_size=10, seed=3)
        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
        )
        trainer = LbChatTrainer(
            nodes, traces, validation,
            LbChatConfig(duration=60.0, train_interval=2.0, wireless_loss=False, seed=1),
        )
        assert hooks.active() is None
        trainer.run()  # must not raise and must not create a session
        assert hooks.active() is None


class TestExchangeSpans:
    """DP and DFL-DDS swap models through one fixed-ratio exchange
    (``TrainerBase.exchange_models``), which opens one span per swap."""

    @pytest.mark.parametrize(
        "trainer_class, counter", [(DpTrainer, "gossips"), (DflDdsTrainer, "exchanges")]
    )
    def test_one_exchange_span_per_swap(self, fleet_datasets, traces, trainer_class, counter):
        nodes = make_fleet(fleet_datasets, coreset_size=10, seed=3)
        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
        )
        config = trainer_class.config_class(
            duration=120.0, train_interval=2.0, record_interval=30.0, seed=1
        )
        trainer = trainer_class(nodes, traces, validation, config)
        with TelemetrySession(label=trainer.name) as session:
            trainer.run()
        spans = session.tracer.find_spans("exchange")
        assert len(spans) == trainer.counters.get(counter) > 0
        received = sum(span.attrs["received"] for span in spans)
        assert received == trainer.receive_rate.completed > 0
