"""Observability for reproduction runs (opt-in, no-op by default).

The layer has two legs, one per question an experimenter asks:

* **tracer** — *what happened when* (virtual-time spans/events: chats,
  their protocol stages, transfers, trainer runs);
* **registry** — *how much* (named counters, gauges, histograms).  What
  a trainer counts itself lives in its :mod:`repro.engine.metrics`
  recorders only; each run's are added in once, when the run ends, as
  ``trainer.*`` and ``model_rx.*``.

*How fast on the host* is measured from outside, by the tracer of
``benchmarks/perf`` (``run.py --trace 1``).

Hot paths call into :mod:`repro.telemetry.hooks`, which no-ops unless a
:class:`TelemetrySession` is active::

    from repro.telemetry import TelemetrySession, report_session

    with TelemetrySession(label="LbChat ci") as session:
        trainer.run()
    export_jsonl(session, "trace.jsonl")
    print(report_session(session))

``repro trace`` wraps exactly this around any method run.
"""

from repro.telemetry.export import (
    LoadedTrace,
    export_jsonl,
    export_metrics_csv,
    load_jsonl,
)
from repro.telemetry.hooks import TelemetrySession, activate, active, deactivate
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.telemetry.report import render_report, report_session, report_trace
from repro.telemetry.tracer import EventRecord, SpanRecord, Tracer

__all__ = [
    "TelemetrySession",
    "activate",
    "active",
    "deactivate",
    "Tracer",
    "SpanRecord",
    "EventRecord",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "export_jsonl",
    "export_metrics_csv",
    "load_jsonl",
    "LoadedTrace",
    "render_report",
    "report_session",
    "report_trace",
]
