"""Persist and reload telemetry as JSONL / CSV.

The JSONL layout is one self-describing record per line — ``kind`` is
``meta``, ``span``, ``event``, or ``metrics`` — so a trace streams to
disk, greps cleanly, and round-trips without a schema file.  Records of
any other kind are skipped on load (traces written before the wall-clock
profiler was removed end in a ``profile`` record).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LoadedTrace", "export_jsonl", "load_jsonl", "export_metrics_csv"]


def _json_default(value):
    # numpy scalars and similar: fall back to their Python value.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _dump(record: dict) -> str:
    return json.dumps(record, default=_json_default)


def export_jsonl(session, path: str | Path) -> Path:
    """Write a session's spans, events, and metrics to JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(_dump({"kind": "meta", "label": session.label}) + "\n")
        for span in session.tracer.spans:
            fh.write(
                _dump(
                    {
                        "kind": "span",
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "status": span.status,
                        "attrs": span.attrs,
                    }
                )
                + "\n"
            )
        for event in session.tracer.events:
            fh.write(
                _dump(
                    {
                        "kind": "event",
                        "name": event.name,
                        "time": event.time,
                        "span_id": event.span_id,
                        "attrs": event.attrs,
                    }
                )
                + "\n"
            )
        fh.write(_dump({"kind": "metrics", "data": session.registry.snapshot()}) + "\n")
    return path


@dataclass
class LoadedTrace:
    """A JSONL trace read back into memory."""

    meta: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def span_counts(self) -> dict[str, int]:
        """Span count per name (mirrors ``Tracer.span_counts``)."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0) + 1
        return out


def load_jsonl(path: str | Path) -> LoadedTrace:
    """Read a trace written by :func:`export_jsonl`."""
    trace = LoadedTrace()
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind", None)
            if kind == "meta":
                trace.meta = record
            elif kind == "span":
                trace.spans.append(record)
            elif kind == "event":
                trace.events.append(record)
            elif kind == "metrics":
                trace.metrics = record["data"]
    return trace


def export_metrics_csv(registry, path: str | Path) -> Path:
    """Write a registry snapshot as flat (metric, field, value) CSV rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snapshot = registry.snapshot()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "field", "value"])
        for name, value in snapshot["counters"].items():
            writer.writerow([name, "count", value])
        for name, value in snapshot["gauges"].items():
            writer.writerow([name, "value", value])
        for name, summary in snapshot["histograms"].items():
            for stat, value in summary.items():
                writer.writerow([name, stat, value])
    return path
