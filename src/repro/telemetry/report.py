"""Human-readable per-run telemetry summaries.

Renders what an experimenter asks right after a run: how many chats ran,
where the aborted ones died, how many bytes actually moved, what the
Eq. 7 psi distribution looked like, and the model receive rate — the
quantities behind the paper's Tables 2–7.  Works from a live session
or from a JSONL trace reloaded with :func:`repro.telemetry.export.load_jsonl`.
"""

from __future__ import annotations

__all__ = ["render_report", "report_session", "report_trace"]


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.1f} GB"


def render_report(
    metrics: dict,
    span_counts: dict | None = None,
    label: str = "run",
) -> str:
    """Render a metrics snapshot (plus optional span counts) as text."""
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    lines = [f"=== telemetry report: {label} ==="]
    shown = {"trainer.chats", "trainer.frames_absorbed"}  # not repeated below

    chats = counters.get("trainer.chats", 0)
    if chats:
        lines.append(f"chats: {chats:.0f} total")
        aborts = {
            name.split("chat.aborted.", 1)[1]: value
            for name, value in sorted(counters.items())
            if name.startswith("chat.aborted.")
        }
        if aborts:
            stages = ", ".join(f"{stage}={value:.0f}" for stage, value in aborts.items())
            lines.append(f"  aborted by stage: {stages}")
        absorbed = counters.get("trainer.frames_absorbed", 0)
        if absorbed:
            lines.append(f"  coreset frames absorbed: {absorbed:.0f}")

    attempted = counters.get("model_rx.attempted", 0)
    if attempted:
        completed = counters.get("model_rx.completed", 0)
        lines.append(
            f"model receptions: {completed:.0f}/{attempted:.0f} "
            f"completed (receive rate {100 * completed / attempted:.1f}%)"
        )

    transfers = counters.get("transfer.count", 0)
    if transfers:
        delivered = counters.get("transfer.bytes_delivered", 0.0)
        requested = counters.get("transfer.bytes_requested", 0.0)
        failed = counters.get("transfer.failed", 0)
        lines.append(
            f"transfers: {transfers:.0f} ({failed:.0f} cut short), "
            f"{_fmt_bytes(delivered)} delivered of {_fmt_bytes(requested)} requested"
        )

    psi = histograms.get("chat.psi", {})
    if psi.get("count"):
        lines.append(
            f"psi distribution (n={psi['count']}): mean {psi['mean']:.3f}, "
            f"p50 {psi['p50']:.3f}, p90 {psi['p90']:.3f}, max {psi['max']:.3f}"
        )

    refreshes = counters.get("coreset.refreshes", 0)
    merges = counters.get("coreset.merges", 0)
    if refreshes or merges:
        lines.append(f"coresets: {refreshes:.0f} rebuilds, {merges:.0f} merge-reduces")

    extra_counters = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("trainer.") and name not in shown
    }
    if extra_counters:
        lines.append("trainer counters:")
        for name, value in extra_counters.items():
            lines.append(f"  {name.split('trainer.', 1)[1]}: {value:g}")

    if span_counts:
        spans = ", ".join(f"{name}={count}" for name, count in sorted(span_counts.items()))
        lines.append(f"spans: {spans}")

    if len(lines) == 1:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)


def report_session(session) -> str:
    """Render a live :class:`~repro.telemetry.hooks.TelemetrySession`."""
    return render_report(
        session.registry.snapshot(),
        span_counts=session.tracer.span_counts(),
        label=session.label,
    )


def report_trace(trace) -> str:
    """Render a reloaded :class:`~repro.telemetry.export.LoadedTrace`."""
    return render_report(
        trace.metrics,
        span_counts=trace.span_counts(),
        label=trace.meta.get("label", "trace"),
    )
