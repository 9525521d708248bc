"""Structured tracing over the simulator's virtual clock.

A :class:`Tracer` records **spans** (named intervals with attributes —
one chat, one trainer run) and **events** (named points — one transfer
chunk completing, one coreset refresh).  Timestamps are *virtual*
simulation seconds supplied by the caller, so traces are deterministic
and independent of host speed; wall-clock time per layer is measured
from outside by ``benchmarks/perf/run.py --trace 1`` instead.

Spans nest: :meth:`Tracer.start_span` pushes onto an open-span stack and
:meth:`Tracer.end_span` pops, so a transfer event emitted inside a chat
is attached to that chat's span.  The simulation engine runs chats
synchronously (a ``pairwise_chat`` call never yields mid-flight), so a
plain stack is sufficient — there is no cross-process interleaving
within a span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SpanRecord", "EventRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One named interval in virtual time."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    status: str = "open"  # "open" until ended, then "ok"/"aborted"/...
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class EventRecord:
    """One named instant, attached to the enclosing span (if any)."""

    name: str
    time: float
    span_id: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Append-only span/event store with an open-span stack."""

    def __init__(self):
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self._stack: list[SpanRecord] = []
        self._next_id = 1

    # -- spans ------------------------------------------------------------

    def start_span(self, name: str, time: float, **attrs) -> SpanRecord:
        """Open a span at virtual ``time``; it becomes the current span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = SpanRecord(
            span_id=self._next_id, parent_id=parent, name=name, start=time, attrs=attrs
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, time: float, status: str = "ok", **attrs) -> SpanRecord:
        """Close the current span, stamping its end time and status."""
        if not self._stack:
            raise RuntimeError("end_span with no open span")
        span = self._stack.pop()
        span.end = time
        span.status = status
        span.attrs.update(attrs)
        return span

    @property
    def current_span(self) -> SpanRecord | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    # -- events ------------------------------------------------------------

    def event(self, name: str, time: float, **attrs) -> EventRecord:
        """Record a point event under the current span (if any)."""
        current = self._stack[-1].span_id if self._stack else None
        record = EventRecord(name=name, time=time, span_id=current, attrs=attrs)
        self.events.append(record)
        return record

    # -- queries ------------------------------------------------------------

    def find_spans(self, name: str) -> list[SpanRecord]:
        """All spans with the given name, in start order."""
        return [s for s in self.spans if s.name == name]

    def span_counts(self) -> dict[str, int]:
        """Span count per name."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def event_counts(self) -> dict[str, int]:
        """Event count per name."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.name] = out.get(event.name, 0) + 1
        return out
