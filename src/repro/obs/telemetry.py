"""Live telemetry: streaming span/progress events out of sweep points.

The sweep pool's workers report *outcomes* on their pipes; telemetry
adds *progress* — span and lifecycle events flow from a point to the
parent while the point is still executing, so consumers (``repro
top``, the runlog) observe a sweep as it happens instead of at
``on_point`` time.

Discipline (same as the metrics/timings layers): **zero overhead when
disabled** — everything here is reached only through optional handles
that default to ``None``.  A point emits through one callable,
:attr:`WorkerTelemetry.emit`.  In a pool worker it sends an
``("event", dict)`` message down the worker's own pipe, ahead of the
point's result; the pool parent hands each one to
:meth:`TelemetryHub.ingest`.  A pipe is FIFO and owned by one worker,
so delivery is exact and in order — every event of a point arrives
before its result — and a worker waits only if the parent stops
reading.  On the serial path the callable is the hub's ingest itself.

Wire format: plain JSON-safe dicts with an ``"event"`` kind key —
``span`` events from :mod:`repro.obs.spans` plus worker progress beats
(``point_running``).  The parent-side :class:`TelemetryHub` writes
events into the run log (the parent stays the only writer) and fans
them out to in-process subscribers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .spans import SpanRecorder, new_span_id

__all__ = ["SpanContext", "TelemetryHub", "WorkerTelemetry"]


@dataclass(frozen=True)
class SpanContext:
    """Cross-process span ancestry: ships with a worker so worker-side
    spans nest under the parent's sweep span."""

    trace_id: str
    parent_id: str | None = None


@dataclass(frozen=True)
class WorkerTelemetry:
    """What one point needs to report telemetry: an emit callable plus
    span ancestry.

    A pool worker builds it from its own pipe (``emit`` sends an
    ``("event", dict)`` message); serial execution passes the hub's
    :meth:`TelemetryHub.ingest`.  Points build their
    :class:`~repro.obs.spans.SpanRecorder` from it via :meth:`recorder`.
    """

    emit: Callable[[dict], None]
    context: SpanContext

    def recorder(self, clock=time.time) -> SpanRecorder:
        return SpanRecorder(
            sink=self.emit, clock=clock, trace_id=self.context.trace_id
        )


class TelemetryHub:
    """Parent-side façade: span recorder, runlog writes, fan-out.

    One hub observes one invocation (a sweep, typically).  It owns

    * :attr:`recorder` — the parent's own :class:`SpanRecorder` (sweep
      span, cache-hit accounting), whose finished spans flow through
      :meth:`ingest` like every worker event;
    * the optional :class:`~repro.obs.runlog.RunLogger` every ingested
      event is appended to — the parent remains the runlog's only
      writer, worker events reach it through the pool's pipes;
    * in-process subscribers (:meth:`subscribe`) — ``repro top``'s view,
      for one — each called with every event dict.

    Subscriber callbacks run on the parent's pool loop; they should be
    cheap and must not raise (an exception would abort the sweep loop).
    """

    def __init__(
        self,
        runlog=None,
        clock: Callable[[], float] = time.time,
        trace_id: str | None = None,
        id_factory: Callable[[], str] = new_span_id,
    ) -> None:
        self.runlog = runlog
        self.clock = clock
        self.recorder = SpanRecorder(
            sink=self.ingest, clock=clock, trace_id=trace_id,
            id_factory=id_factory,
        )
        self._subscribers: list[Callable[[dict], None]] = []

    def subscribe(self, callback: Callable[[dict], None]) -> None:
        self._subscribers.append(callback)

    def notify(self, event: dict) -> None:
        """Fan an event out to subscribers (no runlog write)."""
        for callback in self._subscribers:
            callback(event)

    def ingest(self, event: dict) -> None:
        """Record one telemetry event: append to the runlog, then fan out."""
        record = dict(event)
        if self.runlog is not None and "event" in record:
            fields = {k: v for k, v in record.items() if k != "event"}
            record = self.runlog.event(record["event"], **fields)
        self.notify(record)

    def span_context(self, parent_span=None) -> SpanContext:
        """Ancestry for point spans that nest under ``parent_span``."""
        return SpanContext(
            trace_id=self.recorder.trace_id,
            parent_id=parent_span.span_id if parent_span is not None else None,
        )
