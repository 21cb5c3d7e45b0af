"""Live telemetry bus: streaming span/progress events out of workers.

The sweep pool's result queue reports *outcomes*; this module streams
*progress* — span and lifecycle events flow from fork-pool workers to
the parent while points are still executing, so consumers (``repro
top``, a future ``repro serve`` SSE endpoint, the runlog) observe a
sweep as it happens instead of at ``on_point`` time.

Discipline (same as the metrics/timings layers): **zero overhead when
disabled** — everything here is reached only through optional handles
that default to ``None`` — and **never block the hot path** when
enabled.  The bus is a bounded ``multiprocessing`` queue; worker-side
:class:`TelemetrySender.emit` uses ``put_nowait`` only, and when the
parent falls behind and the queue is full the event is *dropped and
counted*, never waited for.  Drop counts piggyback on the next
successful event (cumulative per sender), so the parent's tally is
exact up to a sender's trailing drops — a sender whose final events all
dropped undercounts by that tail, which is the price of never blocking.

Wire format: plain JSON-safe dicts with an ``"event"`` kind key —
``span`` events from :mod:`repro.obs.spans` plus worker progress beats
(``point_running``).  The parent-side :class:`TelemetryHub` drains the
bus, writes events into the run log (the parent stays the only writer),
and fans them out to in-process subscribers.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Callable

from .spans import SpanRecorder, new_span_id

__all__ = [
    "DEFAULT_CAPACITY",
    "LocalSender",
    "SpanContext",
    "TelemetryBus",
    "TelemetryHub",
    "TelemetrySender",
    "WorkerTelemetry",
]

#: Default bounded-queue capacity; a quick sweep emits well under this,
#: a saturated bus drops (and counts) rather than growing without bound.
DEFAULT_CAPACITY = 1024


class TelemetrySender:
    """Worker-side handle: non-blocking emit with drop counting.

    Created by :meth:`TelemetryBus.sender` in the parent and shipped to
    workers as a process argument.  :meth:`emit` never blocks: a full
    queue increments :attr:`dropped` and the event is gone.  The
    cumulative drop count rides on the next event that does fit, which
    is how the parent learns about drops without a side channel.
    """

    __slots__ = ("_queue", "dropped")

    def __init__(self, bus_queue) -> None:
        self._queue = bus_queue
        self.dropped = 0

    def emit(self, event: dict) -> bool:
        """Enqueue one event; returns ``False`` (and counts) when full."""
        record = dict(event)
        record.setdefault("pid", os.getpid())
        if self.dropped:
            record["dropped"] = self.dropped
        try:
            self._queue.put_nowait(record)
        except queue_module.Full:
            self.dropped += 1
            return False
        return True

    def close(self) -> None:
        """Flush and release this process's end of the bus: returns once
        the queue's feeder thread has written every emitted event, so a
        worker that calls it before exiting loses none of them."""
        self._queue.close()
        self._queue.join_thread()


class LocalSender:
    """In-process sender for serial execution: events go straight to the
    hub's ingest callback, nothing is queued and nothing can drop."""

    __slots__ = ("_ingest", "dropped")

    def __init__(self, ingest: Callable[[dict], None]) -> None:
        self._ingest = ingest
        self.dropped = 0

    def emit(self, event: dict) -> bool:
        record = dict(event)
        record.setdefault("pid", os.getpid())
        self._ingest(record)
        return True


class TelemetryBus:
    """Parent-created bounded channel from workers to the parent.

    Args:
        context: The ``multiprocessing`` context the worker pool uses
            (the queue must come from the same one); defaults to the
            platform default.
        capacity: Maximum queued-but-undrained events before senders
            start dropping.
    """

    def __init__(self, context=None, capacity: int = DEFAULT_CAPACITY) -> None:
        ctx = context if context is not None else multiprocessing.get_context()
        self.capacity = capacity
        self._queue = ctx.Queue(capacity)
        self.received = 0
        self._dropped_by_pid: dict[int | None, int] = {}

    def sender(self) -> TelemetrySender:
        """A sender for this bus (picklable into a worker process)."""
        return TelemetrySender(self._queue)

    def drain(self, limit: int = 10_000, timeout: float = 0.0) -> list[dict]:
        """Pop every queued event (up to ``limit``) without blocking.

        A positive ``timeout`` waits up to that long (total) for events
        still in flight through the queue's feeder thread — useful for a
        final drain; the steady-state polling drain should leave it 0.
        """
        events: list[dict] = []
        deadline = time.monotonic() + timeout if timeout > 0 else None
        while len(events) < limit:
            try:
                if deadline is None:
                    event = self._queue.get_nowait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        event = self._queue.get_nowait()
                    else:
                        event = self._queue.get(timeout=remaining)
            except queue_module.Empty:
                break
            except (EOFError, OSError):  # pragma: no cover - closing race
                break
            self.received += 1
            if isinstance(event, dict):
                dropped = event.pop("dropped", None)
                if dropped is not None:
                    # Per-sender cumulative count; queue order is FIFO per
                    # process, so the latest value supersedes earlier ones.
                    self._dropped_by_pid[event.get("pid")] = int(dropped)
                events.append(event)
        return events

    @property
    def dropped(self) -> int:
        """Events known to have been dropped by saturated senders."""
        return sum(self._dropped_by_pid.values())

    def close(self) -> None:
        self._queue.close()
        self._queue.cancel_join_thread()


@dataclass(frozen=True)
class SpanContext:
    """Cross-process span ancestry: ships with a worker task so
    worker-side spans nest under the parent's sweep span."""

    trace_id: str
    parent_id: str | None = None


@dataclass(frozen=True)
class WorkerTelemetry:
    """What one worker needs to report telemetry: a sender + ancestry.

    Picklable (the sender carries a ``multiprocessing`` queue, which
    survives being passed as a process argument).  Workers build their
    :class:`~repro.obs.spans.SpanRecorder` from it via :meth:`recorder`.
    """

    sender: TelemetrySender | LocalSender
    context: SpanContext

    def recorder(self, clock=time.time) -> SpanRecorder:
        return SpanRecorder(
            sink=self.sender.emit, clock=clock, trace_id=self.context.trace_id
        )


class TelemetryHub:
    """Parent-side façade: span recorder, bus, runlog writes, fan-out.

    One hub observes one invocation (a sweep, typically).  It owns

    * :attr:`recorder` — the parent's own :class:`SpanRecorder` (sweep
      span, cache-hit accounting), whose finished spans flow through
      :meth:`ingest` like every bus event;
    * the bounded :class:`TelemetryBus` (created lazily by
      :meth:`open_bus` with the pool's multiprocessing context);
    * the optional :class:`~repro.obs.runlog.RunLogger` every ingested
      event is appended to — the parent remains the runlog's only
      writer, worker events reach it through the bus;
    * in-process subscribers (:meth:`subscribe`) — ``repro top``'s view,
      a future SSE publisher — each called with every event dict.

    Subscriber callbacks run on the parent's drain path; they should be
    cheap and must not raise (an exception would abort the sweep loop).
    """

    def __init__(
        self,
        runlog=None,
        clock: Callable[[], float] = time.time,
        capacity: int = DEFAULT_CAPACITY,
        trace_id: str | None = None,
        id_factory: Callable[[], str] = new_span_id,
    ) -> None:
        self.runlog = runlog
        self.clock = clock
        self.capacity = capacity
        self.recorder = SpanRecorder(
            sink=self.ingest, clock=clock, trace_id=trace_id,
            id_factory=id_factory,
        )
        self._subscribers: list[Callable[[dict], None]] = []
        self._bus: TelemetryBus | None = None

    # -- fan-out -------------------------------------------------------

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

    # -- the bus -------------------------------------------------------

    def open_bus(self, context=None) -> TelemetryBus:
        """The hub's bus, created on first call (with the pool's context)."""
        if self._bus is None:
            self._bus = TelemetryBus(context=context, capacity=self.capacity)
        return self._bus

    def worker_telemetry(self, parent_span=None) -> WorkerTelemetry:
        """Telemetry bundle for a pooled worker (requires an open bus)."""
        if self._bus is None:
            raise RuntimeError("open_bus() must be called before worker_telemetry()")
        return WorkerTelemetry(self._bus.sender(), self.span_context(parent_span))

    def local_telemetry(self, parent_span=None) -> WorkerTelemetry:
        """Telemetry bundle for in-process (serial) execution."""
        return WorkerTelemetry(LocalSender(self.ingest), self.span_context(parent_span))

    def span_context(self, parent_span=None) -> SpanContext:
        return SpanContext(
            trace_id=self.recorder.trace_id,
            parent_id=parent_span.span_id if parent_span is not None else None,
        )

    def drain(self, timeout: float = 0.0) -> int:
        """Ingest everything currently queued; returns the event count."""
        if self._bus is None:
            return 0
        events = self._bus.drain(timeout=timeout)
        for event in events:
            self.ingest(event)
        return len(events)

    @property
    def dropped(self) -> int:
        """Bus events dropped by saturated senders (0 with no bus)."""
        return self._bus.dropped if self._bus is not None else 0

    def close(self) -> None:
        """Final drain, then release the bus queue."""
        self.drain()
        if self._bus is not None:
            self._bus.close()
            self._bus = None
