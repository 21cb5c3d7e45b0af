"""Hierarchical spans over the ``Timings`` taxonomy + Chrome trace export.

A span is one timed region of a run or sweep with identity and
ancestry: ``span_id`` / ``parent_id`` / ``trace_id``, a ``kind`` from
the fixed hierarchy ``sweep → point → trial → stage``, wall-clock
``start_ts`` / ``end_ts``, the recording process's ``pid``, and free-form
``attrs``.  Spans are pure observability — recording them never changes
what an engine computes, and with no :class:`SpanRecorder` handed in
(the default everywhere) no span code runs at all.

Spans deliberately *ride on* the existing stage-timing taxonomy
(:mod:`repro.obs.timings`) instead of re-instrumenting the engines:
drivers snapshot the ``Timings`` accumulator around a run and synthesize
one child ``stage`` span per ``engine.*`` stage from the delta
(:meth:`SpanRecorder.emit_stage_spans`).  Stage spans are therefore
**synthetic**: they start at their parent's start and last the stage's
accumulated seconds, and they carry ``synthetic: true`` so consumers
never mistake them for measured intervals.  Lifecycle spans (sweep,
point, trial) are measured directly.

Finished spans are emitted through the recorder's ``sink`` as one
``{"event": "span", ...}`` dict — the runlog vocabulary's span event —
so they stream to the parent as telemetry (:mod:`repro.obs.telemetry`) and
land in JSONL run logs as they happen.  :func:`write_trace` /
:func:`export_trace_events` turn those events into Chrome trace-event
JSON that Perfetto and ``chrome://tracing`` load, and
:func:`parse_trace_events` is the minimal round-trip checker mirroring
``parse_callgrind``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

from .timings import Timings

__all__ = [
    "SPAN_KINDS",
    "Span",
    "SpanRecorder",
    "TraceFormatError",
    "export_trace_events",
    "new_span_id",
    "parse_trace_events",
    "span_events",
    "write_trace",
]

#: The fixed span hierarchy, outermost first.
SPAN_KINDS = ("sweep", "point", "trial", "stage")


def new_span_id() -> str:
    """Fresh 16-hex-digit span id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One open or finished span (mutable while open)."""

    __slots__ = (
        "span_id", "parent_id", "trace_id", "name", "kind",
        "start_ts", "end_ts", "pid", "attrs",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        span_id: str,
        parent_id: str | None,
        trace_id: str,
        start_ts: float,
        pid: int,
        attrs: dict | None = None,
    ) -> None:
        if kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {kind!r}; expected one of {SPAN_KINDS}")
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_ts = start_ts
        self.end_ts: float | None = None
        self.pid = pid
        self.attrs = dict(attrs or {})

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end_ts - self.start_ts) if self.end_ts is not None else 0.0

    def to_event(self) -> dict:
        """The runlog/telemetry wire form of a *finished* span."""
        event = {
            "event": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "kind": self.kind,
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "pid": self.pid,
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.4f}s" if self.end_ts is not None else "open"
        return f"Span({self.kind}:{self.name}, {state})"


#: Sentinel distinguishing "nest under the current span" from an explicit
#: ``parent_id=None`` root request.
_CURRENT = object()


class SpanRecorder:
    """Builds a span tree and emits finished spans through a sink.

    Single-threaded by design (one recorder per process): open spans form
    a stack, and a new span nests under the innermost open one unless an
    explicit ``parent_id`` is given — which is how a worker-side point
    span attaches to the parent process's sweep span across the
    multiprocessing boundary (context propagation: the parent ships
    ``trace_id`` + its span id to the worker, the worker passes them
    here).

    Args:
        sink: ``callable(event_dict)`` receiving each finished span's
            :meth:`Span.to_event`; ``None`` keeps spans in memory only.
        clock: Wall-clock source (``time.time``); tests pin it.
        trace_id: Correlates every span of one invocation; generated when
            absent.
        id_factory: Span-id source; tests pin it for deterministic output.
    """

    def __init__(
        self,
        sink: Callable[[dict], object] | None = None,
        clock: Callable[[], float] = time.time,
        trace_id: str | None = None,
        id_factory: Callable[[], str] = new_span_id,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self.trace_id = trace_id or uuid.uuid4().hex[:12]
        self.id_factory = id_factory
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, kind: str, parent_id=_CURRENT, **attrs) -> Span:
        """Open a span (pushed on the nesting stack)."""
        if parent_id is _CURRENT:
            parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            kind=kind,
            span_id=self.id_factory(),
            parent_id=parent_id,
            trace_id=self.trace_id,
            start_ts=float(self.clock()),
            pid=os.getpid(),
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        """Close a span and emit its event; end times clamp monotone."""
        span.end_ts = max(float(self.clock()), span.start_ts)
        span.attrs.update(attrs)
        # Out-of-order ends are tolerated (remove, not pop) so an
        # exception path closing an outer span never corrupts the stack.
        if span in self._stack:
            self._stack.remove(span)
        if self.sink is not None:
            self.sink(span.to_event())
        return span

    @contextmanager
    def span(self, name: str, kind: str, **attrs) -> Iterator[Span]:
        """Context manager: one span around a block."""
        opened = self.start(name, kind, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    # ------------------------------------------------------------------
    # Riding on the Timings taxonomy

    @staticmethod
    def stage_snapshot(timings: Timings | None) -> dict[str, tuple[float, int]]:
        """Copy of a ``Timings`` accumulator for later delta-taking."""
        if timings is None:
            return {}
        return {
            stage: (entry[0], entry[1]) for stage, entry in timings.stages.items()
        }

    def emit_stage_spans(
        self,
        parent: Span,
        before: Mapping[str, tuple[float, int]],
        timings: Timings | None,
        prefix: str = "engine.",
    ) -> list[Span]:
        """Synthesize child ``stage`` spans from a ``Timings`` delta.

        One span per ``prefix``-matching stage whose accumulated seconds
        grew while ``parent`` was open: it starts at ``parent.start_ts``,
        lasts the stage's delta seconds, and carries the delta count plus
        ``synthetic: true`` (stages overlap by design — ``engine.coins``
        ⊂ ``engine.step`` — so these are duration lanes, not a timeline).
        """
        if timings is None:
            return []
        spans: list[Span] = []
        for stage, entry in sorted(timings.stages.items()):
            if not stage.startswith(prefix):
                continue
            prior_s, prior_c = before.get(stage, (0.0, 0))
            delta_s = entry[0] - prior_s
            delta_c = entry[1] - prior_c
            if delta_s <= 0.0 and delta_c <= 0:
                continue
            span = Span(
                name=stage,
                kind="stage",
                span_id=self.id_factory(),
                parent_id=parent.span_id,
                trace_id=self.trace_id,
                start_ts=parent.start_ts,
                pid=parent.pid,
                attrs={"count": delta_c, "synthetic": True},
            )
            span.end_ts = parent.start_ts + max(0.0, delta_s)
            spans.append(span)
            if self.sink is not None:
                self.sink(span.to_event())
        return spans

    @contextmanager
    def trial_span(
        self, name: str, timings: Timings | None, **attrs
    ) -> Iterator[Span]:
        """Driver helper: a ``trial`` span whose engine-stage children are
        synthesized from the ``Timings`` delta accumulated inside it."""
        before = self.stage_snapshot(timings)
        span = self.start(name, "trial", **attrs)
        try:
            yield span
        finally:
            self.emit_stage_spans(span, before, timings)
            self.end(span)


# ----------------------------------------------------------------------
# Chrome trace-event export


class TraceFormatError(ValueError):
    """An exported trace failed to parse or violated the event schema."""


def span_events(events: Sequence[Mapping]) -> list[dict]:
    """The ``span`` events of a parsed runlog/telemetry stream, in file order."""
    return [dict(e) for e in events if e.get("event") == "span"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceFormatError(message)


def export_trace_events(events: Sequence[Mapping]) -> dict:
    """Chrome trace-event JSON (dict form) from runlog ``span`` events.

    Layout: one trace *process* per recording OS process — the process
    owning a ``sweep`` span is named ``parent``, every other one
    ``worker-<pid>`` — with the measured lifecycle spans
    (sweep/point/trial) nested on thread 0 (``lifecycle``) and each
    synthetic ``engine.*`` stage on its own thread lane (stages overlap
    by design, so same-lane nesting would be wrong).  Timestamps are
    microseconds relative to the earliest span start, which is what the
    ``X`` (complete) event phase expects.
    """
    spans = span_events(events)
    _require(bool(spans), "no span events to export")
    for i, span in enumerate(spans):
        for key in ("span_id", "name", "kind", "start_ts", "end_ts", "pid"):
            _require(key in span, f"span event #{i} is missing {key!r}")
        _require(
            isinstance(span["start_ts"], (int, float))
            and isinstance(span["end_ts"], (int, float)),
            f"span event #{i} has non-numeric timestamps",
        )
        _require(
            span["end_ts"] >= span["start_ts"],
            f"span event #{i} ({span['name']!r}) ends before it starts",
        )
        _require(
            span["kind"] in SPAN_KINDS,
            f"span event #{i} has unknown kind {span['kind']!r}",
        )

    origin = min(float(s["start_ts"]) for s in spans)
    parent_pids = {s["pid"] for s in spans if s["kind"] == "sweep"}
    stage_tids: dict[str, int] = {}
    for span in spans:
        if span["kind"] == "stage" and span["name"] not in stage_tids:
            stage_tids[span["name"]] = len(stage_tids) + 1

    trace_events: list[dict] = []
    for pid in sorted({s["pid"] for s in spans}):
        name = "parent" if pid in parent_pids else f"worker-{pid}"
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
            "args": {"name": "lifecycle"},
        })
    for stage, tid in sorted(stage_tids.items(), key=lambda kv: kv[1]):
        for pid in sorted({s["pid"] for s in spans if s["name"] == stage}):
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": stage},
            })

    for span in spans:
        tid = stage_tids.get(span["name"], 0) if span["kind"] == "stage" else 0
        args = {
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
            "trace_id": span.get("trace_id"),
        }
        args.update(span.get("attrs") or {})
        trace_events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["kind"],
            "pid": span["pid"],
            "tid": tid,
            "ts": round((float(span["start_ts"]) - origin) * 1e6, 3),
            "dur": round(
                (float(span["end_ts"]) - float(span["start_ts"])) * 1e6, 3
            ),
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_trace(events: Sequence[Mapping], path: pathlib.Path | str) -> pathlib.Path:
    """Export span events to a trace file, self-checking the round trip.

    The written JSON is re-parsed through :func:`parse_trace_events`
    before this returns — an export that the checker rejects never lands
    on disk half-written (mirrors the callgrind writer's discipline).
    """
    document = export_trace_events(events)
    text = json.dumps(document, indent=1, sort_keys=True)
    parse_trace_events(text)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text + "\n", encoding="utf-8")
    return target


def parse_trace_events(text: str) -> list[dict]:
    """Parse + schema-check Chrome trace JSON; returns the span records.

    The checker the format tests round-trip every export through.  Each
    returned record carries ``name`` / ``kind`` / ``pid`` / ``tid`` /
    ``start_us`` / ``dur_us`` / ``span_id`` / ``parent_id``.  Raises
    :class:`TraceFormatError` on malformed JSON, a missing
    ``traceEvents`` list, an unknown phase, a negative duration, an
    unknown span kind, or a dangling ``parent_id``.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    _require(isinstance(document, dict), "trace document is not a JSON object")
    _require("traceEvents" in document, "trace document lacks 'traceEvents'")
    entries = document["traceEvents"]
    _require(isinstance(entries, list), "'traceEvents' is not a list")

    records: list[dict] = []
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"trace event #{i} is not an object")
        phase = entry.get("ph")
        _require(phase in ("M", "X"), f"trace event #{i} has unknown phase {phase!r}")
        if phase == "M":
            _require(
                entry.get("name") in ("process_name", "thread_name"),
                f"metadata event #{i} has unknown name {entry.get('name')!r}",
            )
            _require(
                isinstance(entry.get("args", {}).get("name"), str),
                f"metadata event #{i} lacks args.name",
            )
            continue
        for key in ("name", "cat", "pid", "tid", "ts", "dur", "args"):
            _require(key in entry, f"trace event #{i} is missing {key!r}")
        _require(
            isinstance(entry["ts"], (int, float)) and entry["ts"] >= 0,
            f"trace event #{i} has bad ts {entry['ts']!r}",
        )
        _require(
            isinstance(entry["dur"], (int, float)) and entry["dur"] >= 0,
            f"trace event #{i} has bad dur {entry['dur']!r}",
        )
        _require(
            entry["cat"] in SPAN_KINDS,
            f"trace event #{i} has unknown span kind {entry['cat']!r}",
        )
        _require(
            isinstance(entry["args"].get("span_id"), str),
            f"trace event #{i} lacks args.span_id",
        )
        records.append({
            "name": entry["name"],
            "kind": entry["cat"],
            "pid": entry["pid"],
            "tid": entry["tid"],
            "start_us": float(entry["ts"]),
            "dur_us": float(entry["dur"]),
            "span_id": entry["args"]["span_id"],
            "parent_id": entry["args"].get("parent_id"),
        })

    known = {record["span_id"] for record in records}
    for record in records:
        parent = record["parent_id"]
        _require(
            parent is None or parent in known,
            f"span {record['span_id']} references unknown parent {parent!r}",
        )
    return records
