"""Observability: metrics, timings, run logs, spans, and live telemetry.

The subsystem is opt-in end to end — engines, drivers, and the sweep
runner accept ``metrics=`` / ``timings=`` / ``runlog=`` / ``spans=`` /
``telemetry=`` handles that default to ``None``, and with them absent no
instrumentation code runs.  Building blocks:

* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms in a :class:`~repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.obs.timings` — ``perf_counter`` stage accumulation
  (:class:`~repro.obs.timings.Timings`), attached to
  :class:`~repro.sim.run.BroadcastResult` and sweep payloads;
* :mod:`repro.obs.runlog` — JSONL lifecycle event logs
  (:class:`~repro.obs.runlog.RunLogger`) plus the schema validator
  CI runs against them;
* :mod:`repro.obs.spans` — hierarchical ``sweep → point → trial →
  stage`` spans riding on the ``Timings`` taxonomy, with Chrome
  trace-event export (``repro trace export``);
* :mod:`repro.obs.telemetry` — span/progress events streamed from
  sweep workers to the parent over each worker's own pipe
  (:class:`~repro.obs.telemetry.TelemetryHub`), feeding ``repro top``
  (:mod:`repro.obs.top`) and the runlog as events happen.

``repro report <runlog>`` (see :mod:`repro.obs.report`) renders logs
back into tables; metric names and the event schema are documented in
``docs/OBSERVABILITY.md``.
"""

from .forensics import (
    ForensicsReport,
    PropagationDAG,
    SLOT_CLASSES,
    analyze,
    build_dag,
    classify_slot,
    forensic_span_events,
    record_forensics_metrics,
)
from .metrics import (
    COUNT_BUCKETS,
    Counter,
    FRACTION_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SLOT_BUCKETS,
)
from .runlog import (
    DEFAULT_RUNLOG_DIR,
    RunLogger,
    RunlogError,
    assert_valid_runlog,
    default_runlog_path,
    git_sha,
    new_run_id,
    read_runlog,
    validate_runlog,
)
from .spans import (
    SPAN_KINDS,
    Span,
    SpanRecorder,
    TraceFormatError,
    export_trace_events,
    new_span_id,
    parse_trace_events,
    span_events,
    write_trace,
)
from .telemetry import SpanContext, TelemetryHub, WorkerTelemetry
from .timings import Timings

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_RUNLOG_DIR",
    "FRACTION_BUCKETS",
    "ForensicsReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PropagationDAG",
    "RunLogger",
    "RunlogError",
    "SLOT_BUCKETS",
    "SLOT_CLASSES",
    "SPAN_KINDS",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "TelemetryHub",
    "Timings",
    "TraceFormatError",
    "WorkerTelemetry",
    "analyze",
    "assert_valid_runlog",
    "build_dag",
    "classify_slot",
    "default_runlog_path",
    "export_trace_events",
    "forensic_span_events",
    "git_sha",
    "new_run_id",
    "new_span_id",
    "parse_trace_events",
    "read_runlog",
    "record_forensics_metrics",
    "span_events",
    "validate_runlog",
    "write_trace",
]
