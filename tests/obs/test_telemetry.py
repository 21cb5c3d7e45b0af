"""Telemetry: worker and serial emit, hub fan-out, context propagation."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.obs.runlog import RunLogger, read_runlog, validate_runlog
from repro.obs.telemetry import SpanContext, TelemetryHub, WorkerTelemetry
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.runner import _pool_worker


def _worker_messages(span_context):
    """Run one point through a forked pool worker and return every
    message it sent on its pipe, up to and including the outcome."""
    spec = SweepSpec(
        name="pipe", topology="path", algorithm="round-robin",
        topology_grid={"n": [4]}, trials=1,
    )
    (point,) = spec.points()
    context = multiprocessing.get_context("fork")
    conn, child_end = context.Pipe()
    worker = context.Process(
        target=_pool_worker,
        args=(child_end, conn, False, None, span_context),
        daemon=True,
    )
    worker.start()
    child_end.close()
    try:
        conn.send((0, point.canonical()))
        messages = []
        while not messages or messages[-1][0] == "event":
            assert conn.poll(30.0), "worker sent nothing within 30 s"
            messages.append(conn.recv())
        conn.send(None)
    finally:
        worker.join(timeout=5.0)
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=5.0)
        conn.close()
    return worker.pid, messages


class TestWorkerTelemetry:
    def test_recorder_nests_under_context(self):
        seen = []
        telemetry = WorkerTelemetry(
            emit=seen.append,
            context=SpanContext(trace_id="t0", parent_id="sweep-span"),
        )
        recorder = telemetry.recorder()
        span = recorder.start("p0", "point", parent_id=telemetry.context.parent_id)
        recorder.end(span)
        assert span.trace_id == "t0"
        assert seen[0]["parent_id"] == "sweep-span"

    def test_context_is_picklable(self):
        import pickle

        context = SpanContext(trace_id="t0", parent_id="sweep-span")
        assert pickle.loads(pickle.dumps(context)) == context


class TestBus:
    """The worker's own pipe is the telemetry transport."""

    def test_events_flow_through(self):
        pid, messages = _worker_messages(SpanContext(trace_id="t0"))
        tags = [m[0] for m in messages]
        # Every event of the point precedes its outcome, in emit order.
        assert tags == ["event"] * (len(tags) - 1) + ["done"]
        events = [m[1] for m in messages[:-1]]
        # The progress beat opens the stream; the point span, which ends
        # last, closes it, after the spans nested inside it.
        assert events[0]["event"] == "point_running"
        assert events[0]["index"] == 0
        assert all(e["event"] == "span" for e in events[1:])
        assert events[-1]["kind"] == "point"
        # The worker stamps its pid so the parent can attribute events.
        assert {e["pid"] for e in events} == {pid}
        assert {e["trace_id"] for e in events[1:]} == {"t0"}


class TestHub:
    def test_ingest_writes_runlog_and_notifies(self, tmp_path):
        path = tmp_path / "run.jsonl"
        seen = []
        with RunLogger(path) as runlog:
            hub = TelemetryHub(runlog=runlog)
            hub.subscribe(seen.append)
            with hub.recorder.span("quick", "sweep"):
                pass
            hub.notify({"event": "sweep_completed", "points": 0})
        events = read_runlog(path)
        # The span landed in the runlog via ingest; notify() alone doesn't write.
        assert [e["event"] for e in events] == ["span"]
        assert [e["event"] for e in seen] == ["span", "sweep_completed"]
        assert validate_runlog(events) == []

    def test_bus_round_trip_through_hub(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe(seen.append)
        sweep = hub.recorder.start("s", "sweep")
        context = hub.span_context(sweep)
        assert context.parent_id == sweep.span_id
        _, messages = _worker_messages(context)
        for tag, *body in messages:
            if tag == "event":
                hub.ingest(body[0])
        kinds = [e["event"] for e in seen]
        assert kinds == ["point_running"] + ["span"] * (len(seen) - 1)
        (point,) = [e for e in seen[1:] if e["kind"] == "point"]
        assert point["parent_id"] == sweep.span_id
        assert {e["trace_id"] for e in seen[1:]} == {hub.recorder.trace_id}

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_point_events_precede_their_result(self, workers):
        """Serial points emit straight into the hub, pooled points down
        their worker's pipe; either way each point's ``point_running``
        and ``point`` span reach the hub, nested under the sweep span,
        before its ``point_completed``."""
        hub = TelemetryHub()
        seen = []
        hub.subscribe(seen.append)
        spec = SweepSpec(
            name="emit", topology="path", algorithm="round-robin",
            topology_grid={"n": [4, 5, 6]}, trials=1,
        )
        run_sweep(spec, workers=workers, telemetry=hub)
        (sweep,) = [
            e for e in seen if e["event"] == "span" and e["kind"] == "sweep"
        ]
        for index in range(3):
            mine = [
                e for e in seen
                if e.get("index") == index
                or e.get("attrs", {}).get("index") == index
            ]
            kinds = [
                e["kind"] if e["event"] == "span" else e["event"] for e in mine
            ]
            assert kinds == [
                "point_spawned", "point_running", "point", "point_completed"
            ]
            running, point = mine[1], mine[2]
            assert point["parent_id"] == sweep["span_id"]
            assert (running["pid"] == os.getpid()) == (workers == 1)
            assert running["pid"] == point["pid"]
