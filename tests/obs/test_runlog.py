"""JSONL run-log writer and schema validator."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.obs.runlog import (
    RunLogger,
    RunlogError,
    assert_valid_runlog,
    default_runlog_path,
    new_run_id,
    read_runlog,
    validate_runlog,
)


def test_logger_writes_envelope_per_event(tmp_path):
    path = tmp_path / "log.jsonl"
    with RunLogger(path, run_id="abc123") as log:
        record = log.event("run_started", seed=7)
        log.event("run_completed", time=41)
    assert record["run_id"] == "abc123"
    events = read_runlog(path)
    assert [e["event"] for e in events] == ["run_started", "run_completed"]
    for event in events:
        assert set(event) >= {"ts", "event", "run_id", "git_sha"}
    assert events[0]["seed"] == 7
    assert events[1]["time"] == 41


def test_logger_clamps_backwards_clock(tmp_path):
    ticks = iter([100.0, 50.0, 200.0])
    with RunLogger(tmp_path / "log.jsonl", clock=lambda: next(ticks)) as log:
        first = log.event("a")
        second = log.event("b")
        third = log.event("c")
    # The wall clock stepped back; the log must stay monotone.
    assert first["ts"] == 100.0
    assert second["ts"] == 100.0
    assert third["ts"] == 200.0


def test_append_mode_keeps_prior_runs(tmp_path):
    path = tmp_path / "shared.jsonl"
    with RunLogger(path, run_id="one") as log:
        log.event("run_started")
    with RunLogger(path, run_id="two") as log:
        log.event("run_started")
    events = read_runlog(path)
    assert [e["run_id"] for e in events] == ["one", "two"]
    assert validate_runlog(events) == []


def test_read_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ts": 1}\nnot json\n')
    with pytest.raises(RunlogError, match="line|JSON|2"):
        read_runlog(path)


def test_read_rejects_non_object_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(RunlogError, match="not a JSON object"):
        read_runlog(path)


def _event(kind, ts, run="r", **fields):
    return {"ts": ts, "event": kind, "run_id": run, "git_sha": "deadbee", **fields}


class TestValidation:
    def test_clean_sweep_lifecycle_passes(self):
        events = [
            _event("sweep_started", 1.0, points=2),
            _event("point_cache_hit", 1.1, index=0),
            _event("point_spawned", 1.2, index=1),
            _event("point_completed", 2.0, index=1),
            _event("sweep_completed", 2.1),
        ]
        assert validate_runlog(events) == []

    def test_missing_envelope_field_reported(self):
        events = [{"ts": 1.0, "event": "run_started", "run_id": "r"}]
        errors = validate_runlog(events)
        assert len(errors) == 1 and "git_sha" in errors[0]

    def test_backwards_timestamp_reported_per_run(self):
        events = [_event("a", 2.0), _event("b", 1.0)]
        assert any("backwards" in e for e in validate_runlog(events))
        # Interleaved runs each keep their own clock.
        interleaved = [_event("a", 2.0, run="x"), _event("a", 1.0, run="y"),
                       _event("b", 3.0, run="x"), _event("b", 1.5, run="y")]
        assert validate_runlog(interleaved) == []

    def test_orphan_point_event_reported(self):
        events = [_event("point_completed", 1.0, index=3)]
        errors = validate_runlog(events)
        assert any("orphan" in e for e in errors)

    def test_spawned_point_must_terminate(self):
        events = [_event("point_spawned", 1.0, index=0)]
        errors = validate_runlog(events)
        assert any("never reached" in e for e in errors)

    def test_retry_then_failure_is_terminal(self):
        events = [
            _event("point_spawned", 1.0, index=0),
            _event("point_timed_out", 2.0, index=0),
            _event("point_retried", 2.1, index=0),
            _event("point_spawned", 2.2, index=0),
            _event("point_failed", 3.0, index=0),
        ]
        assert validate_runlog(events) == []


class TestTelemetryValidation:
    def _span(self, ts, **overrides):
        span = {
            "ts": ts, "event": "span", "run_id": "r", "git_sha": "deadbee",
            "span_id": "s0", "parent_id": None, "trace_id": "t",
            "name": "quick", "kind": "sweep", "start_ts": ts - 1.0,
            "end_ts": ts, "pid": 1,
        }
        span.update(overrides)
        return span

    def test_well_formed_telemetry_events_pass(self):
        events = [
            _event("sweep_started", 1.0, points=1),
            _event("point_spawned", 1.05, index=0),
            _event("point_running", 1.1, index=0),
            self._span(2.0),
            _event("point_completed", 2.05, index=0),
            # Older logs carry this retired kind; unknown kinds validate.
            _event("telemetry_dropped", 2.1, count=0),
            _event("sweep_completed", 2.2),
        ]
        assert validate_runlog(events) == []

    def test_point_running_must_fall_inside_its_attempts(self):
        spawned = _event("point_spawned", 1.0, index=0)
        running = _event("point_running", 1.1, index=0)
        early = validate_runlog([
            _event("point_running", 0.9, index=0), spawned,
            _event("point_completed", 1.2, index=0),
        ])
        assert early == [
            "event #0: point_running for point 0 before its point_spawned"
        ]
        for terminal in ("point_completed", "point_failed"):
            late = validate_runlog([
                spawned, _event(terminal, 1.05, index=0), running,
            ])
            assert any(
                "after its point_completed/point_failed" in e for e in late
            ), (terminal, late)
        # A retried point runs again after point_retried: no violation.
        retried = [
            spawned, running,
            _event("point_killed", 1.2, index=0),
            _event("point_retried", 1.2, index=0),
            _event("point_spawned", 1.3, index=0),
            _event("point_running", 1.4, index=0),
            _event("point_completed", 1.5, index=0),
        ]
        assert validate_runlog(retried) == []

    def test_malformed_spans_reported(self):
        cases = [
            (self._span(2.0, span_id=7), "string span_id"),
            (self._span(2.0, name=""), "without a name"),
            (self._span(2.0, kind="galaxy"), "span kind"),
            (self._span(2.0, start_ts="soon"), "numeric start_ts"),
            (self._span(2.0, end_ts=0.5), "ends before it starts"),
            (self._span(2.0, parent_id=12), "not a string"),
        ]
        for span, fragment in cases:
            errors = validate_runlog([span])
            assert any(fragment in e for e in errors), (fragment, errors)

    def test_point_running_requires_index(self):
        errors = validate_runlog([_event("point_running", 1.0)])
        assert any("point_running without an index" in e for e in errors)

    def test_point_event_run_id_must_match_sweep_envelope(self):
        events = [
            _event("sweep_started", 1.0, run="sweep-run", points=1),
            _event("point_cache_hit", 1.1, run="other-run", index=0),
        ]
        errors = validate_runlog(events)
        assert any("no matching sweep_started envelope" in e for e in errors)

    def test_single_run_logs_are_exempt_from_envelope_rule(self):
        # `repro run` writes point-free logs with no sweep_started at all;
        # a lone cache-hit style event must not demand an envelope.
        events = [
            _event("point_spawned", 1.0, index=0),
            _event("point_completed", 2.0, index=0),
        ]
        assert validate_runlog(events) == []


class TestFlushBatching:
    def test_default_flushes_every_event(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = RunLogger(path)
        try:
            log.event("a")
            # Visible to a concurrent reader before close: per-event flush.
            assert [e["event"] for e in read_runlog(path)] == ["a"]
        finally:
            log.close()

    def test_interval_batches_until_batch_size(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = RunLogger(path, flush_interval=60.0, flush_batch=4)
        try:
            for kind in ("a", "b", "c"):
                log.event(kind)
            assert read_runlog(path) == []  # still buffered
            log.event("d")  # hits flush_batch
            assert [e["event"] for e in read_runlog(path)] == ["a", "b", "c", "d"]
        finally:
            log.close()

    def test_interval_elapsing_forces_flush(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = RunLogger(path, flush_interval=0.01, flush_batch=1000)
        try:
            log.event("a")
            time.sleep(0.03)
            log.event("b")  # interval elapsed -> flush
            assert len(read_runlog(path)) == 2
        finally:
            log.close()

    def test_explicit_flush_and_close_flush(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = RunLogger(path, flush_interval=60.0, flush_batch=1000)
        log.event("a")
        log.flush()
        assert len(read_runlog(path)) == 1
        log.event("b")
        log.close()
        assert len(read_runlog(path)) == 2

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="flush_interval"):
            RunLogger(tmp_path / "x.jsonl", flush_interval=-1.0)
        with pytest.raises(ValueError, match="flush_batch"):
            RunLogger(tmp_path / "x.jsonl", flush_batch=0)

    def test_killed_writer_loses_at_most_one_batch(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        total, batch = 10, 4

        def writer():
            log = RunLogger(path, run_id="kill", flush_interval=60.0,
                            flush_batch=batch)
            for i in range(total):
                log.event("tick", i=i)
            os._exit(0)  # killed: no close(), no interpreter cleanup

        process = multiprocessing.get_context("fork").Process(target=writer)
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        events = read_runlog(path)
        # Batch flushes fired at events 4 and 8; the trailing partial
        # batch (2 events) died in the buffer.  The guarantee under test:
        # a killed writer loses strictly less than one full batch.
        assert total - batch < len(events) <= total
        assert [e["i"] for e in events] == list(range(len(events)))
        assert validate_runlog(events) == []


def test_assert_valid_runlog_raises_with_violations(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(_event("point_completed", 1.0, index=0)) + "\n")
    with pytest.raises(RunlogError, match="schema violation"):
        assert_valid_runlog(path)


def test_default_runlog_path_shape(tmp_path):
    path = default_runlog_path("sweep", directory=tmp_path)
    assert path.parent == tmp_path
    assert path.name.startswith("sweep-") and path.suffix == ".jsonl"


def test_new_run_id_is_hexish_and_unique():
    a, b = new_run_id(), new_run_id()
    assert a != b and len(a) == 12
    int(a, 16)  # parses as hex
