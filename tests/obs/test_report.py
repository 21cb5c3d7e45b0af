"""Report rendering from run logs and metric snapshots."""

from __future__ import annotations

import json

from repro.analysis.progress import ascii_sparkline
from repro.obs.metrics import MetricsRegistry, SLOT_BUCKETS
from repro.obs.report import (
    render_metrics,
    render_report,
    render_timings,
    render_trajectory,
    report_json_from_file,
    report_from_file,
    runlog_report_data,
    trajectory_report_data,
)
from repro.obs.runlog import RunLogger
from repro.obs.timings import Timings


def test_render_timings_empty_and_filled():
    assert "(empty)" in render_timings(Timings())
    timings = Timings()
    timings.add("engine.step", 1.5, count=3)
    output = render_timings(timings)
    assert "engine.step" in output and "seconds" in output


def test_render_metrics_tables_and_sparklines():
    metrics = MetricsRegistry()
    metrics.counter("runs_total").inc(5)
    metrics.gauge("depth").set(2)
    metrics.histogram("slots_to_completion", SLOT_BUCKETS).observe_many(
        [3, 9, 17, 100]
    )
    output = render_metrics(metrics)
    assert "runs_total" in output
    assert "counter" in output and "gauge" in output
    assert "slots_to_completion" in output
    assert "histograms" in output


def test_render_report_empty():
    assert "empty" in render_report([])


def test_report_from_file_covers_all_sections(tmp_path):
    metrics = MetricsRegistry()
    metrics.counter("engine_slots").inc(12)
    timings = Timings()
    timings.add("pool.queue_wait", 0.01)
    timings.add("pool.execute", 0.2)
    path = tmp_path / "log.jsonl"
    with RunLogger(path, run_id="feed") as log:
        log.event("sweep_started", name="demo", points=2)
        log.event("point_cache_hit", index=0, label="cached-point")
        log.event("point_spawned", index=1, label="run-point", attempt=1)
        log.event(
            "point_completed",
            index=1,
            label="run-point",
            attempt=1,
            mean_time=33.5,
            timings=timings.to_dict(),
            metrics=metrics.to_dict(),
        )
        log.event("run_completed", algorithm="bgi", engine="reference",
                  seed=4, n=30, time=41, completed=True)
        log.event("sweep_completed", name="demo", executed=1, from_cache=1)
    output = report_from_file(path)
    assert "lifecycle events" in output
    assert "sweep points" in output
    assert "cached-point" in output and "run-point" in output
    assert "runs" in output and "bgi" in output
    assert "stage timings (aggregated)" in output
    assert "metrics (aggregated)" in output
    assert "engine_slots" in output


def test_report_marks_failed_points(tmp_path):
    path = tmp_path / "log.jsonl"
    with RunLogger(path, run_id="deed") as log:
        log.event("point_spawned", index=0, label="doomed", attempt=1)
        log.event("point_failed", index=0, label="doomed", attempts=2)
    output = report_from_file(path)
    assert "FAILED" in output and "doomed" in output


class TestDegenerateInputs:
    def test_empty_histogram_renders_without_stats(self):
        metrics = MetricsRegistry()
        metrics.histogram("untouched", SLOT_BUCKETS)
        output = render_metrics(metrics)
        # Zero observations: count 0, mean 0.0, min/max dashed, no crash.
        row = next(ln for ln in output.splitlines() if "untouched" in ln)
        assert " 0 " in row and " - " in row

    def test_single_bucket_histogram_sparkline(self):
        metrics = MetricsRegistry()
        metrics.histogram("one_bucket", [10.0]).observe_many([1, 2, 3])
        output = render_metrics(metrics)
        row = next(ln for ln in output.splitlines() if "one_bucket" in ln)
        # Two counts (the bucket + overflow), all mass in the first.
        assert ascii_sparkline([3.0, 0.0], width=24) in row

    def test_single_value_sparkline_is_flat(self):
        # A constant series must not divide by zero; it draws the lowest
        # glyph for every point.
        line = ascii_sparkline([5.0, 5.0, 5.0], width=10)
        assert len(line) == 3 and len(set(line)) == 1

    def test_runlog_with_only_sweep_started(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        with RunLogger(path, run_id="feed") as log:
            log.event("sweep_started", name="interrupted", points=9)
        output = report_from_file(path)
        # Header + lifecycle only: no runs/points/timings/metrics section.
        assert "1 events" in output
        assert "sweep_started" in output
        assert "sweep points" not in output
        assert "runs" not in output.split("lifecycle events")[1]
        data = report_json_from_file(path)
        assert data["lifecycle"] == {"sweep_started": 1}
        assert data["timings"] == {}


def test_report_json_golden():
    events = [
        {"ts": 10.0, "event": "sweep_started", "run_id": "feed",
         "git_sha": "deadbee", "name": "demo", "points": 2},
        {"ts": 10.5, "event": "point_cache_hit", "run_id": "feed",
         "git_sha": "deadbee", "index": 0},
        {"ts": 12.0, "event": "point_completed", "run_id": "feed",
         "git_sha": "deadbee", "index": 1,
         "timings": {"pool.execute": {"seconds": 0.25, "count": 1}},
         "metrics": {"counters": {"runs_total": 2}}},
        {"ts": 12.5, "event": "sweep_completed", "run_id": "feed",
         "git_sha": "deadbee", "executed": 1, "from_cache": 1},
    ]
    data = runlog_report_data(events)
    golden = {
        "kind": "runlog",
        "events": 4,
        "run_ids": ["feed"],
        "git_shas": ["deadbee"],
        "span_s": 2.5,
        "lifecycle": {
            "sweep_started": 1,
            "point_cache_hit": 1,
            "point_completed": 1,
            "sweep_completed": 1,
        },
        "timings": {"pool.execute": {"seconds": 0.25, "count": 1}},
        "metrics": {"counters": {"runs_total": 2}, "gauges": {},
                    "histograms": {}},
    }
    assert json.loads(json.dumps(data)) == golden


def _bench_record(bench, quick, min_s, cpu_count=2, git_sha="deadbee"):
    return {"bench": bench, "quick": quick, "min_s": min_s, "median_s": min_s,
            "env": {"git_sha": git_sha, "cpu_count": cpu_count}}


def _rows(text, bench):
    return [line.split() for line in text.splitlines()
            if line.lstrip().startswith(bench + " ")]


def test_quick_and_full_records_of_one_bench_get_separate_rows():
    # A quick and a full record time different workloads: one row would
    # draw a full-size spike over the quick floor.
    records = [
        _bench_record("b", True, 0.06),
        _bench_record("b", False, 0.5),
        _bench_record("b", True, 0.09),
    ]
    text = render_trajectory(records)
    rows = _rows(text, "b")
    assert [row[:4] for row in rows] == [["b", "full", "h1", "1"],
                                         ["b", "quick", "h1", "2"]]
    assert "0.5000" not in " ".join(rows[1])
    assert "1.50x" in rows[1]  # vs first: 0.09 / 0.06, quick records only
    data = trajectory_report_data(records)
    assert [row["min_s"] for row in data["benches"]["b"]["quick"]] == [[0.06, 0.09]]
    assert [row["min_s"] for row in data["benches"]["b"]["full"]] == [[0.5]]


def test_records_from_two_hosts_get_separate_rows():
    # A faster host is not a faster commit: "vs first", "best" and the
    # trend compare one host's records only.  A new commit on the same
    # host stays in its row.
    records = [
        _bench_record("b", True, 0.50, cpu_count=1, git_sha="aaaaaaa"),
        _bench_record("b", True, 0.55, cpu_count=1, git_sha="bbbbbbb"),
        _bench_record("b", True, 0.10, cpu_count=2, git_sha="bbbbbbb"),
        _bench_record("b", True, 0.08, cpu_count=2, git_sha="ccccccc"),
    ]
    text = render_trajectory(records)
    first, second = _rows(text, "b")
    assert first[:4] == ["b", "quick", "h1", "2"]
    assert "1.10x" in first and "0.5000" in first  # 0.55 / 0.50; best 0.50
    assert second[:4] == ["b", "quick", "h2", "2"]
    assert "0.80x" in second and "0.0800" in second  # 0.08 / 0.10; best 0.08
    assert "0.16x" not in text  # 0.08 / 0.50: a host change, not a code change
    assert "h1: cpu_count 1" in text and "h2: cpu_count 2" in text
    (quick,) = trajectory_report_data(records)["benches"].values()
    assert [(row["host"], row["min_s"]) for row in quick["quick"]] == [
        ({"cpu_count": 1}, [0.50, 0.55]),
        ({"cpu_count": 2}, [0.10, 0.08]),
    ]
