"""Command-line interface."""

from __future__ import annotations

import itertools

import pytest

from repro.cli import main


def test_run_subcommand(capsys):
    code = main(["run", "--topology", "gnp", "--n", "40", "--algorithm",
                 "select-and-send"])
    out = capsys.readouterr().out
    assert code == 0
    assert "completed: True" in out


def test_run_with_trace(capsys):
    code = main(["run", "--topology", "path", "--n", "6", "--algorithm",
                 "round-robin", "--trace", "--trace-steps", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "step" in out


def test_compare_subcommand(capsys):
    code = main([
        "compare", "--topology", "layered", "--n", "60", "--depth", "4",
        "--algorithms", "bgi", "round-robin", "--runs", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "bgi-decay" in out and "round-robin" in out


def test_adversary_subcommand(capsys):
    code = main(["adversary", "--algorithm", "round-robin", "--n", "256",
                 "--depth", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Lemma 9 histories match: True" in out


def test_adversary_rejects_randomized():
    with pytest.raises(SystemExit):
        main(["adversary", "--algorithm", "bgi", "--n", "256", "--depth", "8"])


def test_universal_subcommand(capsys):
    code = main(["universal", "--r", "1024", "--d", "1024"])
    out = capsys.readouterr().out
    assert code == 0
    assert "U1/U2 satisfied: True" in out


def test_universal_reports_degradation(capsys):
    code = main(["universal", "--r", "4096", "--d", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "U2" in out


@pytest.mark.parametrize(
    "command, expected",
    [(["run"], "completed: True"), (["explain", "run"], "40 informed")],
    ids=["run", "explain-run"],
)
def test_single_run_commands_take_the_macro_engine(command, expected, capsys):
    """``--engine macro`` stays a single-run choice although the macro
    engine is registered as a batch engine (it runs seed unions)."""
    code = main([*command, "--topology", "gnp", "--n", "40", "--algorithm",
                 "kp-known-d", "--engine", "macro"])
    out = capsys.readouterr().out
    assert code == 0
    assert expected in out


@pytest.mark.parametrize(
    "command, expected",
    [(["run"], "informed: 12/12"), (["explain", "run"], "12 informed")],
    ids=["run", "explain-run"],
)
def test_engine_choices_are_the_registry(command, expected, capsys):
    """``--engine`` takes every registered engine — ``event`` included —
    and nothing else."""
    code = main([*command, "--topology", "path", "--n", "12", "--algorithm",
                 "select-and-send", "--engine", "event"])
    assert code == 0
    assert expected in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([*command, "--topology", "path", "--n", "12", "--algorithm",
              "select-and-send", "--engine", "batched_event"])


def test_unknown_topology_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--topology", "torus", "--n", "10"])


def test_unknown_algorithm_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--topology", "path", "--n", "10", "--algorithm", "magic"])


def test_gossip_subcommand(capsys):
    code = main(["gossip", "--topology", "tree", "--n", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gossip completed: True" in out


def test_run_save_and_load_round_trip(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    result_file = tmp_path / "res.json"
    code = main([
        "run", "--topology", "grid", "--n", "16", "--algorithm", "round-robin",
        "--save-network", str(net_file), "--save-result", str(result_file),
    ])
    assert code == 0
    assert net_file.exists() and result_file.exists()
    capsys.readouterr()
    # Re-run on the saved network; deterministic algorithm -> same time.
    code = main([
        "run", "--load-network", str(net_file), "--algorithm", "round-robin",
    ])
    out = capsys.readouterr().out
    assert code == 0
    from repro.sim import load_result

    saved = load_result(result_file)
    assert f"time: {saved.time} slots" in out


def test_sweep_quick(tmp_path, capsys):
    code = main(["sweep", "--quick", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 points (2 executed, 0 from cache)" in out
    assert list(tmp_path.glob("*.json"))
    # Warm re-run: everything from cache.
    code = main(["sweep", "--quick", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "(0 executed, 2 from cache)" in out


def test_sweep_spec_file_and_json_output(tmp_path, capsys):
    import json

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "name": "cli-test",
        "topology": "path",
        "algorithm": "round-robin",
        "topology_grid": {"n": [6, 8]},
        "trials": 2,
    }))
    code = main(["sweep", "--spec", str(spec_file), "--no-cache", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    document = json.loads(out)
    assert document["spec"]["name"] == "cli-test"
    assert len(document["points"]) == 2
    assert all(p["completed"] == p["runs"] for p in document["points"])


def test_sweep_requires_spec_or_quick():
    with pytest.raises(SystemExit):
        main(["sweep"])


def test_experiment_json_output(capsys):
    code = main(["experiment", "e10", "--quick", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    import json

    document = json.loads(out)
    assert document["experiment"] == "e10"
    assert document["ok"] is True
    assert document["claims"]


def test_run_with_faults(tmp_path, capsys):
    import json

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"loss_probability": 1.0, "seed": 3}))
    # Certain loss strands every non-source node -> incomplete -> exit 1.
    code = main(["run", "--topology", "path", "--n", "5", "--algorithm",
                 "round-robin", "--faults", str(plan_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "completed: False" in out
    assert "faults:" in out and "lost" in out


def test_run_rejects_bad_fault_plan(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"loss_probability": 7}')
    with pytest.raises(SystemExit):
        main(["run", "--topology", "path", "--n", "5", "--algorithm",
              "round-robin", "--faults", str(plan_file)])
    with pytest.raises(SystemExit):
        main(["run", "--topology", "path", "--n", "5", "--algorithm",
              "round-robin", "--faults", str(tmp_path / "missing.json")])


def test_sweep_with_faults_and_timeout(tmp_path, capsys):
    import json

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"crashes": [[3, 0]], "seed": 1}))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "name": "cli-faulty",
        "topology": "path",
        "algorithm": "round-robin",
        "topology_grid": {"n": [6]},
        "trials": 2,
    }))
    code = main([
        "sweep", "--spec", str(spec_file), "--no-cache", "--json",
        "--faults", str(plan_file), "--timeout", "60", "--retries", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    document = json.loads(out)
    (point,) = document["points"]
    assert point["faults"]["crashes"] == [[3, 0]]
    assert point["faults"]["seed"] == 1
    # Deterministic algorithm + loss-free plan collapses to one run,
    # which counts the crash exactly once.
    assert point["fault_totals"]["crashed_nodes"] == point["runs"] == 1
    assert point["completed"] == 0  # the crash partitions the path


def test_run_with_metrics_and_runlog(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    code = main(["run", "--topology", "path", "--n", "8", "--algorithm",
                 "round-robin", "--metrics", "--log-jsonl", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage timings" in out
    assert "engine_slots" in out
    from repro.obs.runlog import assert_valid_runlog

    events = assert_valid_runlog(log)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_started" and kinds[-1] == "run_completed"
    # --log-jsonl also records the trial/stage span tree for the run.
    assert "span" in kinds[1:-1]
    assert events[-1]["metrics"]["counters"]["runs_total"] == 1


def test_sweep_with_metrics_and_report(tmp_path, capsys):
    log = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--quick", "--cache-dir", str(tmp_path / "cache"),
                 "--metrics", "--log-jsonl", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage timings" in out and "run log written" in out
    from repro.obs.runlog import assert_valid_runlog

    kinds = [e["event"] for e in assert_valid_runlog(log)]
    assert kinds[0] == "sweep_started" and kinds[-1] == "sweep_completed"

    code = main(["report", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "lifecycle events" in out
    assert "sweep points" in out


def test_report_rejects_missing_or_invalid_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", str(tmp_path / "nope.jsonl")])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(SystemExit):
        main(["report", str(bad)])


# ----------------------------------------------------------------------
# bench / profile / report --json


def test_bench_list(capsys):
    code = main(["bench", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "universal_sequence" in out and "batched_engine" in out


def test_bench_quick_appends_valid_trajectory_records(tmp_path, capsys):
    from repro.obs.bench import read_trajectory, validate_record

    code = main(["bench", "--quick", "--filter", "combinatorics",
                 "--results-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "universal_sequence" in out
    records = read_trajectory(tmp_path / "BENCH_trajectory.jsonl")
    assert len(records) == 1
    assert validate_record(records[0]) == []
    assert records[0]["quick"] is True
    assert records[0]["env"]["git_sha"]


def test_bench_update_baseline_then_compare_ok(tmp_path, capsys, monkeypatch):
    # A fake clock that advances by a fixed step per read gives both
    # records the same min_s, so host noise cannot fail the comparison.
    ticks = itertools.count()
    monkeypatch.setattr(
        "repro.obs.bench.time.perf_counter", lambda: next(ticks) * 1e-3
    )
    code = main(["bench", "--quick", "--filter", "universal",
                 "--results-dir", str(tmp_path), "--update-baseline"])
    assert code == 0
    assert (tmp_path / "BENCH_universal_sequence.json").exists()
    code = main(["bench", "--quick", "--filter", "universal",
                 "--results-dir", str(tmp_path), "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out or "improved" in out


def test_bench_compare_without_baseline_does_not_fail(tmp_path, capsys):
    code = main(["bench", "--quick", "--filter", "universal",
                 "--results-dir", str(tmp_path), "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no-baseline" in out


def _tampered_baseline(tmp_path, capsys):
    """Run one quick bench, then shrink its baseline to force a regression."""
    import json as json_mod

    assert main(["bench", "--quick", "--filter", "universal",
                 "--results-dir", str(tmp_path), "--update-baseline"]) == 0
    capsys.readouterr()
    path = tmp_path / "BENCH_universal_sequence.json"
    baseline = json_mod.loads(path.read_text())
    baseline["min_s"] = baseline["min_s"] / 100.0
    path.write_text(json_mod.dumps(baseline))


def test_bench_regression_warns_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
    _tampered_baseline(tmp_path, capsys)
    code = main(["bench", "--quick", "--filter", "universal",
                 "--results-dir", str(tmp_path), "--compare"])
    captured = capsys.readouterr()
    assert code == 0
    assert "REGRESSION" in captured.err
    assert "warning only" in captured.err


def test_bench_regression_fails_under_strict(tmp_path, capsys, monkeypatch):
    _tampered_baseline(tmp_path, capsys)
    monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
    code = main(["bench", "--quick", "--filter", "universal",
                 "--results-dir", str(tmp_path), "--compare"])
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESSION" in captured.err


def test_bench_json_output(tmp_path, capsys):
    import json as json_mod

    code = main(["bench", "--quick", "--filter", "combinatorics",
                 "--results-dir", str(tmp_path), "--compare", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    document = json_mod.loads(out)
    assert document["records"][0]["bench"] == "universal_sequence"
    assert document["comparisons"][0]["status"] == "no-baseline"


def test_bench_unknown_filter_rejected(tmp_path):
    with pytest.raises(SystemExit, match="no benchmark matches"):
        main(["bench", "--quick", "--filter", "nonexistent",
              "--results-dir", str(tmp_path)])


def test_report_renders_bench_trajectory(tmp_path, capsys):
    assert main(["bench", "--quick", "--filter", "combinatorics",
                 "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["report", str(tmp_path / "BENCH_trajectory.jsonl")])
    out = capsys.readouterr().out
    assert code == 0
    assert "benchmark trajectory" in out
    assert "universal_sequence" in out


def test_report_json_on_trajectory(tmp_path, capsys):
    import json as json_mod

    assert main(["bench", "--quick", "--filter", "combinatorics",
                 "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["report", str(tmp_path / "BENCH_trajectory.jsonl"), "--json"])
    document = json_mod.loads(capsys.readouterr().out)
    assert code == 0
    assert document["kind"] == "trajectory"
    assert "universal_sequence" in document["benches"]


def test_report_json_on_runlog(tmp_path, capsys):
    import json as json_mod

    log_path = tmp_path / "run.jsonl"
    assert main(["run", "--topology", "path", "--n", "6", "--algorithm",
                 "round-robin", "--log-jsonl", str(log_path)]) == 0
    capsys.readouterr()
    code = main(["report", str(log_path), "--json"])
    document = json_mod.loads(capsys.readouterr().out)
    assert code == 0
    assert document["kind"] == "runlog"
    assert document["lifecycle"]["run_completed"] == 1


def test_profile_bench_prints_pstats_table(capsys):
    code = main(["profile", "bench", "universal_sequence", "--quick",
                 "--top", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ncalls" in out and "cumtime" in out
    assert "build_universal_sequence" in out


def test_profile_bench_unknown_name_rejected():
    with pytest.raises(SystemExit, match="unknown benchmark"):
        main(["profile", "bench", "nonexistent"])


def test_profile_run_with_callgrind_export(tmp_path, capsys):
    from repro.obs.profile import parse_callgrind

    out_file = tmp_path / "run.callgrind"
    code = main(["profile", "run", "--topology", "path", "--n", "8",
                 "--algorithm", "round-robin", "--trials", "2",
                 "--top", "5", "--callgrind", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ncalls" in out
    costs = parse_callgrind(out_file.read_text())
    assert costs


def test_profile_sweep_quick(tmp_path, capsys):
    code = main(["profile", "sweep", "--quick", "--workers", "1",
                 "--top", "8", "--profile-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 point(s) profiled" in out
    assert "ncalls" in out
    assert len(list(tmp_path.glob("*.pstats"))) == 2


def test_sweep_with_telemetry_writes_spans(tmp_path, capsys):
    log = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--quick", "--no-cache", "--telemetry", "--quiet",
                 "--log-jsonl", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "run log written" in out
    from repro.obs.runlog import assert_valid_runlog

    events = assert_valid_runlog(log)
    spans = [e for e in events if e["event"] == "span"]
    assert {s["kind"] for s in spans} >= {"sweep", "point", "trial", "stage"}


def test_sweep_progress_line_on_tty(tmp_path, capsys, monkeypatch):
    import io
    import sys as sys_module

    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    stream = FakeTty()
    monkeypatch.setattr(sys_module, "stderr", stream)
    code = main(["sweep", "--quick", "--cache-dir", str(tmp_path)])
    assert code == 0
    progress = stream.getvalue()
    assert "[1/2]" in progress and "[2/2]" in progress
    # --quiet suppresses the line entirely.
    stream2 = FakeTty()
    monkeypatch.setattr(sys_module, "stderr", stream2)
    assert main(["sweep", "--quick", "--cache-dir", str(tmp_path),
                 "--quiet"]) == 0
    assert stream2.getvalue() == ""


def test_trace_export_round_trips(tmp_path, capsys):
    from repro.obs.spans import parse_trace_events

    log = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--quick", "--no-cache", "--telemetry", "--quiet",
                 "--log-jsonl", str(log)]) == 0
    capsys.readouterr()
    out_file = tmp_path / "sweep.trace.json"
    code = main(["trace", "export", str(log), "-o", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "span(s)" in out and str(out_file) in out
    records = parse_trace_events(out_file.read_text())
    assert {r["kind"] for r in records} >= {"sweep", "point", "trial"}


def test_trace_export_default_output_and_spanless_log(tmp_path, capsys):
    log = tmp_path / "plain.jsonl"
    assert main(["sweep", "--quick", "--no-cache",
                 "--log-jsonl", str(log)]) == 0
    capsys.readouterr()
    # A runlog without telemetry has no spans: clean error, no file.
    with pytest.raises(SystemExit, match="no span events"):
        main(["trace", "export", str(log)])
    assert not (tmp_path / "plain.trace.json").exists()


def test_top_replay_renders_summary(tmp_path, capsys):
    log = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--quick", "--no-cache", "--telemetry", "--quiet",
                 "--log-jsonl", str(log)]) == 0
    capsys.readouterr()
    code = main(["top", "--replay", str(log)])
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep quick" in out
    assert "2/2 (100%)" in out
    assert "done in" in out


def test_top_live_runs_a_sweep(tmp_path, capsys):
    code = main(["top", "--quick", "--workers", "1",
                 "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    # The view renders to stderr (stdout stays pipeable); the final
    # summary line goes to stdout like `repro sweep`.
    assert "2/2 (100%)" in captured.err
    assert "2 points (2 executed, 0 from cache)" in captured.out
