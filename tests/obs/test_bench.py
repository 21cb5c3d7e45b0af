"""Benchmark registry: timing protocol, record schema, pairs, trajectory.

Speed is gated only by pairs, whose two sides are timed alternately in
one process, so the load-bearing invariants are the pair protocol (the
check runs before any timed call, the rounds alternate, the ratio is
min over min) and a record schema that every committed trajectory line
passes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs.bench import (
    Benchmark,
    BenchmarkRegistry,
    append_trajectory,
    environment_fingerprint,
    read_trajectory,
    run_benchmark,
    strict_mode,
    trajectory_path,
    validate_record,
)


def _noop_bench(name="unit", **kwargs):
    kwargs.setdefault("repeats", 2)
    kwargs.setdefault("quick_repeats", 2)
    kwargs.setdefault("warmup", 0)
    return Benchmark(name=name, build=lambda quick: (lambda: None), **kwargs)


class TestRegistry:
    def test_duplicate_names_are_rejected(self):
        registry = BenchmarkRegistry()
        registry.add(_noop_bench("a"))
        with pytest.raises(ValueError):
            registry.add(_noop_bench("a"))

    def test_select_matches_names_and_tags(self):
        registry = BenchmarkRegistry()
        registry.add(_noop_bench("fast_engine", tags=("engine",)))
        registry.add(_noop_bench("sweep_pool", tags=("sweep",)))
        assert [b.name for b in registry.select("engine")] == ["fast_engine"]
        assert [b.name for b in registry.select("sweep")] == ["sweep_pool"]
        assert len(registry.select("")) == 2
        assert registry.select("nomatch") == []

    def test_get_unknown_name_lists_registered(self):
        registry = BenchmarkRegistry()
        registry.add(_noop_bench("a"))
        with pytest.raises(KeyError, match="'a'"):
            registry.get("b")


class TestTimingProtocol:
    def test_setup_runs_outside_the_timed_region(self):
        calls = {"build": 0, "thunk": 0}

        def build(quick):
            calls["build"] += 1

            def thunk():
                calls["thunk"] += 1

            return thunk

        bench = Benchmark(name="counting", build=build, repeats=3, warmup=2)
        record = run_benchmark(bench)
        assert calls["build"] == 1
        assert calls["thunk"] == 2 + 3  # warmup + timed
        assert record["repeats"] == 3 and record["warmup"] == 2
        assert len(record["times_s"]) == 3

    def test_quick_uses_quick_repeats_and_flags_the_record(self):
        bench = _noop_bench(repeats=5, quick_repeats=2)
        record = run_benchmark(bench, quick=True)
        assert record["quick"] is True
        assert record["repeats"] == 2

    def test_record_passes_its_own_schema_check(self):
        record = run_benchmark(_noop_bench())
        assert validate_record(record) == []
        assert record["min_s"] == min(record["times_s"])

    def test_validate_record_catches_violations(self):
        record = run_benchmark(_noop_bench())
        record["min_s"] = record["min_s"] + 1.0
        assert any("min_s" in e for e in validate_record(record))
        del record["bench"]
        assert any("bench" in e for e in validate_record(record))
        record["schema"] = 99
        assert any("newer" in e for e in validate_record(record))
        assert validate_record({}) != []

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        for key in ("git_sha", "python", "numpy", "platform", "cpu_count"):
            assert env[key] is not None


class TestTrajectoryAndBaselines:
    def test_append_and_read_round_trip(self, tmp_path):
        record = run_benchmark(_noop_bench())
        path = append_trajectory(record, tmp_path)
        append_trajectory(record, tmp_path)
        assert path == trajectory_path(tmp_path)
        records = read_trajectory(path)
        assert len(records) == 2
        assert records[0] == json.loads(json.dumps(record))

    def test_read_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.jsonl"
        path.write_text('{"bench": "a"}\n[1, 2]\n')
        with pytest.raises(ValueError, match="not a JSON object"):
            read_trajectory(path)

    def test_committed_trajectory_is_valid_and_renders(self):
        from repro.obs.report import report_from_file

        path = pathlib.Path(__file__).parents[2] / trajectory_path()
        records = read_trajectory(path)
        assert records
        for number, record in enumerate(records, start=1):
            assert validate_record(record) == [], f"{path}:{number}"
        # One row per bench, mode and host: the env without its git sha.
        rows = {
            (r["bench"], r["quick"],
             json.dumps({k: v for k, v in r["env"].items() if k != "git_sha"},
                        sort_keys=True))
            for r in records
        }
        text = report_from_file(path)
        assert f"{len(records)} records, {len(rows)} row(s)" in text


class TestStrictMode:
    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
        assert strict_mode() is False
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        assert strict_mode() is True
        monkeypatch.setenv("REPRO_BENCH_STRICT", "0")
        assert strict_mode() is False


class _Clock:
    """A fake ``perf_counter``: time moves only when a thunk says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _pair(log, clock, check=None, warmup=1, repeats=4):
    """A registry holding ``ref`` and the pair ``sub`` timed against it.

    Each side logs its calls, returns its own name and advances the
    clock: 1 ms per ``ref`` call, 3 ms per ``sub`` call."""

    def side(name, cost):
        def build(quick):
            def thunk():
                log.append(name)
                clock.now += cost
                return name

            return thunk

        return build

    registry = BenchmarkRegistry()
    registry.add(Benchmark("ref", side("ref", 1e-3), repeats=repeats, warmup=warmup))
    pair = registry.add(Benchmark(
        "sub", side("sub", 3e-3), repeats=repeats, warmup=warmup,
        reference="ref", max_ratio=2.0,
        check=check if check is not None else (lambda reference, output: None),
    ))
    return registry, pair


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr("repro.obs.bench.time.perf_counter", fake)
    return fake


class TestPairs:
    def test_sides_run_alternately_warmup_included(self, clock):
        log = []
        registry, pair = _pair(log, clock, warmup=2, repeats=4)
        run_benchmark(pair, registry=registry)
        assert log.count("ref") == log.count("sub") == 2 + 4
        rounds = [tuple(log[i:i + 2]) for i in range(0, len(log), 2)]
        assert rounds == [("ref", "sub"), ("sub", "ref")] * 3

    def test_ratio_is_min_over_reference_min(self, clock):
        registry, pair = _pair([], clock)
        record = run_benchmark(pair, registry=registry)
        assert record["reference"] == "ref" and record["max_ratio"] == 2.0
        assert len(record["reference_times_s"]) == len(record["times_s"]) == 4
        assert record["min_s"] == pytest.approx(3e-3)
        assert record["reference_min_s"] == pytest.approx(1e-3)
        assert record["ratio"] == record["min_s"] / record["reference_min_s"]
        assert validate_record(record) == []

    def test_failing_check_raises_before_any_timed_call(self, clock):
        log, seen = [], []

        def check(reference, output):
            seen.append((reference, output))
            raise AssertionError("sides disagree")

        registry, pair = _pair(log, clock, check=check, warmup=1)
        with pytest.raises(AssertionError, match="sides disagree"):
            run_benchmark(pair, registry=registry)
        assert seen == [("ref", "sub")]
        assert log == ["ref", "sub"]  # the warmup round only

    def test_a_pair_declares_its_check_and_a_warmup(self):
        build = lambda quick: (lambda: None)  # noqa: E731
        with pytest.raises(ValueError, match="check"):
            Benchmark("p", build, reference="r", max_ratio=1.0)
        with pytest.raises(ValueError, match="warmup"):
            Benchmark("p", build, reference="r", max_ratio=1.0,
                      check=lambda a, b: None, warmup=0)
        with pytest.raises(ValueError, match="own reference"):
            Benchmark("p", build, reference="p", max_ratio=1.0,
                      check=lambda a, b: None)
        with pytest.raises(ValueError, match="need a reference"):
            Benchmark("p", build, max_ratio=1.0)

    def test_reference_fields_belong_on_pair_records_only(self, clock):
        registry, pair = _pair([], clock)
        record = run_benchmark(pair, registry=registry)
        for key in ("reference_times_s", "reference_min_s", "ratio", "max_ratio"):
            broken = {k: v for k, v in record.items() if k != key}
            assert any(key in e for e in validate_record(broken)), key
        wrong = dict(record, ratio=record["ratio"] * 2)
        assert any("ratio" in e for e in validate_record(wrong))
        plain = run_benchmark(_noop_bench())
        assert validate_record(plain) == []
        stray = dict(plain, ratio=1.5)
        assert any("only on a pair" in e for e in validate_record(stray))

    def test_trajectory_report_shows_the_latest_ratio(self, clock):
        from repro.obs.report import render_trajectory

        registry, pair = _pair([], clock)
        older = dict(run_benchmark(pair, registry=registry), ratio=1.75)
        latest = run_benchmark(pair, registry=registry)
        plain = run_benchmark(registry.get("ref"), registry=registry)
        text = render_trajectory([older, latest, plain])
        assert "latest ratio" in text
        (sub_row,) = [line for line in text.splitlines() if line.lstrip().startswith("sub ")]
        assert f"{latest['ratio']:.3f}x ref" in sub_row and "1.750x" not in sub_row
        (ref_row,) = [line for line in text.splitlines() if line.lstrip().startswith("ref ")]
        assert "x ref" not in ref_row

    def test_bench_list_shows_each_pairs_reference_and_bound(self, capsys):
        from repro.cli import main
        from repro.obs.suite import default_registry

        assert main(["bench", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        pairs = [b for b in default_registry() if b.reference is not None]
        assert pairs
        for bench in pairs:
            (row,) = [line for line in lines if line.lstrip().startswith(bench.name + " ")]
            assert f" {bench.reference} " in row
            assert f"<= {bench.max_ratio:.2f}x" in row
            assert ("(strict)" in row) == bench.strict_ratio
