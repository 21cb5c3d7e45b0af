"""Smoke test of the end-to-end benchmark: every workload at ``--size smoke``.

Runs ``bench.py`` as users and CI do (a subprocess from the repository
root), with one smoke-size iteration per workload, well under a minute in
total.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_bench(*args: str, bench: pathlib.Path = HERE / "bench.py", cwd=ROOT):
    """Returns the process, its ``workload metric value unit`` lines, and
    the final JSON result (``None`` when nothing was printed)."""
    command = [
        sys.executable, str(bench), "--size", "smoke", "--seconds", "0",
        "--seed", "0", *args,
    ]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("{"):  # an all-workload run prints one result each
            workload, metric, value, unit = line.split()
            printed[workload, metric] = (float(value), unit)
    result = json.loads(lines[-1]) if lines else None
    return proc, printed, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_declared_metric(workload, tmp_path):
    trace = tmp_path / "trace.json"
    proc, printed, result = run_bench(
        "--workload", workload, "--trace", "1", "--trace-out", str(trace)
    )
    assert proc.returncode == 0, proc.stderr
    for name, unit in {**E2E, **LAYERS}.items():
        assert printed[workload, name][1] == unit, name
    assert printed[workload, "fail_frac"][0] == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYERS

    sys.path.insert(0, str(ROOT / "src"))
    try:
        spans = importlib.import_module("repro.obs")
        records = spans.parse_trace_events(trace.read_text(encoding="utf-8"))
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert {"point", "stage"} <= {r["kind"] for r in records}


def test_all_workloads_run_in_child_processes(tmp_path):
    record_path = tmp_path / "run.json"
    proc, printed, result = run_bench("--json", str(record_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert set(record["workloads"]) == set(WORKLOADS)
    assert record["environment"]["cpu_count"] and record["macro_backend"]
    for workload in WORKLOADS:
        assert record["workloads"][workload]["failed"] == 0
        for name, unit in E2E.items():
            assert printed[workload, name][1] == unit
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E

    compare = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(record_path), str(record_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert compare.returncode == 0, compare.stdout
    verdicts = [line.split()[-1] for line in compare.stdout.splitlines()[2:]]
    assert verdicts.count("ok") == len(WORKLOADS) * len(E2E)


def test_corrupted_golden_fails_the_run(tmp_path):
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    goldens["smoke"]["gnp_million"]["0"]["edges"] += 1
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens), encoding="utf-8")
    proc, _, result = run_bench("--workload", "gnp_million", "--goldens", str(path))
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "golden smoke/gnp_million/seed 0: edges" in proc.stderr


def test_benchmark_alone_exits_without_result(tmp_path):
    """Copied without the package it measures, the benchmark must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench_dir = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench_dir, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc, _, result = run_bench("--workload", "gnp_million",
                                bench=bench_dir / "bench.py", cwd=tmp_path)
    assert proc.returncode != 0 and result is None
