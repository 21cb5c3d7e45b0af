"""Observability overhead benchmark (emits ``BENCH_obs.json``).

The zero-overhead contract: with ``metrics=None`` (the default) the
engines execute no instrumentation code beyond one ``is not None`` check
per stage, so the uninstrumented 1000-trial batched run must not
regress against the committed baseline.  With metrics *on*, the results
must stay bit-identical — instrumentation observes, never perturbs —
and the measured overhead ratio is recorded so future PRs inherit a
perf trajectory rather than a single anecdote.

The workload and timing protocol come from the shared benchmark
registry (:mod:`repro.obs.suite` / :mod:`repro.obs.bench`): the
``batched_engine`` and ``obs_overhead`` entries that ``repro bench``
runs measure exactly what this test measures.

Wall-clock assertions against the committed baseline only run when
``REPRO_BENCH_STRICT=1`` (dedicated benchmark hardware); shared CI
runners are too noisy for a 3% bound, so there the baseline is
refreshed and uploaded as an artifact instead.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.analysis import render_table
from repro.obs.bench import Benchmark, environment_fingerprint, run_benchmark
from repro.obs.suite import batched_workload, obs_overhead_workload

BENCH_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_obs.json"

REPEATS = 3  # best-of to shave scheduler noise


def test_metrics_overhead_and_bench_baseline(table_reporter):
    _, _, trials = batched_workload(quick=False)
    plain, instrumented = obs_overhead_workload(quick=False)

    # Instrumentation must never change what the engine computes.  These
    # two calls double as the warmup for the timed runs below.
    plain_results = plain()
    instrumented_results = instrumented()
    assert [r.time for r in instrumented_results] == [r.time for r in plain_results]
    assert [r.wake_times for r in instrumented_results] == [
        r.wake_times for r in plain_results
    ]

    env = environment_fingerprint()
    off_record = run_benchmark(
        Benchmark("obs_overhead_off", lambda quick: plain,
                  repeats=REPEATS, warmup=0),
        env=env,
    )
    on_record = run_benchmark(
        Benchmark("obs_overhead_on", lambda quick: instrumented,
                  repeats=REPEATS, warmup=0),
        env=env,
    )
    off_s, on_s = off_record["min_s"], on_record["min_s"]

    slots = sum(r.time for r in plain_results)
    overhead = on_s / off_s
    record = {
        "bench": "obs-overhead",
        "git_sha": env["git_sha"],
        "network": "km_hard_layered(128, 32, seed=17)",
        "algorithm": "kp-known-d(stage_constant=32)",
        "trials": trials,
        "trial_slots": slots,
        "metrics_off_s": round(off_s, 4),
        "metrics_on_s": round(on_s, 4),
        "overhead_ratio": round(overhead, 3),
        "slots_per_s_off": round(slots / off_s),
        "slots_per_s_on": round(slots / on_s),
    }

    baseline = None
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text())

    table_reporter.record(
        "obs-overhead",
        render_table(
            ["path", "wall (s)", "trial-slots/s"],
            [
                ["metrics off", f"{off_s:.3f}", f"{slots / off_s:.0f}"],
                ["metrics on", f"{on_s:.3f}", f"{slots / on_s:.0f}"],
                ["overhead", f"{overhead:.2f}x", ""],
            ],
            title=f"macro unions, {trials} trials ({slots} trial-slots)",
        ),
    )

    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    # Per-slot instrumentation on a batched engine is real work (histogram
    # observes over 1000-row arrays); it must stay bounded, not free.  The
    # buffered collision flush brought the measured ratio well under this
    # ceiling; the registry's obs_overhead tolerance (1.25x) guards the
    # tighter target on the trajectory side.
    assert overhead < 2.0, f"instrumentation overhead {overhead:.2f}x"

    if baseline is not None and os.environ.get("REPRO_BENCH_STRICT") == "1":
        regression = off_s / baseline["metrics_off_s"]
        assert regression < 1.03, (
            f"uninstrumented path regressed {regression:.3f}x vs baseline "
            f"{baseline['git_sha']}"
        )
