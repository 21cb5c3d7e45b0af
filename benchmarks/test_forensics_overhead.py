"""Forensics overhead benchmark (emits ``BENCH_forensics.json``).

Two contracts, one measurement each:

1. **Zero overhead when off.**  The trace-recording branches this layer
   added to the fast engines cost one attribute check per slot at
   ``TraceLevel.NONE``; the traces-off batched workload must stay flat.
   Under ``REPRO_BENCH_STRICT=1`` (dedicated hardware) the off path is
   gated at ≤ 1.02x against the committed baseline — tighter than any
   other gate in the suite, because "off" is supposed to mean *off*.
2. **Forensics observes, never perturbs, and stays cheap.**  A
   ``TraceLevel.FULL`` batch plus a per-trial
   :func:`~repro.obs.forensics.analyze` pass must reproduce the plain
   batch's outcomes bit for bit.  The trace is recorded as columns, one
   array per slot for the whole union, and analysed with array
   operations, so the enabled cost is a small multiple of the plain run:
   under ``REPRO_BENCH_STRICT=1`` the ratio is gated at
   ≤ :data:`MAX_ON_OVERHEAD`.  The registry's ``forensics_overhead``
   entry baselines the enabled path on its own.

The workload and timing protocol come from the shared benchmark
registry: the ``forensics_overhead`` entry that ``repro bench`` runs
measures exactly what this test measures.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.analysis import render_table
from repro.obs.bench import Benchmark, environment_fingerprint, run_benchmark
from repro.obs.suite import batched_workload, forensics_overhead_workload

# Mirrors BENCH_telemetry.json vs BENCH_telemetry_overhead.json: this
# file is the pytest record; the registry's pinned baseline (written by
# ``repro bench --update-baseline``) is BENCH_forensics_overhead.json.
BENCH_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_forensics.json"

REPEATS = 3  # best-of to shave scheduler noise

#: Strict-mode bar for the traces-off path against the committed
#: baseline: tracing machinery that is off must not cost wall clock.
MAX_OFF_REGRESSION = 1.02

#: Strict-mode bar for FULL tracing plus analysis against traces off.
MAX_ON_OVERHEAD = 3.0


def test_forensics_overhead_and_bench_baseline(table_reporter):
    _, _, trials = batched_workload(quick=False)
    plain, forensic = forensics_overhead_workload(quick=False)

    # FULL tracing + analysis must never change what the engine computes.
    # These two calls double as the warmup for the timed runs below.
    plain_results = plain()
    reports = forensic()
    assert [r.slots for r in reports] == [r.time for r in plain_results]
    assert [r.dag.wake_slots for r in reports] == [
        {0: -1, **r.wake_times} for r in plain_results
    ]

    env = environment_fingerprint()
    off_record = run_benchmark(
        Benchmark("forensics_overhead_off", lambda quick: plain,
                  repeats=REPEATS, warmup=0),
        env=env,
    )
    on_record = run_benchmark(
        Benchmark("forensics_overhead_on", lambda quick: forensic,
                  repeats=REPEATS, warmup=0),
        env=env,
    )
    off_s, on_s = off_record["min_s"], on_record["min_s"]

    slots = sum(r.time for r in plain_results)
    overhead = on_s / off_s
    record = {
        "bench": "forensics-overhead",
        "git_sha": env["git_sha"],
        "network": "km_hard_layered(128, 32, seed=17)",
        "algorithm": "kp-known-d(stage_constant=32)",
        "trials": trials,
        "trial_slots": slots,
        "traces_off_s": round(off_s, 4),
        "forensics_on_s": round(on_s, 4),
        "overhead_ratio": round(overhead, 3),
        "slots_per_s_off": round(slots / off_s),
        "slots_per_s_on": round(slots / on_s),
        "wasted_slot_fraction_mean": round(
            sum(r.wasted_slot_fraction for r in reports) / len(reports), 6
        ),
    }

    baseline = None
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text())

    table_reporter.record(
        "forensics-overhead",
        render_table(
            ["path", "wall (s)", "trial-slots/s"],
            [
                ["traces off", f"{off_s:.3f}", f"{slots / off_s:.0f}"],
                ["FULL + analyze", f"{on_s:.3f}", f"{slots / on_s:.0f}"],
                ["overhead", f"{overhead:.2f}x", ""],
            ],
            title=f"macro unions, {trials} trials ({slots} trial-slots)",
        ),
    )

    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert overhead <= MAX_ON_OVERHEAD, (
            f"FULL trace + analyze costs {overhead:.2f}x the traces-off run "
            f"(bar {MAX_ON_OVERHEAD}x)"
        )
        if baseline is not None:
            regression = off_s / baseline["traces_off_s"]
            assert regression < MAX_OFF_REGRESSION, (
                f"traces-off path regressed {regression:.3f}x vs baseline "
                f"{baseline['git_sha']} — tracing that is off must be free"
            )
