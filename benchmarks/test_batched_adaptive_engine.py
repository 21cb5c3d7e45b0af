"""Batched event-engine benchmark (the ``batched_adaptive_engine`` gate).

The claim: a Monte-Carlo batch of Select-and-Send trials on e4's
G(512, 6/n) workload runs at least 5x faster as one ``event`` call
(:class:`~repro.sim.batched_event.BatchedEventEngine` over all seeds)
than as one-seed ``event`` calls, while every trial stays bit-identical
to its serial counterpart.  The win comes from execution-class collapse: the
deterministic, lossless batch is one representative run serving all
trials.  Trial-level identity is asserted here on wake times and
completion; the exhaustive slot-level differential lives in
``tests/sim/test_conformance.py`` and ``tests/sim/test_batched_event.py``.

The workload comes from the shared benchmark registry
(:func:`repro.obs.suite.batched_adaptive_workload`), so the committed
``BENCH_batched_adaptive_engine.json`` baseline that ``repro bench``
gates on tracks exactly the run this test measures.
"""

from __future__ import annotations

import time

from repro.analysis import render_table
from repro.obs.suite import batched_adaptive_workload
from repro.sim import derive_trial_seeds, run_broadcast
from repro.sim.fast import run_broadcast_batch

REPEATS = 3  # best-of to shave scheduler noise

#: The acceptance bar: one event-engine call over the batch must beat
#: one-seed event-engine calls by at least this factor.
MIN_SPEEDUP = 5.0


def _best_of(thunk, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batched_event_engine_speedup_and_identity(table_reporter):
    net, algorithm, trials = batched_adaptive_workload(quick=False)
    seeds = derive_trial_seeds(0, trials)

    serial_s, serial = _best_of(
        lambda: [
            run_broadcast(
                net, algorithm, seed=seed, require_completion=True,
                engine="event",
            )
            for seed in seeds
        ]
    )
    batched_s, batched = _best_of(
        lambda: run_broadcast_batch(
            net, algorithm, seeds=seeds, engine="event"
        )
    )

    # Batching must be a pure execution strategy, never a semantic
    # variant: trial i of the batch equals serial run i exactly.
    assert len(batched) == len(serial) == trials
    for from_batch, reference in zip(batched, serial):
        assert from_batch.completed and reference.completed
        assert from_batch.time == reference.time
        assert from_batch.wake_times == reference.wake_times

    speedup = serial_s / batched_s
    table_reporter.record(
        "batched-adaptive-engine",
        render_table(
            ["path", "wall (s)", "trials/s"],
            [
                ["serial event-engine", f"{serial_s:.3f}",
                 f"{trials / serial_s:.1f}"],
                ["batched event-engine", f"{batched_s:.3f}",
                 f"{trials / batched_s:.1f}"],
                ["speedup", f"{speedup:.1f}x", ""],
            ],
            title=(
                f"Select-and-Send x{trials} trials, G({net.n}, 6/n) seed=5"
            ),
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched event-engine speedup only {speedup:.1f}x"
    )
