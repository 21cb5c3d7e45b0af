"""Randomized batched event-engine benchmark (the
``interleaved_adaptive_engine`` gate).

The claim: a Monte-Carlo batch of ``InterleavedBroadcast(BGI,
SelectAndSend)`` trials (e6's interleaving with Decay as the randomized
half) runs no slower on the batched event engine than as serial runs on
the polling reference engine, while every trial stays bit-identical.  Every
trial is its own execution class here, so unlike the
``batched_adaptive_engine`` gate the win cannot come from collapsing
trials: it comes from the idle hints of Decay and the interleaver, which
let the engine poll only the nodes that can act.  Without those hints
the event engines polled every awake node every slot and ran this batch
at ~0.6x the reference engine's speed.  What remains is one ``observe``
and one fresh hint per delivery, and the complete layered network
delivers ~24 messages a slot, so the margin over polling stays small.

The workload comes from the shared benchmark registry
(:func:`repro.obs.suite.interleaved_adaptive_workload`), so the committed
``BENCH_interleaved_adaptive_engine.json`` baseline that ``repro bench``
gates on tracks exactly the run this test measures.
"""

from __future__ import annotations

import time

from repro.analysis import render_table
from repro.obs.suite import interleaved_adaptive_workload
from repro.sim import derive_trial_seeds, run_broadcast
from repro.sim.fast import run_broadcast_batch

REPEATS = 5  # best-of to shave scheduler noise

#: The acceptance bar: the batched event engine must not be slower than
#: serial reference-engine trials on the same batch.  Measured 1.1-1.5x
#: on a 2-vCPU VM; without the Decay and interleaver hints it was ~0.6x.
MIN_SPEEDUP = 1.0


def _best_of_alternating(*thunks, repeats=REPEATS):
    """Best wall time and last result of each thunk.  The thunks run in
    turn, so drift in host speed reaches every side alike."""
    best = [float("inf")] * len(thunks)
    results = [None] * len(thunks)
    for _ in range(repeats):
        for i, thunk in enumerate(thunks):
            start = time.perf_counter()
            results[i] = thunk()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, results


def test_interleaved_batch_speedup_and_identity(table_reporter):
    net, algorithm, trials = interleaved_adaptive_workload(quick=False)
    seeds = derive_trial_seeds(0, trials)

    (reference_s, batched_s), (reference, batched) = _best_of_alternating(
        lambda: [
            run_broadcast(net, algorithm, seed=seed, require_completion=True)
            for seed in seeds
        ],
        lambda: run_broadcast_batch(
            net, algorithm, seeds=seeds, engine="batched_event"
        ),
    )

    # The hints are a pure execution strategy: trial i of the batch
    # equals reference run i exactly.
    assert len(batched) == len(reference) == trials
    for from_batch, polled in zip(batched, reference):
        assert from_batch.completed and polled.completed
        assert from_batch.time == polled.time
        assert from_batch.wake_times == polled.wake_times

    speedup = reference_s / batched_s
    table_reporter.record(
        "interleaved-adaptive-engine",
        render_table(
            ["engine", "wall (s)", "trials/s"],
            [
                ["polling reference (serial)", f"{reference_s:.3f}",
                 f"{trials / reference_s:.1f}"],
                ["batched event", f"{batched_s:.3f}",
                 f"{trials / batched_s:.1f}"],
                ["speedup", f"{speedup:.1f}x", ""],
            ],
            title=(
                f"interleave[BGI | Select-and-Send] x{trials} trials, "
                f"uniform_complete_layered({net.n}, 16)"
            ),
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched event-engine speedup only {speedup:.1f}x over the reference"
    )
