"""Engine throughput benchmarks (library performance tracking).

Not a paper claim — these keep the engines honest as software.  The
engine workloads come from the shared benchmark registry
(:mod:`repro.obs.suite`), so the numbers pytest-benchmark records here
track the same thunks that ``repro bench`` appends to the
``BENCH_trajectory.jsonl`` trajectory.  Workloads with no registry
equivalent (interactive per-node protocols, engine setup cost, the
batched-vs-serial differential) stay defined locally.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import render_table
from repro.baselines import RoundRobinBroadcast
from repro.core import KnownRadiusKP, SelectAndSend
from repro.obs.suite import default_registry
from repro.sim import repeat_broadcast, run_broadcast
from repro.topology import gnp_connected, km_hard_layered

#: Registry entries exercised through pytest-benchmark (quick variants —
#: the full workloads belong to ``repro bench``).
REGISTRY_BENCHES = [
    "reference_engine",
    "macro_fallback_engine",
    "batched_engine",
    "topology_generation",
    "universal_sequence",
]


@pytest.mark.parametrize("name", REGISTRY_BENCHES)
def test_registry_workload(benchmark, name):
    """One registered workload per test, built once, timed by the fixture."""
    bench = default_registry().get(name)
    thunk = bench.build(True)
    benchmark(thunk)


def test_reference_engine_interactive_protocol(benchmark):
    """Select-and-Send on a 300-node G(n, p): dict-driven protocols.

    Not in the registry — interactive protocols can't run on the
    vectorised engines, and the registry's reference entry pins an
    oblivious workload.
    """
    net = gnp_connected(300, 0.03, seed=9)
    result = benchmark(lambda: run_broadcast(net, SelectAndSend(), require_completion=True))
    assert result.completed


def test_batched_vs_serial_repeat_broadcast(table_reporter):
    """The E1 quick-sweep unit run both ways; batched must win by >= 5x.

    The serial path is ``repeat_broadcast(engine="reference")`` — one
    per-node engine run per seed, which is what the Monte-Carlo loops did
    before batching.  The batched path runs all trials as one macro
    union (``t * n + v`` is node ``v`` of trial ``t``) and returns
    identical per-trial results.
    """
    net = km_hard_layered(256, 64, seed=17)
    algo = KnownRadiusKP(net.r, 64)
    runs = 5

    start = time.perf_counter()
    serial = repeat_broadcast(net, algo, runs=runs, engine="reference")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = repeat_broadcast(net, algo, runs=runs)
    batched_s = time.perf_counter() - start

    assert [r.time for r in batched] == [r.time for r in serial]
    assert [r.wake_times for r in batched] == [r.wake_times for r in serial]

    speedup = serial_s / batched_s
    slots = sum(r.time for r in serial)
    table_reporter.record(
        "engine-throughput",
        render_table(
            ["path", "wall (s)", "trial-slots/s"],
            [
                ["serial reference", f"{serial_s:.3f}", f"{slots / serial_s:.0f}"],
                ["macro union", f"{batched_s:.3f}", f"{slots / batched_s:.0f}"],
                ["speedup", f"{speedup:.1f}x", ""],
            ],
            title=f"repeat_broadcast, km_hard_layered(256, 64), {runs} trials",
        ),
    )
    assert speedup >= 5.0, f"batched speedup only {speedup:.1f}x"


def test_macro_engine_setup_cost(benchmark):
    """Kernel build + first slot: the fixed cost per run."""
    from repro.sim.macro import MacroStepEngine

    net = km_hard_layered(2048, 128, seed=3)
    algo = RoundRobinBroadcast(net.r)

    def setup_and_step():
        engine = MacroStepEngine(net, algo, seed=0)
        engine.run(1)
        return engine

    engine = benchmark(setup_and_step)
    assert engine.step == 1
