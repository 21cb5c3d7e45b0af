"""Engine throughput benchmarks (library performance tracking).

Not a paper claim — these keep the engines honest as software.  The
engine workloads come from the shared benchmark registry
(:mod:`repro.obs.suite`), so the numbers pytest-benchmark records here
track the same thunks that ``repro bench`` appends to the
``BENCH_trajectory.jsonl`` trajectory.  Workloads with no registry
equivalent (interactive per-node protocols, engine setup cost) stay
defined locally; the batched-vs-serial speedup is the registry pair
``kp_repeat_union`` (``benchmarks/test_pairs.py``).
"""

from __future__ import annotations

import pytest

from repro.baselines import RoundRobinBroadcast
from repro.core import SelectAndSend
from repro.obs.suite import default_registry
from repro.sim import run_broadcast
from repro.topology import gnp_connected, km_hard_layered

#: Registry entries exercised through pytest-benchmark (quick variants —
#: the full workloads belong to ``repro bench``).
REGISTRY_BENCHES = [
    "reference_engine",
    "selective_union_engine",
    "decay_union_engine",
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
