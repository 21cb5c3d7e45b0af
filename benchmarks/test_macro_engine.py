"""Macro-step engine gates (library performance tracking).

Not a paper claim — the macro path exists so million-node broadcasts fit
in an interactive loop, and these gates keep that promise honest:

* **Unions stay bit-identical at scale**: on the registry's
  ``million_node_engine`` workload (KP known-radius on sparse G(n, p),
  n = 10^5) a two-seed :class:`~repro.sim.MacroStepEngine` union
  reproduces the two one-seed runs node for node, including the slots it
  resolves from the sleepers' side over the union.

CSR topology generation against the legacy builder is the registry pair
``topology_layered_csr`` (``benchmarks/test_pairs.py``).
"""

from __future__ import annotations

import pytest

from repro.obs.suite import million_node_workload
from repro.sim import MacroStepEngine, default_max_steps, run_broadcast_macro


def test_union_matches_single_runs_on_million_node_workload():
    """A two-seed union against the two one-seed runs, at the scale the
    macro engine exists for (the conformance matrix covers small n)."""
    net, algo = million_node_workload(quick=False)
    seeds = [1, 2]
    union = MacroStepEngine(net, algo, seeds)
    union.run(default_max_steps(net, algo))
    assert union._sl_idx is not None  # the sleepers' side ran over the union
    times = union.completion_times()
    for t, seed in enumerate(seeds):
        single = run_broadcast_macro(net, algo, seed=seed)
        assert single.completed
        assert times[t] == single.time
        assert union.wake_times(t) == single.wake_times


def test_macro_registry_workload_quick(benchmark):
    """The registered workload's quick variant under pytest-benchmark."""
    net, algo = million_node_workload(quick=True)
    result = benchmark(lambda: run_broadcast_macro(net, algo, seed=1))
    assert result.completed


@pytest.mark.parametrize("quick", [True])
def test_workload_is_deterministic(quick):
    """The registered workload pins its topology: same arrays every build."""
    a, _ = million_node_workload(quick)
    b, _ = million_node_workload(quick)
    ai, bi = a.csr_arrays()[1], b.csr_arrays()[1]
    assert ai.shape == bi.shape and (ai == bi).all()
