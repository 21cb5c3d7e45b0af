"""Property-based tests of macro unions (hypothesis, dev extra).

``engine="macro"`` runs several seeds as one execution over disjoint
copies of the network.  Four invariants must hold for any seeds and any
small topology:

* union trial ``t`` is the one-seed run with ``seeds[t]`` exactly, at
  any block size and under any fault plan — results, traces, fault
  counters and aggregated metrics (trials are independent: no
  cross-trial state leaks);
* permuting the seed list permutes the results and changes nothing else;
* a batch of one is the reference engine's single run;
* nodes still asleep never transmit (no spontaneous transmissions, the
  radio-model ground rule).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from dataclasses import replace
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import KnownRadiusKP
from repro.obs.metrics import MetricsRegistry
from repro.sim import ENGINES, FaultPlan, MacroStepEngine, run_broadcast, simulate
from repro.sim.run import run_broadcast_batch
from repro.sim.trace import TraceLevel
from repro.topology import gnp_connected, path, star

from .conformance import assert_results_match

SETTINGS = settings(max_examples=20, deadline=None)

ALGORITHMS = [
    lambda net: KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4),
    lambda net: BGIBroadcast(net.r),
    lambda net: RoundRobinBroadcast(net.r),
]


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(["path", "star", "gnp"]))
    n = draw(st.integers(min_value=4, max_value=16))
    if kind == "path":
        return path(n)
    if kind == "star":
        return star(n)
    return gnp_connected(n, 0.4, seed=draw(st.integers(0, 5)))


@st.composite
def fault_plans(draw, net):
    """``None``, or a plan with a crash, jams, a wake delay and maybe loss."""
    if draw(st.booleans()):
        return None
    labels = st.sampled_from(sorted(set(net.nodes) - {net.source}))
    return FaultPlan(
        crashes=((draw(labels), draw(st.integers(0, 20))),),
        jams=tuple((slot, draw(labels)) for slot in range(draw(st.integers(0, 6)))),
        loss_probability=draw(st.sampled_from([0.0, 0.3])),
        wake_delays=((draw(labels), draw(st.integers(0, 15))),),
        seed=draw(st.integers(0, 3)),
    )


def _fingerprint(result):
    return (result.seed, result.completed, result.time, tuple(sorted(result.wake_times.items())))


@SETTINGS
@given(
    net=networks(),
    algo_index=st.integers(0, len(ALGORITHMS) - 1),
    seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=5, unique=True),
    block_size=st.integers(1, 80),
    data=st.data(),
)
def test_union_trials_equal_single_seed_runs(net, algo_index, seeds, block_size, data):
    make = ALGORITHMS[algo_index]
    plan = data.draw(fault_plans(net))
    spec = replace(
        ENGINES["macro"], engine_cls=partial(MacroStepEngine, block_size=block_size)
    )
    kwargs = dict(engine=spec, faults=plan, max_steps=300,
                  trace_level=TraceLevel.FULL)
    union_metrics, serial_metrics = MetricsRegistry(), MetricsRegistry()
    union = simulate(net, make(net), seeds, metrics=union_metrics, **kwargs)
    for t, seed in enumerate(seeds):
        (single,) = simulate(net, make(net), [seed], metrics=serial_metrics,
                             **kwargs)
        assert_results_match(union[t], single, ("trial", t), compare_traces=True)
    assert union_metrics.to_dict() == serial_metrics.to_dict()


@SETTINGS
@given(
    net=networks(),
    algo_index=st.integers(0, len(ALGORITHMS) - 1),
    seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=5, unique=True),
    permutation=st.randoms(use_true_random=False),
)
def test_permuting_seeds_permutes_results(net, algo_index, seeds, permutation):
    make = ALGORITHMS[algo_index]
    shuffled = list(seeds)
    permutation.shuffle(shuffled)

    original = run_broadcast_batch(net, make(net), seeds=seeds)
    permuted = run_broadcast_batch(net, make(net), seeds=shuffled)

    by_seed = {r.seed: _fingerprint(r) for r in original}
    assert [r.seed for r in permuted] == shuffled
    for r in permuted:
        assert _fingerprint(r) == by_seed[r.seed]


@SETTINGS
@given(
    net=networks(),
    algo_index=st.integers(0, len(ALGORITHMS) - 1),
    seed=st.integers(0, 2**32),
)
def test_batch_of_one_equals_single_trial(net, algo_index, seed):
    make = ALGORITHMS[algo_index]
    (batched,) = run_broadcast_batch(net, make(net), seeds=[seed])
    single = run_broadcast(net, make(net), seed=seed)
    assert _fingerprint(batched) == _fingerprint(single)
    assert batched.informed == single.informed
    assert batched.layer_times == single.layer_times


@SETTINGS
@given(
    net=networks(),
    algo_index=st.integers(0, len(ALGORITHMS) - 1),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True),
    slots=st.integers(1, 40),
)
def test_asleep_nodes_never_transmit(net, algo_index, seeds, slots):
    make = ALGORITHMS[algo_index]
    results = run_broadcast_batch(net, make(net), seeds=seeds, max_steps=slots,
                                  trace_level=TraceLevel.FULL)
    for result in results:
        for record in result.trace.steps:
            for label in record.transmitters:
                assert result.wake_times[label] < record.step, (result.seed, label)
