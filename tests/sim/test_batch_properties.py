"""Property-based tests of the batched engine (hypothesis, dev extra).

Three invariants of :func:`run_broadcast_batch` that must hold for any
seeds and any small topology:

* permuting the seed list permutes the results and changes nothing else
  (trials are independent — no cross-trial state leaks);
* a batch of one is the single-trial single-run engine exactly;
* nodes still holding the ``ASLEEP`` sentinel never transmit (no
  spontaneous transmissions, the radio-model ground rule).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import KnownRadiusKP
from repro.sim import run_broadcast
from repro.sim.fast import BatchedFastEngine, run_broadcast_batch
from repro.topology import gnp_connected, path, star

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


def _fingerprint(result):
    return (result.seed, result.completed, result.time, tuple(sorted(result.wake_times.items())))


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
    single = run_broadcast(net, make(net), seed=seed, engine="macro")
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
    engine = BatchedFastEngine(net, make(net), seeds)
    for _ in range(slots):
        asleep_before = ~engine.awake
        mask = engine.run_step()
        assert not np.logical_and(mask, asleep_before).any()
        if engine.all_informed:
            break
