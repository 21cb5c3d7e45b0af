"""The array engines' ``wake_times``: a read-only mapping, not a dict.

``macro`` results — one seed, or one trial of a union — hand back a
:class:`~repro.sim.macro.WakeTimes` over the run's labels and wake row.
It must stand in for the dict the per-node engines return everywhere a
caller reads one: equality either way round, unpacking, label-order
iteration, ``len``, lookups of sleepers and of labels the network does
not have, pickling and the JSON result documents.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines import RoundRobinBroadcast
from repro.core.randomized import KnownRadiusKP
from repro.sim import ASLEEP, run_broadcast, run_broadcast_batch, run_broadcast_macro
from repro.sim.macro import WakeTimes
from repro.sim.network import RadioNetwork
from repro.sim.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.topology import gnp_random_csr

# Gapped labels: lookups cannot take the label == position shortcut.
_LABELS = (0, 3, 4, 9, 15, 16, 22, 30)


def _gapped_path() -> RadioNetwork:
    edges = list(zip(_LABELS, _LABELS[1:]))
    return RadioNetwork.undirected(_LABELS, edges, r=max(_LABELS))


def _array_results(net, algo, seed, max_steps):
    """The same run alone and as the first trial of a macro union."""
    macro = run_broadcast_macro(net, algo(), seed=seed, max_steps=max_steps)
    union, _ = run_broadcast_batch(net, algo(), seeds=[seed, seed + 1],
                                   max_steps=max_steps, engine="macro")
    return {"macro": macro, "union": union}


@pytest.fixture(
    params=[
        # (network, algorithm, seed, max_steps): both stop with sleepers.
        (_gapped_path, lambda net: RoundRobinBroadcast(net.r), 0, 12),
        (lambda: gnp_random_csr(300, 6 / 300, seed=2),
         lambda net: KnownRadiusKP(net.r, net.radius), 5, 6),
    ],
    ids=["gapped_labels", "csr"],
)
def partial_runs(request):
    make_net, make_algo, seed, max_steps = request.param
    net = make_net()
    reference = run_broadcast(net, make_algo(net), seed=seed, max_steps=max_steps)
    results = _array_results(net, lambda: make_algo(net), seed, max_steps)
    return net, reference, results


class TestMappingSurface:
    def test_dict_equality_both_ways(self, partial_runs):
        _, reference, results = partial_runs
        expected = reference.wake_times
        assert isinstance(expected, dict)
        for result in results.values():
            wake_times = result.wake_times
            assert isinstance(wake_times, WakeTimes)
            assert wake_times == expected
            assert expected == wake_times
            assert not wake_times != expected
            assert {**wake_times} == expected
            assert dict(wake_times) == expected

    def test_instances_compare_as_arrays(self, partial_runs):
        _, reference, results = partial_runs
        macro = results["macro"].wake_times
        assert macro == results["union"].wake_times
        woken = (macro.wake_steps >= 0) & (macro.wake_steps != ASLEEP)
        moved = WakeTimes(macro.labels, macro.wake_steps + woken)
        assert moved != macro
        assert moved != reference.wake_times

    def test_iteration_len_and_lookups(self, partial_runs):
        net, reference, results = partial_runs
        expected = reference.wake_times
        sleepers = [v for v in net.nodes if v not in expected]
        assert sleepers, "the fixture runs must stop with sleepers"
        for result in results.values():
            wake_times = result.wake_times
            assert list(wake_times) == sorted(expected)
            assert list(wake_times.items()) == sorted(expected.items())
            assert list(wake_times.values()) == [expected[v] for v in sorted(expected)]
            assert len(wake_times) == len(expected) == result.informed
            for v in expected:
                assert v in wake_times
                assert wake_times[v] == wake_times.get(v) == expected[v]
            for v in sleepers + [-1, max(net.nodes) + 1, "x", None, 2.5]:
                assert v not in wake_times
                assert wake_times.get(v) is None
                with pytest.raises(KeyError):
                    wake_times[v]

    def test_read_only(self, partial_runs):
        _, _, results = partial_runs
        wake_times = results["macro"].wake_times
        with pytest.raises(TypeError):
            wake_times[0] = 5
        with pytest.raises(ValueError):
            wake_times.wake_steps[0] = 5

    def test_copy_is_detached_from_the_engine_row(self):
        labels = np.arange(4)
        row = np.array([-1, 2, 5, 7])
        wake_times = WakeTimes(labels, row)
        row[1] = 99
        assert wake_times[1] == 2


class TestRoundTrips:
    def test_pickle(self, partial_runs):
        _, reference, results = partial_runs
        for result in results.values():
            loaded = pickle.loads(pickle.dumps(result))
            assert isinstance(loaded.wake_times, WakeTimes)
            assert loaded.wake_times == result.wake_times == reference.wake_times
            assert list(loaded.wake_times) == list(result.wake_times)

    def test_serialization(self, partial_runs, tmp_path):
        _, reference, results = partial_runs
        for name, result in results.items():
            rebuilt = result_from_dict(result_to_dict(result))
            assert rebuilt.wake_times == result.wake_times == reference.wake_times
            assert rebuilt.layer_times == result.layer_times == reference.layer_times
            path = tmp_path / f"{name}.json"
            save_result(result, path)
            assert load_result(path).wake_times == reference.wake_times
