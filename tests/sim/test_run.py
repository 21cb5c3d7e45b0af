"""run_broadcast / repeat_broadcast drivers and BroadcastResult."""

from __future__ import annotations

import pytest

from repro.baselines.round_robin import RoundRobinBroadcast
from repro.core import SelectAndSend
from repro.core.randomized import KnownRadiusKP
from repro.sim.errors import BroadcastIncompleteError, ConfigurationError
from repro.sim.run import repeat_broadcast, run_broadcast, run_broadcast_batch
from repro.sim.trace import TraceLevel
from repro.topology import path, star, uniform_complete_layered


def test_result_fields_round_robin_path():
    net = path(6)
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    assert result.completed
    assert result.n == 6 and result.radius == 5
    assert result.algorithm.startswith("round-robin")
    assert result.informed == 6
    assert result.wake_times[0] == -1
    assert result.time == max(result.wake_times.values()) + 1


def test_layer_times_monotone():
    net = uniform_complete_layered(30, 3)
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    times = result.layer_times
    assert times[0] == -1
    assert all(a is not None for a in times)
    assert list(times) == sorted(times)


def test_layer_times_partial_when_incomplete():
    net = path(8)
    # Labels along the path are sorted, so round-robin pipelines one hop
    # per slot; four slots leave the far end of the path uninformed.
    result = run_broadcast(net, RoundRobinBroadcast(net.r), max_steps=4)
    assert not result.completed
    assert result.layer_times[-1] is None
    assert result.time == 4


def test_require_completion_raises_with_partial_result():
    net = path(8)
    with pytest.raises(BroadcastIncompleteError) as exc:
        run_broadcast(net, RoundRobinBroadcast(net.r), max_steps=5, require_completion=True)
    assert exc.value.result is not None
    assert exc.value.result.informed < 8


def test_slowdown_vs_radius():
    net = path(4)
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    assert result.slowdown_vs_radius == result.time / 3


def test_trace_level_passthrough():
    net = star(5)
    result = run_broadcast(net, RoundRobinBroadcast(net.r), trace_level=TraceLevel.FULL)
    assert result.trace.steps  # full per-step records present


def test_repeat_broadcast_deterministic_runs_once():
    net = path(5)
    results = repeat_broadcast(net, RoundRobinBroadcast(net.r), runs=10)
    assert len(results) == 1


def test_repeat_broadcast_randomized_uses_distinct_seeds():
    net = uniform_complete_layered(40, 4)
    results = repeat_broadcast(net, KnownRadiusKP(net.r, 4), runs=5, base_seed=100)
    assert len(results) == 5
    assert [r.seed for r in results] == [100, 101, 102, 103, 104]
    assert len({r.time for r in results}) > 1  # randomness shows up


def test_repeat_broadcast_rejects_zero_runs():
    net = path(3)
    with pytest.raises(ConfigurationError):
        repeat_broadcast(net, RoundRobinBroadcast(net.r), runs=0)


def test_same_seed_reproducible():
    net = uniform_complete_layered(40, 4)
    algo = KnownRadiusKP(net.r, 4)
    a = run_broadcast(net, algo, seed=3)
    b = run_broadcast(net, algo, seed=3)
    assert a.time == b.time
    assert a.wake_times == b.wake_times


class _HintlessRoundRobin:
    """Duck-typed algorithm: the protocol surface, minus ``max_steps_hint``.

    Regression fixture — ``run_broadcast`` used to call
    ``algorithm.max_steps_hint`` unconditionally and crashed with
    AttributeError on objects like this one.
    """

    name = "hintless-round-robin"

    def __init__(self, r: int):
        self._inner = RoundRobinBroadcast(r)

    def create(self, label, r, rng):
        return self._inner.create(label, r, rng)


def test_default_max_steps_prefers_the_algorithm_hint():
    from repro.sim import default_max_steps

    net = path(6)
    algo = RoundRobinBroadcast(net.r)
    assert default_max_steps(net, algo) == algo.max_steps_hint(net.n, net.r)


def test_default_max_steps_fallback_is_pinned():
    from repro.sim import default_max_steps

    net = path(6)
    expected = 64 * net.n * (net.n.bit_length() + 1)
    assert default_max_steps(net, _HintlessRoundRobin(net.r)) == expected


def test_run_broadcast_accepts_hintless_algorithms():
    net = path(6)
    result = run_broadcast(net, _HintlessRoundRobin(net.r))
    assert result.completed
    assert result.algorithm == "hintless-round-robin"


class _Duck:
    """Duck-typed algorithm with only ``name`` and ``create``: no
    ``deterministic`` attribute, so every driver must treat it as
    randomized and run every seed.

    Regression fixture — ``repeat_broadcast`` used to read
    ``algorithm.deterministic`` directly and crashed with AttributeError
    where ``run_broadcast_batch`` ran the same object.
    """

    name = "duck"

    def create(self, label, r, rng):
        return SelectAndSend().create(label, r, rng)


def test_drivers_run_every_seed_of_an_algorithm_without_the_flag():
    net = path(6)
    expected = run_broadcast(net, SelectAndSend()).wake_times
    batch = run_broadcast_batch(net, _Duck(), trials=3)
    repeated = repeat_broadcast(net, _Duck(), runs=3)
    for results in (batch, repeated):
        assert [r.seed for r in results] == [0, 1, 2]
        assert all(r.wake_times == expected for r in results)
