"""Single-run array engine: channel semantics and cross-engine equivalence.

The semantics cases read what happened in each slot from the engine's
FULL-trace step records.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.round_robin import RoundRobinBroadcast
from repro.baselines.selective_schedule import SelectiveFamilyBroadcast
from repro.sim.errors import ConfigurationError
from repro.sim.fast import ASLEEP
from repro.sim.macro import MacroStepEngine, label_set_plan, label_table
from repro.sim.network import RadioNetwork
from repro.sim.run import run_broadcast
from repro.sim.trace import TraceLevel
from repro.topology import gnp_connected, grid, path, star, uniform_complete_layered


class _LabelSetSchedule:
    """Deterministic vector schedule from per-step label sets: one
    label-set slot per step (any awake member transmits)."""

    name = "label-set-schedule"
    deterministic = True

    def __init__(self, slots: dict[int, set[int]]):
        self.slots = slots

    def macro_plan(self, start, count, r):
        steps = range(start, start + count)
        members, offsets = label_table(self.slots.get(t, ()) for t in steps)
        return label_set_plan(start, members, offsets)


def _traced(net, schedule, max_steps=10):
    """Run ``schedule`` on the single-run array engine with a FULL trace;
    returns the engine (its trace's step records carry the transmitters)."""
    engine = MacroStepEngine(net, schedule, trace_level=TraceLevel.FULL)
    engine.run(max_steps)
    return engine


def _transmitters(engine):
    return [record.transmitters for record in engine.trace.steps]


def test_rejects_non_vectorized_algorithm():
    net = path(3)

    class NotVectorized:
        name = "nope"
        deterministic = True

    with pytest.raises(ConfigurationError):
        MacroStepEngine(net, NotVectorized())


def test_exactly_one_rule_and_wake_progression():
    net = star(4)
    engine = _traced(net, _LabelSetSchedule({0: {0}}), max_steps=1)
    assert engine.all_informed
    assert engine.completion_times() == [1]
    (record,) = engine.trace.steps
    assert record.deliveries == {1: 0, 2: 0, 3: 0}


def test_collision_blocks_wake():
    # Nodes 1, 2 adjacent to 3; both transmit at step 1 -> 3 not woken.
    net = RadioNetwork.undirected(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    engine = _traced(net, _LabelSetSchedule({0: {0}, 1: {1, 2}}), max_steps=2)
    assert not engine.all_informed
    assert len(engine.wake_times()) == 3
    assert engine.trace.steps[1].collisions == (0, 3)  # the source hears both
    assert engine.trace.steps[1].woken == ()


def test_no_spontaneous_transmission_in_fast_engine():
    # Schedule says node 2 transmits at step 0, but it is asleep.
    net = path(3)
    engine = _traced(net, _LabelSetSchedule({0: {2}}), max_steps=1)
    assert _transmitters(engine) == [()]


def test_wake_this_step_cannot_transmit_same_step():
    # Node 1 woken at step 0 by the source; schedule wants 1 at step 0 too.
    net = path(3)
    engine = _traced(net, _LabelSetSchedule({0: {0, 1}, 1: {1}}), max_steps=2)
    assert _transmitters(engine) == [(0,), (1,)]
    assert engine.completion_times() == [2]


def test_asleep_sentinel_and_wake_times():
    net = path(3)
    engine = MacroStepEngine(net, _LabelSetSchedule({0: {0}}))
    assert engine.wake_steps[2] == ASLEEP
    engine.run(1)
    assert engine.wake_times() == {0: -1, 1: 0}


@pytest.mark.parametrize(
    "make_net",
    [
        lambda: path(17),
        lambda: star(9),
        lambda: grid(4, 5),
        lambda: gnp_connected(25, 0.25, seed=5),
        lambda: uniform_complete_layered(30, 3),
    ],
)
def test_cross_engine_equivalence_round_robin(make_net):
    """Round-robin is deterministic: both engines must agree exactly."""
    net = make_net()
    algo = RoundRobinBroadcast(net.r)
    ref = run_broadcast(net, algo)
    macro = run_broadcast(net, algo, engine="macro")
    assert ref.completed and macro.completed
    assert ref.time == macro.time
    assert ref.wake_times == macro.wake_times


def test_cross_engine_equivalence_selective_family():
    net = gnp_connected(20, 0.3, seed=2)
    algo = SelectiveFamilyBroadcast(net.r, "random", seed=4)
    ref = run_broadcast(net, algo)
    macro = run_broadcast(net, algo, engine="macro")
    assert ref.time == macro.time
    assert ref.wake_times == macro.wake_times


def test_directed_network_fast_engine():
    net = RadioNetwork.directed([0, 1, 2], [(0, 1), (1, 2)])
    engine = _traced(net, _LabelSetSchedule({0: {0}, 1: {1}}))
    assert engine.all_informed
    assert engine.completion_times() == [2]
    assert _transmitters(engine) == [(0,), (1,)]


def test_run_broadcast_fast_incomplete_result():
    net = path(5)
    result = run_broadcast(net, _LabelSetSchedule({}), max_steps=3, engine="macro")
    assert not result.completed
    assert result.informed == 1
    assert result.time == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=10_000))
def test_cross_engine_property_random_trees(n, seed):
    """Property: engines agree on arbitrary random trees for round-robin."""
    import random as _random

    rng = _random.Random(seed)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    net = RadioNetwork.undirected(range(n), edges)
    algo = RoundRobinBroadcast(net.r)
    assert run_broadcast(net, algo).time == run_broadcast(net, algo, engine="macro").time
