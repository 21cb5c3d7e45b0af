"""Fault-injection layer: plan validation, per-family semantics, counters.

The conformance suite (``test_conformance.py``) pins cross-engine
bit-identity; this module pins what the faults *mean* — mostly on the
reference engine, whose per-node execution is the specification — plus
round-trips of the declarative plan and a property-based check that a
crashed node stays silent on every engine.
"""

from __future__ import annotations

import pytest

from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.sim import (
    ConfigurationError,
    FaultPlan,
    MacroStepEngine,
    SynchronousEngine,
    TraceLevel,
    load_result,
    run_broadcast,
    save_result,
)
from repro.sim.fast import ASLEEP
from repro.sim.faults import FaultCounters, derive_fault_seed
from repro.topology import gnp_connected, path, star

# ----------------------------------------------------------------------
# FaultPlan validation and serialisation


def test_plan_normalises_and_sorts():
    plan = FaultPlan(crashes=[(5, 2), (1, 0)], jams=[(3, 4), (0, 1)])
    assert plan.crashes == ((1, 0), (5, 2))
    assert plan.jams == ((0, 1), (3, 4))
    assert not plan.is_empty
    assert FaultPlan().is_empty


def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        crashes=((2, 3),),
        jams=((0, 1), (1, 1)),
        loss_probability=0.25,
        wake_delays=((4, 9),),
        seed=11,
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_probability": -0.1},
        {"loss_probability": 1.5},
        {"crashes": [(1, 2), (1, 5)]},       # duplicate label
        {"wake_delays": [(3, 2), (3, 4)]},   # duplicate label
        {"jams": [(0, 1), (0, 1)]},          # duplicate pair
        {"crashes": [(1, -1)]},              # negative slot
        {"jams": [(-2, 1)]},
        {"crashes": ["nope"]},               # not a pair
    ],
)
def test_plan_rejects_malformed_input(kwargs):
    with pytest.raises(ConfigurationError):
        FaultPlan(**kwargs)


def test_plan_rejects_unknown_fields_and_missing_labels():
    with pytest.raises(ConfigurationError):
        FaultPlan.from_dict({"crashes": [], "bogus": 1})
    plan = FaultPlan(crashes=((99, 0),))
    with pytest.raises(ConfigurationError):
        run_broadcast(path(5), RoundRobinBroadcast(4), faults=plan)


def test_fault_seed_mixes_run_seed():
    assert derive_fault_seed(1, 2) != derive_fault_seed(1, 3)
    assert derive_fault_seed(1, 2) == derive_fault_seed(1, 2)


# ----------------------------------------------------------------------
# Per-family semantics on the reference engine


def test_crashed_node_partitions_path():
    net = path(8)
    result = run_broadcast(
        net, RoundRobinBroadcast(net.r), faults=FaultPlan(crashes=((4, 0),)),
        max_steps=2000,
    )
    assert not result.completed
    assert set(result.wake_times) == {0, 1, 2, 3}
    assert result.fault_counters.crashed_nodes == 1


def test_crash_mid_run_freezes_the_node():
    """A node that crashes after waking stops relaying onward."""
    net = path(6)
    pristine = run_broadcast(net, RoundRobinBroadcast(net.r), max_steps=2000)
    crash_slot = pristine.wake_times[3] + 1
    result = run_broadcast(
        net,
        RoundRobinBroadcast(net.r),
        faults=FaultPlan(crashes=((3, crash_slot),)),
        max_steps=2000,
    )
    # Node 3 was informed before its crash, but died before its
    # round-robin slot, so node 4 never hears the message.
    assert 3 in result.wake_times and 4 not in result.wake_times


def test_jam_window_suppresses_and_counts():
    net = star(6)  # source 0 transmits in slot 0 and wakes every leaf
    plan = FaultPlan(jams=((0, 2), (1, 2)))
    result = run_broadcast(net, RoundRobinBroadcast(net.r), faults=plan)
    assert result.completed
    assert result.wake_times[2] > 1  # jammed through its first chances
    assert all(result.wake_times[leaf] == 0 for leaf in (1, 3, 4, 5))
    # Both jam events executed, whether or not a delivery was suppressed.
    assert result.fault_counters.jammed_slots == 2


def test_loss_certain_blocks_everything():
    net = path(4)
    plan = FaultPlan(loss_probability=1.0)
    result = run_broadcast(
        net, RoundRobinBroadcast(net.r), faults=plan, max_steps=50
    )
    assert result.informed == 1  # only the source
    assert result.fault_counters.lost_messages > 0


def test_loss_streams_differ_per_run_seed():
    net = gnp_connected(16, 0.4, seed=2)
    plan = FaultPlan(loss_probability=0.5, seed=9)
    algo = RoundRobinBroadcast(net.r)
    a = run_broadcast(net, algo, seed=0, faults=plan, max_steps=5000)
    b = run_broadcast(net, algo, seed=1, faults=plan, max_steps=5000)
    # Deterministic algorithm, same plan: any divergence comes from the
    # per-run loss realisation.
    assert a.wake_times != b.wake_times


def test_wake_delay_defers_and_counts():
    net = star(5)
    plan = FaultPlan(wake_delays=((2, 4),))
    result = run_broadcast(net, RoundRobinBroadcast(net.r), faults=plan)
    assert result.completed
    assert result.wake_times[2] >= 4
    assert result.fault_counters.delayed_wakes >= 1
    assert result.wake_times[1] == 0  # others unaffected


def test_empty_plan_is_inert_but_counted():
    net = gnp_connected(12, 0.4, seed=1)
    algo = BGIBroadcast(net.r)
    pristine = run_broadcast(net, algo, seed=3)
    inert = run_broadcast(net, algo, seed=3, faults=FaultPlan())
    assert pristine.wake_times == inert.wake_times
    assert pristine.fault_counters is None
    assert inert.fault_counters == FaultCounters()


def test_trace_carries_live_counters():
    net = path(4)
    engine = SynchronousEngine(
        net, RoundRobinBroadcast(net.r), faults=FaultPlan(loss_probability=1.0)
    )
    engine.run(10)
    assert engine.trace.fault_counters is engine.fault_counters
    assert engine.trace.fault_counters.lost_messages > 0


def test_result_serialisation_round_trips_counters(tmp_path):
    net = path(5)
    result = run_broadcast(
        net, RoundRobinBroadcast(net.r),
        faults=FaultPlan(loss_probability=0.5, seed=2), max_steps=500,
    )
    assert result.fault_counters.lost_messages > 0
    target = tmp_path / "result.json"
    save_result(result, target)
    loaded = load_result(target)
    assert loaded.fault_counters == result.fault_counters
    # Pristine results keep the key absent entirely.
    pristine = run_broadcast(net, RoundRobinBroadcast(net.r))
    save_result(pristine, target)
    assert load_result(target).fault_counters is None


# ----------------------------------------------------------------------
# Crashed nodes never transmit — on the reference and batched event
# engines via step hooks, on the macro engine via its FULL trace.
# (The drawing strategy lives in the conformance harness so the batched
# property suite shares it.)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from .conformance import faulty_cases  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(case=faulty_cases(), seed=st.integers(0, 2**32))
def test_crashed_node_never_transmits_after_crash_slot(case, seed):
    net, plan, crashed, crash_slot = case
    violations = []

    def hook(step, transmitters):
        if step >= crash_slot and crashed in transmitters:
            violations.append(step)

    engine = SynchronousEngine(
        net, BGIBroadcast(net.r), seed=seed, step_hook=hook, faults=plan
    )
    engine.run(60)
    assert not violations

    macro = MacroStepEngine(
        net, BGIBroadcast(net.r), seed=seed, faults=plan,
        trace_level=TraceLevel.FULL,
    )
    macro.run(60)
    for record in macro.trace.steps:
        if record.step >= crash_slot:
            assert crashed not in record.transmitters, (record.step, crashed)
    # And a crashed-while-asleep node must still be asleep at the end.
    if crashed not in engine.wake_times:
        idx = {label: i for i, label in enumerate(macro.labels)}[crashed]
        assert macro.wake_steps[idx] == ASLEEP

    # Batched event engine: every trial's hook stream is crash-clean too.
    from repro.sim import BatchedEventEngine

    batch_violations = []

    def batch_hook(step, transmitters):
        if step >= crash_slot and crashed in transmitters:
            batch_violations.append(step)

    batched = BatchedEventEngine(
        net, BGIBroadcast(net.r), seeds=[seed, seed + 1],
        faults=plan, step_hooks=[batch_hook, batch_hook],
    )
    batched.run(60)
    assert not batch_violations
