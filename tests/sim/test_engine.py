"""Reference-engine semantics: the radio model rules, one by one."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import SynchronousEngine
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message
from repro.sim.network import RadioNetwork
from repro.sim.protocol import BroadcastAlgorithm, Protocol
from repro.sim.trace import TraceLevel


class _Scripted(Protocol):
    """Transmits the payload ``("tick", label)`` at the scripted steps."""

    def __init__(self, label, r, rng, steps):
        super().__init__(label, r, rng)
        self.steps = steps
        self.received: list[tuple[int, int | None]] = []  # (step, sender|None)
        self.wake_message: Message | None = None

    def on_wake(self, step, message):
        self.wake_message = message

    def next_action(self, step):
        return ("tick", self.label) if step in self.steps else None

    def observe(self, step, message):
        self.received.append((step, message.sender if message else None))


class ScriptedAlgorithm(BroadcastAlgorithm):
    """Per-label transmission scripts, for exact channel tests."""

    deterministic = True

    def __init__(self, scripts: dict[int, set[int]]):
        self.name = "scripted"
        self.scripts = scripts

    def create(self, label, r, rng):
        return _Scripted(label, r, rng, self.scripts.get(label, set()))


def star4():
    # 0 at the centre of a star with leaves 1, 2, 3.
    return RadioNetwork.undirected(range(4), [(0, 1), (0, 2), (0, 3)])


def test_single_transmitter_delivers():
    net = star4()
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}}))
    engine.run_step()
    assert engine.informed_count == 4
    assert engine.wake_times == {0: -1, 1: 0, 2: 0, 3: 0}


def test_collision_is_silence():
    # Leaves 1 and 2 both transmit at step 1: centre hears nothing.
    net = star4()
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}, 1: {1}, 2: {1}}))
    engine.run_step()
    engine.run_step()
    centre = engine.protocols[0]
    # Step 0: the centre itself transmitted (hears nothing); step 1: the
    # two simultaneous leaves collide — indistinguishable from silence.
    assert centre.received == [(0, None), (1, None)]


def test_exactly_one_neighbor_delivers_to_listener():
    net = star4()
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}, 1: {1}}))
    engine.run_step()
    engine.run_step()
    centre = engine.protocols[0]
    assert centre.received == [(0, None), (1, 1)]


def test_half_duplex_transmitter_hears_nothing():
    # Centre and leaf 1 transmit simultaneously at step 1; the centre is
    # transmitting so it cannot receive leaf 1's message.
    net = star4()
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0, 1}, 1: {1}}))
    engine.run_step()
    engine.run_step()
    centre = engine.protocols[0]
    assert centre.received == [(0, None), (1, None)]
    # Leaf 2 neighbours only the centre, so it hears the centre's step-1
    # message cleanly (exactly one of ITS neighbours transmitted).
    leaf2 = engine.protocols[2]
    assert leaf2.received == [(1, 0)]


def test_sleeping_nodes_never_act():
    # Node 3's script says transmit at step 0, but it is uninformed: the
    # engine never instantiates it, so nothing is sent.
    net = RadioNetwork.undirected(range(4), [(0, 1), (1, 2), (2, 3)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({3: {0}}))
    transmitters = engine.run_step()
    assert transmitters == ()
    assert 3 not in engine.protocols


def test_wake_step_and_delayed_action():
    # Node 1 woken at step 0; its script transmits at step 1 (not step 0).
    net = RadioNetwork.undirected(range(3), [(0, 1), (1, 2)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}, 1: {1}}))
    assert engine.run_step() == (0,)
    assert engine.run_step() == (1,)
    assert engine.wake_times == {0: -1, 1: 0, 2: 1}
    assert engine.completion_time == 2


def test_wake_message_content():
    net = RadioNetwork.undirected(range(2), [(0, 1)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}}))
    engine.run_step()
    woken = engine.protocols[1]
    assert woken.wake_message == Message(sender=0, payload=("tick", 0))


def test_directed_edge_is_one_way():
    net = RadioNetwork.directed([0, 1], [(0, 1)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}, 1: {1}}))
    engine.run_step()
    assert engine.informed_count == 2
    engine.run_step()  # node 1 transmits; node 0 must NOT hear (no 1->0 arc)
    source = engine.protocols[0]
    assert source.received == [(0, None), (1, None)]


def test_completion_time_none_while_running():
    net = RadioNetwork.undirected(range(3), [(0, 1), (1, 2)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {5}}))
    engine.run_step()
    assert engine.completion_time is None


def test_single_node_network_completes_immediately():
    net = RadioNetwork.undirected([0], [])
    engine = SynchronousEngine(net, ScriptedAlgorithm({}))
    assert engine.all_informed
    assert engine.completion_time == 0


def test_run_respects_stop_when_informed():
    net = RadioNetwork.undirected(range(2), [(0, 1)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0, 5}}))
    executed = engine.run(100)
    assert executed == 1  # informed after the first slot
    engine2 = SynchronousEngine(net, ScriptedAlgorithm({0: {0, 5}}))
    assert engine2.run(10, stop_when_informed=False) == 10


def test_run_negative_max_steps_rejected():
    net = RadioNetwork.undirected(range(2), [(0, 1)])
    engine = SynchronousEngine(net, ScriptedAlgorithm({0: {0}}))
    with pytest.raises(ConfigurationError):
        engine.run(-1)


def test_trace_full_records_channel_events():
    net = star4()
    engine = SynchronousEngine(
        net, ScriptedAlgorithm({0: {0}, 1: {1}, 2: {1}}), trace_level=TraceLevel.FULL
    )
    engine.run_step()
    engine.run_step()
    records = engine.trace.steps
    assert records[0].transmitters == (0,)
    assert records[0].woken == (1, 2, 3)
    assert records[1].transmitters == (1, 2)
    assert records[1].collisions == (0,)
    assert engine.trace.total_transmissions() == 3
    assert engine.trace.total_collisions() == 1
    assert "step" in engine.trace.format_timeline()


def test_trace_progress_level_skips_step_records():
    net = star4()
    engine = SynchronousEngine(
        net, ScriptedAlgorithm({0: {0}}), trace_level=TraceLevel.PROGRESS
    )
    engine.run_step()
    assert engine.trace.steps == []
    assert engine.trace.informed_counts == [4]
    with pytest.raises(ValueError):
        engine.trace.total_transmissions()


def test_full_trace_records_transmitters():
    net = star4()
    engine = SynchronousEngine(
        net,
        ScriptedAlgorithm({0: {0}, 1: {1}}),
        trace_level=TraceLevel.FULL,
    )
    engine.run_step()
    engine.run_step()
    assert [(record.step, record.transmitters) for record in engine.trace.steps] == [
        (0, (0,)),
        (1, (1,)),
    ]


def test_rng_is_seed_and_label_deterministic():
    net = star4()
    a = SynchronousEngine(net, ScriptedAlgorithm({}), seed=9)
    b = SynchronousEngine(net, ScriptedAlgorithm({}), seed=9)
    assert a._make_rng(3).random() == b._make_rng(3).random()
    assert a._make_rng(2).random() != a._make_rng(3).random()
