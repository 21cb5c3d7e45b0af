"""BGI Decay baseline."""

from __future__ import annotations

import pytest

from repro.baselines.bgi import BGIBroadcast, default_phase_length
from repro.sim import run_broadcast
from repro.sim.engine import SynchronousEngine
from repro.sim.errors import ConfigurationError
from repro.sim.trace import TraceLevel
from repro.topology import km_hard_layered, path, star, uniform_complete_layered


def test_default_phase_length():
    assert default_phase_length(255) == 2 * 8
    assert default_phase_length(256) == 2 * 9
    assert default_phase_length(1) == 2


def test_rejects_nonpositive_phase():
    with pytest.raises(ConfigurationError):
        BGIBroadcast(63, phase_len=0)


def test_completes_on_zoo(topology_zoo):
    for name, net in topology_zoo.items():
        result = run_broadcast(net, BGIBroadcast(net.r), seed=3)
        assert result.completed, name


def test_fast_engine_completes():
    net = km_hard_layered(300, 12, seed=0)
    result = run_broadcast(net, BGIBroadcast(net.r), seed=5, engine="macro")
    assert result.completed


def test_first_phase_slot_everyone_eligible_transmits():
    """Decay: every node informed before a phase transmits in its slot 0."""
    net = star(6)
    engine = SynchronousEngine(net, BGIBroadcast(net.r), trace_level=TraceLevel.FULL)
    engine.run_step()  # phase 0, slot 0: the source transmits (alone)
    assert engine.trace.steps[0].transmitters == (0,)
    assert engine.informed_count == 6
    # Run to the start of the next phase: all 6 nodes start Decay together.
    phase_len = BGIBroadcast(net.r).phase_len
    for _ in range(phase_len - 1):
        engine.run_step()
    transmitters = engine.run_step()
    assert transmitters == (0, 1, 2, 3, 4, 5)


def test_mid_phase_wake_waits_for_next_phase():
    net = path(3)
    algo = BGIBroadcast(net.r, phase_len=6)
    engine = SynchronousEngine(net, algo, trace_level=TraceLevel.FULL)
    engine.run_step()  # step 0: source informs node 1
    # Node 1 must stay silent for the rest of phase 0.
    for step in range(1, 6):
        tx = engine.run_step()
        assert 1 not in tx, step


def test_decay_activity_is_monotone_within_phase():
    """Once a node's coin kills it, it stays silent until the phase ends."""
    net = star(40)
    algo = BGIBroadcast(net.r, phase_len=10)
    engine = SynchronousEngine(net, algo, trace_level=TraceLevel.FULL)
    engine.run(1 + 10 + 10, stop_when_informed=False)
    records = engine.trace.steps
    phase1 = [set(rec.transmitters) for rec in records if 10 <= rec.step < 20]
    for earlier, later in zip(phase1, phase1[1:]):
        assert later <= earlier


def test_seeds_vary_times():
    net = uniform_complete_layered(150, 6)
    times = {run_broadcast(net, BGIBroadcast(net.r), seed=s, engine="macro").time for s in range(6)}
    assert len(times) > 1


def test_engines_agree_in_distribution():
    net = uniform_complete_layered(100, 5)
    algo = BGIBroadcast(net.r)
    ref = sum(run_broadcast(net, algo, seed=s).time for s in range(6)) / 6
    macro = sum(run_broadcast(net, algo, seed=s, engine="macro").time for s in range(6)) / 6
    assert 0.5 < ref / macro < 2.0
