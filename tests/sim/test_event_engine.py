"""Event-engine specifics beyond the shared conformance matrix.

The slot-for-slot identity matrix (adaptive cases x fault plans x
engines, incl. identical failures under loss) moved to
``test_conformance.py`` on top of the harness in ``conformance.py``.
This module keeps what is particular to the *serial* event engine and
the hint contract itself:

* the step-hook stream is gap-free across compressed slots;
* a hypothesis property that :meth:`Protocol.quiet_until` promises are
  honest — a protocol that hints quiet through slot ``s`` must return
  ``None`` from ``next_action`` on every polled slot before ``s``
  (checked on the reference engine, which polls every slot, under
  randomly drawn topologies and fault plans);
* the same property for the baselines' hints (Decay, round-robin and
  both e6 interleavings), with and without collision detection;
* unit coverage of :class:`~repro.core.echo.QuietEchoSchedule` hint
  values, of the Decay and interleaver hints (including a delivery
  after a Decay run ended at an unpolled slot) and of
  :meth:`FaultPlan.event_slots`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BGIBroadcast, InterleavedBroadcast, RoundRobinBroadcast
from repro.core import CompleteLayeredBroadcast, SelectAndSend
from repro.core.echo import QuietEchoSchedule
from repro.sim import FaultPlan, QUIET_FOREVER, run_broadcast
from repro.sim.coins import derive_node_rng
from repro.sim.errors import ProtocolViolationError
from repro.sim.messages import SOURCE_PAYLOAD, Message
from repro.sim.trace import TraceLevel
from repro.topology import path, uniform_complete_layered

from .conformance import HintCheckedAlgorithm, adaptive_faulty_networks


def test_full_trace_records_every_compressed_slot():
    """A FULL trace holds one record per slot, with its transmitters —
    including the slots the event engine fast-forwarded over in a single
    jump."""
    from repro.sim import SynchronousEngine
    from repro.sim.event import EventDrivenEngine

    net = path(24, relabel="shuffled", seed=5)
    streams = {}
    for name, engine_cls in (
        ("reference", SynchronousEngine),
        ("event", EventDrivenEngine),
    ):
        engine = engine_cls(net, SelectAndSend(), trace_level=TraceLevel.FULL)
        engine.run(4000)
        streams[name] = [
            (record.step, record.transmitters) for record in engine.trace.steps
        ]
    assert streams["event"] == streams["reference"]
    # Sanity: the stream really is per-slot and gap-free, and has silent
    # slots for the event engine to compress.
    assert [step for step, _ in streams["event"]] == list(
        range(len(streams["event"]))
    )
    assert any(not tx for _, tx in streams["event"])


# ---------------------------------------------------------------------------
# Hint honesty: quiet promises can never hide an action.


@settings(max_examples=25, deadline=None)
@given(case=adaptive_faulty_networks())
def test_quiet_until_never_hides_an_action(case):
    net, plan = case
    try:
        run_broadcast(
            net,
            HintCheckedAlgorithm(SelectAndSend()),
            faults=plan,
            require_completion=False,
            max_steps=3000,
        )
    except ProtocolViolationError:
        # Echo is not fault-tolerant: a crash or jam mid-procedure can make
        # its outcomes inconsistent and abort the run.  That is an algorithm
        # property, not a hint violation — the wrapper's assertions (plain
        # AssertionError) are what this test is about, and they fired on
        # every polled slot up to the abort.
        pass


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=48),
    depth=st.integers(min_value=2, max_value=6),
    relabel_seed=st.integers(min_value=0, max_value=1000),
)
def test_quiet_until_never_hides_an_action_layered(n, depth, relabel_seed):
    depth = min(depth, n - 2)
    net = uniform_complete_layered(n, depth, relabel_seed=relabel_seed)
    run_broadcast(
        net,
        HintCheckedAlgorithm(CompleteLayeredBroadcast()),
        require_completion=True,
    )


#: The baselines' hinted protocols: Decay, round-robin, and e6's two
#: interleavings with Select-and-Send.
HINTED_BASELINES = {
    "bgi": lambda net: BGIBroadcast(net.r),
    "round-robin": lambda net: RoundRobinBroadcast(net.r),
    "interleaved-bgi-ss": lambda net: InterleavedBroadcast(
        BGIBroadcast(net.r), SelectAndSend()
    ),
    "interleaved-rr-ss": lambda net: InterleavedBroadcast(
        RoundRobinBroadcast(net.r), SelectAndSend()
    ),
}


@settings(max_examples=30, deadline=None)
@given(
    case=adaptive_faulty_networks(),
    name=st.sampled_from(sorted(HINTED_BASELINES)),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_baseline_hints_never_hide_an_action(case, name, seed):
    net, plan = case
    try:
        run_broadcast(
            net,
            HintCheckedAlgorithm(HINTED_BASELINES[name](net)),
            seed=seed,
            faults=plan,
            require_completion=False,
            max_steps=3000,
        )
    except ProtocolViolationError:
        # Only the Select-and-Send half can abort under faults (see
        # test_quiet_until_never_hides_an_action).
        assert "interleaved" in name


#: Hinted baselines whose protocols accept collision markers (Select-and-
#: Send does not run under the CD variant).
CD_BASELINES = {
    "bgi": lambda net: BGIBroadcast(net.r),
    "round-robin": lambda net: RoundRobinBroadcast(net.r),
    "interleaved-rr-bgi": lambda net: InterleavedBroadcast(
        RoundRobinBroadcast(net.r), BGIBroadcast(net.r)
    ),
}


@pytest.mark.parametrize("name", sorted(CD_BASELINES))
def test_baseline_hints_under_collision_detection(name):
    """Markers reach only polled nodes on the event engine; the hinted
    baselines must neither act inside a promise nor diverge from the
    reference engine when collisions are detectable."""
    net = uniform_complete_layered(40, 4, relabel_seed=3)
    make = CD_BASELINES[name]
    for seed in (0, 7):
        checked = run_broadcast(
            net, HintCheckedAlgorithm(make(net)), seed=seed,
            collision_detection=True, trace_level=TraceLevel.FULL,
        )
        event = run_broadcast(
            net, make(net), seed=seed, collision_detection=True,
            trace_level=TraceLevel.FULL, engine="event",
        )
        assert checked.completed
        assert event.wake_times == checked.wake_times
        assert event.trace.steps == checked.trace.steps


# ---------------------------------------------------------------------------
# Unit coverage for the hint itself.


def test_quiet_echo_schedule_hint_values():
    class _Node(QuietEchoSchedule):
        def __init__(self):
            self.stopped = False
            self.scheduled = {}
            self._awaiting = None

    node = _Node()
    # Nothing scheduled, nothing awaited: quiet forever (until spoken to).
    assert node.quiet_until(3) == QUIET_FOREVER
    # Earliest scheduled slot at or after `step` bounds the promise.
    node.scheduled = {10: "x", 7: "y", 2: "z"}
    assert node.quiet_until(3) == 7
    assert node.quiet_until(8) == 10
    assert node.quiet_until(11) == QUIET_FOREVER
    # A slot with a scheduled transmission short-circuits: busy now.
    assert node.quiet_until(7) == 7
    assert node.quiet_until(2) == 2
    # Inside an Echo observation window silence is information: no promise.
    node._awaiting = ("announce", 4)
    assert node.quiet_until(5) == 5
    assert node.quiet_until(6) == 6
    # Before the window opens, the window's first slot caps the promise.
    assert node.quiet_until(4) == 5
    # A stopped node never acts again.
    node.stopped = True
    assert node.quiet_until(0) == QUIET_FOREVER


def test_fault_plan_event_slots():
    plan = FaultPlan(
        crashes=((5, 12), (6, 3)),
        jams=((0, 5), (9, 6)),
        loss_probability=0.5,
        wake_delays=((7, 20),),
        seed=1,
    )
    # Crash slots, jam slots, and wake-delay expiries, sorted and deduped;
    # loss has no schedule (it is per-delivery) so it contributes nothing.
    assert plan.event_slots() == (0, 3, 9, 12, 20)


def _decay_node(phase_len: int, label: int = 3, seed: int = 11):
    algo = BGIBroadcast(r=63, phase_len=phase_len)
    node = algo.create(label, 63, derive_node_rng(seed, label))
    node.wake_step = -1
    node.on_wake(-1, None)
    return node


def _broken_run(node, phase_len: int) -> tuple[int, int]:
    """First (phase start, break offset) whose Decay run ends early
    enough that a later slot of the same phase remains."""
    for phase_start in range(0, 64 * phase_len, phase_len):
        for offset in range(1, phase_len - 1):
            if node.coin(phase_start + offset) >= 0.5:
                return phase_start, offset
    raise AssertionError("no early break in 64 phases")


def test_decay_hint_after_delivery_following_an_unpolled_break():
    """The event engine skips the slot where a Decay run ends, then a
    delivery later in the phase re-queries the hint.  The hint must not
    report the run as live, and next_action must stay silent, exactly as
    on a node polled every slot."""
    L = 8
    hinted, polled = _decay_node(L), _decay_node(L)
    phase_start, k = _broken_run(hinted, L)
    # Drive both to the break: the hinted node as the event engine does
    # (hint, then poll while due), the other polled every slot.
    for t in range(phase_start + 1):
        polled.next_action(t)
        if hinted.quiet_until(t) == t:
            hinted.next_action(t)
    for t in range(phase_start + 1, phase_start + k):
        assert hinted.quiet_until(t) == t
        assert hinted.next_action(t) == polled.next_action(t) == SOURCE_PAYLOAD
    # The run ends at phase_start + k: the event engine leaves it unpolled.
    assert hinted.quiet_until(phase_start + k) == phase_start + L
    assert polled.next_action(phase_start + k) is None
    # A delivery one slot later voids the promise; the fresh hint and any
    # poll in the rest of the phase agree with the every-slot node.
    delivered_at = phase_start + k + 1
    hinted.observe(delivered_at, Message(5, SOURCE_PAYLOAD))
    for t in range(delivered_at, phase_start + L):
        assert hinted.quiet_until(t) == phase_start + L
        assert hinted.next_action(t) is None
        assert polled.next_action(t) is None
    # The next phase opens as usual on both.
    assert hinted.quiet_until(phase_start + L) == phase_start + L
    assert hinted.next_action(phase_start + L) == polled.next_action(
        phase_start + L
    )
    # A node woken mid-phase sits the phase out.
    late = _decay_node(L)
    late.wake_step = phase_start + 1
    assert late.quiet_until(phase_start + 2) == phase_start + L
    assert late.quiet_until(phase_start + L) == phase_start + L


def test_decay_hint_queries_do_not_change_actions():
    """Querying the hint before every poll (what the hint-checking
    wrapper does) yields the actions of a node that is never queried."""
    queried, plain = _decay_node(5, label=9), _decay_node(5, label=9)
    for t in range(400):
        queried.quiet_until(t)
        assert queried.next_action(t) == plain.next_action(t), t


def test_decay_hint_without_slot_coins_makes_no_promise_mid_run():
    """A plain sequential RNG (protocol built outside an engine) cannot be
    flipped ahead of the poll: mid-run the hint falls back to "due"."""
    import random

    node = BGIBroadcast(r=63, phase_len=6).create(3, 63, random.Random(1))
    node.wake_step = -1
    assert node.next_action(0) == SOURCE_PAYLOAD
    assert node.quiet_until(1) == 1


def test_round_robin_hint_values():
    node = RoundRobinBroadcast(9).create(4, 9, derive_node_rng(0, 4))
    assert node.quiet_until(0) == 4
    assert node.quiet_until(4) == 4
    assert node.quiet_until(5) == 14
    assert node.quiet_until(14) == 14


def test_interleaved_hint_maps_local_slots_to_global():
    # Round-robin label 2, period 4, on both streams: local slots 2, 6, ...
    algo = InterleavedBroadcast(RoundRobinBroadcast(3), RoundRobinBroadcast(3))
    node = algo.create(2, 3, derive_node_rng(0, 2))
    node.wake_step = -1
    node.on_wake(-1, None)
    # Even stream: local 2 -> global 4; odd stream: local 2 -> global 5.
    assert node.quiet_until(0) == 4
    assert node.quiet_until(4) == 4
    assert node.quiet_until(5) == 5
    # Next even: local 6 -> 12; next odd: local 6 -> 13.
    assert node.quiet_until(6) == 12
    assert node.quiet_until(13) == 13
    # Quiet forever only when both streams are.
    idle = InterleavedBroadcast(SelectAndSend(), SelectAndSend()).create(
        1, 3, derive_node_rng(0, 1)
    )
    assert idle.quiet_until(7) == QUIET_FOREVER

