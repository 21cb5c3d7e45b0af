"""Event-engine specifics beyond the shared conformance matrix.

The slot-for-slot identity matrix (adaptive cases x fault plans x
engines, incl. identical failures under loss) moved to
``test_conformance.py`` on top of the harness in ``conformance.py``.
This module keeps what is particular to the *serial* event engine and
the hint contract itself:

* the step-hook stream is gap-free across compressed slots;
* a hypothesis property that :meth:`Protocol.quiet_until` promises are
  honest — a protocol that hints quiet through slot ``s`` must return
  ``None`` from ``next_action`` on every polled slot before ``s``, and a
  delivery its ``observe`` reports a no-op must leave the hint as it was
  (checked on the reference engine, which polls every slot, under
  randomly drawn topologies and fault plans);
* the engine side of the no-op promise: a receiver whose ``observe``
  returns ``False`` is not re-queried, one returning ``None`` is, and a
  protocol that breaks the promise is caught by the checker and makes
  the event engine diverge;
* the same property for the baselines' hints (Decay, round-robin and
  both e6 interleavings), with and without collision detection;
* unit coverage of :class:`~repro.core.echo.QuietEchoSchedule` hint
  values, of the Decay and interleaver hints (including a delivery
  after a Decay run ended at an unpolled slot) and of
  :meth:`FaultPlan.event_slots`;
* both channel resolvers of a multi-transmitter slot (Python over the
  neighbour tuples, and the kernel's ``bincount``) against the
  reference engine on random directed and undirected networks, and the
  order in which nodes wake.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BGIBroadcast,
    InterleavedBroadcast,
    RoundRobinBroadcast,
    SelectiveFamilyBroadcast,
)
from repro.core import CompleteLayeredBroadcast, SelectAndSend
from repro.core.echo import QuietEchoSchedule
from repro.obs.metrics import MetricsRegistry
from repro.sim import FaultPlan, QUIET_FOREVER, SynchronousEngine, run_broadcast
from repro.sim.coins import derive_node_rng
from repro.sim.errors import ProtocolViolationError
from repro.sim.event import EventDrivenEngine
from repro.sim.messages import COLLISION_MARKER, SOURCE_PAYLOAD, Message
from repro.sim.network import RadioNetwork
from repro.sim.protocol import BroadcastAlgorithm, Protocol
from repro.sim.trace import TraceLevel
from repro.topology import gnp_connected, path, uniform_complete_layered

from .conformance import (
    HintCheckedAlgorithm,
    adaptive_faulty_networks,
    full_fault_plan,
)


def test_full_trace_records_every_compressed_slot():
    """A FULL trace holds one record per slot, with its transmitters —
    including the slots the event engine fast-forwarded over in a single
    jump."""
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
# Channel resolution: both resolvers against the reference engine.


class _CoinProtocol(Protocol):
    """Transmits in slot ``t`` iff its coin for ``t`` is below ``p``, or
    right after it observed a collision (which only the CD variant
    reports).  Unhinted, so the event engine polls it every slot."""

    def __init__(self, label, r, rng, p):
        super().__init__(label, r, rng)
        self.p = p
        self.collided = False

    def on_wake(self, step, message):
        pass

    def next_action(self, step):
        if self.collided or self.coin(step) < self.p:
            return self.label
        return None

    def observe(self, step, message):
        self.collided = message is COLLISION_MARKER


class _CoinAlgorithm(BroadcastAlgorithm):
    name = "coin"

    def __init__(self, p):
        self.p = p

    def create(self, label, r, rng):
        return _CoinProtocol(label, r, rng, self.p)


@st.composite
def _radio_networks(draw):
    """A random directed or undirected network on sparse labels: a
    spanning tree out of the source plus arcs of a drawn density, dense
    enough at the top that a few transmitters gather more neighbour
    entries than the Python resolver takes."""
    n = draw(st.integers(min_value=2, max_value=40))
    others = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=4 * n), min_size=n - 1, max_size=n - 1
    )))
    nodes = [0, *others]
    attached = [0]
    edges = []
    for v in draw(st.permutations(others)):
        edges.append((draw(st.sampled_from(attached)), v))
        attached.append(v)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges += [
        (u, v) for u in nodes for v in nodes if u != v and rng.random() < density
    ]
    if draw(st.booleans()):
        return RadioNetwork.directed(nodes, edges)
    return RadioNetwork.undirected(nodes, edges)


@st.composite
def _fault_plans(draw, net):
    if not draw(st.booleans()):
        return None
    labels = sorted(set(net.nodes) - {net.source})
    victims = st.sampled_from(labels) if labels else st.nothing()
    slots = st.integers(min_value=0, max_value=30)
    return FaultPlan(
        crashes=tuple(draw(st.lists(st.tuples(victims, slots), max_size=2,
                                    unique_by=lambda c: c[0]))),
        jams=tuple(draw(st.lists(st.tuples(slots, victims), max_size=4,
                                 unique=True))),
        loss_probability=draw(st.sampled_from([0.0, 0.3])),
        wake_delays=tuple(draw(st.lists(st.tuples(victims, slots), max_size=2,
                                        unique_by=lambda d: d[0]))),
        seed=draw(st.integers(min_value=0, max_value=9)),
    )


def _run(engine_cls, net, p, seed, plan, cd, max_steps):
    metrics = MetricsRegistry()
    engine = engine_cls(net, _CoinAlgorithm(p), seed=seed,
                        trace_level=TraceLevel.FULL, collision_detection=cd,
                        faults=plan, metrics=metrics)
    executed = engine.run(max_steps)
    return engine, executed, metrics


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    net=_radio_networks(),
    p=st.sampled_from([0.1, 0.4, 0.9]),
    seed=st.integers(min_value=0, max_value=1000),
    cd=st.booleans(),
    py_max_entries=st.sampled_from([-1, 1 << 30]),
)
def test_both_resolvers_match_the_reference_engine(
    data, net, p, seed, cd, py_max_entries
):
    """Every multi-transmitter slot runs through the Python resolver
    (bound ``1 << 30``) or through the kernel (bound ``-1``); either way
    the execution — FULL trace, CD observations, metrics, fault tallies,
    wake times and their order — is the reference engine's, and so are
    a plain run's wake times and their order."""
    plan = data.draw(_fault_plans(net))
    reference, ref_steps, ref_metrics = _run(
        SynchronousEngine, net, p, seed, plan, cd, 60
    )
    with mock.patch("repro.sim.event._PY_RESOLVE_MAX_ENTRIES", py_max_entries):
        event, steps, metrics = _run(EventDrivenEngine, net, p, seed, plan, cd, 60)
    assert steps == ref_steps
    assert event.trace.steps == reference.trace.steps
    assert event.trace.informed_counts == reference.trace.informed_counts
    assert list(event.wake_times.items()) == list(reference.wake_times.items())
    assert metrics.to_dict() == ref_metrics.to_dict()
    assert event.transmission_counts() == reference.transmission_counts()
    assert event.fault_counters == reference.fault_counters
    # A plain run takes the lean slot body; it reaches the same resolvers.
    plain_reference = SynchronousEngine(net, _CoinAlgorithm(p), seed=seed)
    plain_reference.run(60)
    with mock.patch("repro.sim.event._PY_RESOLVE_MAX_ENTRIES", py_max_entries):
        plain = EventDrivenEngine(net, _CoinAlgorithm(p), seed=seed)
        assert plain.run(60) == plain_reference.step
    assert list(plain.wake_times.items()) == list(plain_reference.wake_times.items())


@pytest.mark.parametrize("topology_seed", range(4))
@pytest.mark.parametrize("make", [SelectAndSend, lambda: _CoinAlgorithm(0.3)],
                         ids=["select-and-send", "coin"])
def test_wake_times_insertion_order_matches_reference(make, topology_seed):
    """A slot with several transmitters scans their neighbour rows in
    wake order, as the reference engine does, so the nodes it informs
    wake — and enter ``wake_times`` — in the reference engine's order."""
    net = gnp_connected(48, 0.15, seed=topology_seed)
    orders = []
    for engine_cls in (SynchronousEngine, EventDrivenEngine):
        engine = engine_cls(net, make(), seed=topology_seed)
        engine.run(10**5)
        assert engine.all_informed
        orders.append(list(engine.wake_times.items()))
    assert orders[1] == orders[0]


# ---------------------------------------------------------------------------
# The no-op promise: observe() returning False keeps the standing hint.


class _FloodOnceAlgorithm(BroadcastAlgorithm):
    """Every node relays the source message once, in the slot after it
    wakes, and is quiet for ever after.  Its ``observe`` ignores every
    message and answers ``answer``: ``False`` makes the no-op promise,
    ``None`` makes none.  ``hint_calls`` counts ``quiet_until`` calls."""

    name = "flood-once"
    deterministic = True

    def __init__(self, answer):
        self.answer = answer
        self.hint_calls = 0

    def create(self, label, r, rng):
        return _FloodOnceProtocol(label, r, rng, self)


class _FloodOnceProtocol(Protocol):
    def __init__(self, label, r, rng, algorithm):
        super().__init__(label, r, rng)
        self._algorithm = algorithm
        self._relay_at = None

    def on_wake(self, step, message):
        self._relay_at = step + 1

    def next_action(self, step):
        return SOURCE_PAYLOAD if step == self._relay_at else None

    def quiet_until(self, step):
        self._algorithm.hint_calls += 1
        return self._relay_at if step <= self._relay_at else QUIET_FOREVER

    def observe(self, step, message):
        return self._algorithm.answer


@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "full-trace-faults"])
@pytest.mark.parametrize("answer", [False, None], ids=["no-op", "no-promise"])
def test_no_op_observe_skips_the_hint_requery(answer, faulty):
    """The event engine queries a node's hint once at its wake and once
    after each poll; a delivery to an awake node adds a query only when
    ``observe`` does not return ``False``.  Either way the run is the
    reference engine's: plain, and with a FULL trace under a crash, jam,
    loss and wake-delay plan."""
    net = gnp_connected(40, 0.2, seed=2)
    plan = full_fault_plan(net) if faulty else None
    level = TraceLevel.FULL if faulty else TraceLevel.NONE
    reference = SynchronousEngine(
        net, _FloodOnceAlgorithm(answer), seed=3, trace_level=TraceLevel.FULL,
        faults=plan,
    )
    reference.run(200)
    algorithm = _FloodOnceAlgorithm(answer)
    event = EventDrivenEngine(
        net, algorithm, seed=3, trace_level=level, faults=plan
    )
    assert event.run(200) == reference.step
    assert list(event.wake_times.items()) == list(reference.wake_times.items())
    assert event.fault_counters == reference.fault_counters
    if faulty:
        assert event.trace.steps == reference.trace.steps
    records = reference.trace.steps
    polls = sum(len(record.transmitters) for record in records)
    wakes = len(reference.wake_times) - 1
    to_awake = sum(len(record.deliveries) - len(record.woken) for record in records)
    assert to_awake > 0
    requeries = 0 if answer is False else to_awake
    assert algorithm.hint_calls == 1 + polls + wakes + requeries


class _AckAlgorithm(BroadcastAlgorithm):
    """The source transmits in slots 0 and 1; any other awake node that
    hears a message answers it once, in the next slot.  ``observe``
    returns ``answer`` — ``False`` is a lie, since the delivery scheduled
    a transmission."""

    name = "ack"
    deterministic = True

    def __init__(self, answer):
        self.answer = answer

    def create(self, label, r, rng):
        return _AckProtocol(label, r, rng, self.answer)


class _AckProtocol(Protocol):
    def __init__(self, label, r, rng, answer):
        super().__init__(label, r, rng)
        self._answer = answer
        self._pending: set[int] = set()

    def on_wake(self, step, message):
        if message is None:
            self._pending = {0, 1}

    def next_action(self, step):
        if step in self._pending:
            self._pending.discard(step)
            return SOURCE_PAYLOAD
        return None

    def quiet_until(self, step):
        return min((s for s in self._pending if s >= step), default=QUIET_FOREVER)

    def observe(self, step, message):
        if message is not None and self.label != 0:
            self._pending.add(step + 1)
        return self._answer


def test_a_false_no_op_claim_is_caught_and_diverges():
    """Node 1 of the path 0 - 1 - 2 wakes in slot 0 and answers the
    source's second message in slot 2, which wakes node 2.  Reported
    honestly (``None``), the event engine re-queries node 1 and matches
    the reference engine; reported as a no-op (``False``), the checker
    rejects the claim and the event engine never polls node 1 again."""
    net = path(3)
    honest = run_broadcast(net, HintCheckedAlgorithm(_AckAlgorithm(None)),
                           max_steps=10)
    assert honest.completed and honest.wake_times[2] == 2
    assert run_broadcast(
        net, _AckAlgorithm(None), max_steps=10, engine="event"
    ).wake_times == honest.wake_times
    with pytest.raises(AssertionError, match="no-op"):
        run_broadcast(net, HintCheckedAlgorithm(_AckAlgorithm(False)), max_steps=10)
    reference = run_broadcast(net, _AckAlgorithm(False), max_steps=10)
    event = run_broadcast(net, _AckAlgorithm(False), max_steps=10, engine="event")
    assert reference.wake_times == honest.wake_times
    assert not event.completed and 2 not in event.wake_times


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


#: The baselines' hinted protocols: Decay, round-robin, both selective
#: families, and e6's two interleavings with Select-and-Send.
HINTED_BASELINES = {
    "bgi": lambda net: BGIBroadcast(net.r),
    "round-robin": lambda net: RoundRobinBroadcast(net.r),
    "selective-random": lambda net: SelectiveFamilyBroadcast(net.r, seed=3),
    "selective-kautz-singleton": lambda net: SelectiveFamilyBroadcast(
        net.r, "kautz-singleton"
    ),
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
    "selective-random": lambda net: SelectiveFamilyBroadcast(net.r, seed=3),
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


@pytest.mark.parametrize("kind", ["random", "kautz-singleton"])
def test_selective_family_hint_is_the_next_member_slot(kind):
    """Each label's hint is its next slot in the family cycle (found by
    bisection), its transmit decisions are the family's memberships, and
    a label in no set is quiet forever."""
    algo = SelectiveFamilyBroadcast(15, kind, seed=1)
    cycle = algo.cycle_length
    bounds = algo._offsets.tolist()
    sets = [set(algo._members[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    for label in range(16):
        node = algo.create(label, 15, derive_node_rng(0, label))
        member = [label in sets[t % cycle] for t in range(2 * cycle)]
        assert [node.wants_to_transmit(t) for t in range(2 * cycle)] == member
        for step in range(cycle + 3):
            expected = next(t for t in range(step, step + cycle) if member[t])
            assert node.quiet_until(step) == expected
    outsider = algo.create(16, 15, derive_node_rng(0, 16))
    assert outsider.quiet_until(5) == QUIET_FOREVER
    assert not any(outsider.wants_to_transmit(t) for t in range(cycle))


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

