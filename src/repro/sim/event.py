"""Event-driven engine for adaptive protocols (idle-hint slot compression).

The reference :class:`~repro.sim.engine.SynchronousEngine` polls every
awake protocol in every slot and resolves the channel edge by edge, which
makes the paper's adaptive token algorithms (Select-and-Send,
Complete-Layered) cost ``O(n)`` Python calls per slot even though almost
every slot has at most a handful of *active* nodes.  This engine keeps the
reference semantics bit for bit — the differential suite asserts
slot-identical traces, fault counters, and metrics — while exploiting two
structural facts:

1. **Idle hints.**  Protocols may implement
   :meth:`~repro.sim.protocol.Protocol.quiet_until`, promising to neither
   transmit nor react to silence before some future slot.  The engine
   keeps a min-heap of ``(next poll slot, label)`` and touches only the
   nodes whose promise has expired, plus anyone who just received a
   message (delivery voids the promise).  A receiver whose
   :meth:`~repro.sim.protocol.Protocol.observe` returns ``False`` — the
   delivery changed nothing its hint reads — keeps its heap entry and
   is not re-queried; most of Select-and-Send's deliveries are such
   no-ops.  Unhinted protocols default to ``quiet_until(step) == step``
   and are polled every slot, exactly as on the reference engine.

2. **Slot compression.**  When *no* registered node needs polling before
   slot ``s``, the slots in between are provably silent: nobody
   transmits, so nothing is delivered, no coin is flipped, and no state
   changes.  The engine fast-forwards the clock in one jump — capped at
   the next scheduled fault event (crash, jam, wake-delay expiry; see
   :meth:`~repro.sim.faults.FaultPlan.event_slots`) so fault bookkeeping
   lands on exactly the slots it would have — while synthesizing the
   skipped silent slots into the trace and metrics so instrumented
   output stays identical.

``run`` and ``run_step`` share the slot body, picked once per engine: a
plain run (no fault plan, trace, metrics, timings or CD) takes
``_plain_slot``, which has none of the fault, collision and
instrumentation branches of ``_observed_slot``.  A lone transmitter's
deliveries are its neighbour tuple, built into a ``receiver -> sender``
dict in one call; a slot with several is resolved in Python over the
neighbour tuples while their rows are short, and past a measured
crossover (``_PY_RESOLVE_MAX_ENTRIES``) by
:meth:`~repro.sim.channel.ChannelKernel.resolve`, the exactly-once
resolver the macro engine uses too.  Trace records, collision lists
and the informed count are built only when the run records them.

The registered ``event`` engine
(:class:`~repro.sim.batched_event.BatchedEventEngine`) runs one of these
per seed of a call, over one shared channel kernel; the contract
protocols must honour is specified in ``docs/MODEL.md``, and
``docs/PERFORMANCE.md`` discusses when compression actually fires.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from time import perf_counter
from typing import Sequence

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.timings import Timings
from .channel import ChannelKernel
from .engine import SynchronousEngine
from .errors import ConfigurationError
from .faults import FaultPlan, scalar_loss_coin
from .messages import COLLISION_MARKER, Message
from .network import RadioNetwork
from .protocol import BroadcastAlgorithm, Protocol, QUIET_FOREVER
from .trace import TraceLevel

__all__ = ["EventDrivenEngine"]

#: "No upcoming slot" sentinel for heap peeks and fault-event lookups.
_NO_EVENT: int = 1 << 62

#: Multi-transmitter slots whose senders' neighbour rows hold at most this
#: many entries in total are resolved in Python; larger ones by the
#: channel kernel, whose fixed cost only pays off from here on.
#: Timing both resolvers on random transmitter sets (complete layered,
#: G(n, p) and grid topologies; docs/PERFORMANCE.md) put the crossover at
#: 200-240 entries for plain runs and at 300-430 when the collision
#: receivers are listed too; plain runs set the constant.
_PY_RESOLVE_MAX_ENTRIES: int = 200

#: The empty jam set and collision-marked set of most slots.
_NOBODY: frozenset[int] = frozenset()


class EventDrivenEngine(SynchronousEngine):
    """Drop-in :class:`SynchronousEngine` replacement with event stepping.

    Accepts exactly the reference engine's constructor arguments and
    produces bit-identical executions (traces, wake times, fault
    counters, metrics) for *sound* idle hints; the hint contract and its
    safety condition are documented on
    :meth:`repro.sim.protocol.Protocol.quiet_until`.  Engine-side, per
    slot only the nodes whose quiet window expired are polled, and runs
    of provably silent slots are executed as one jump.

    ``kernel`` lets a caller share one precompiled
    :class:`~repro.sim.channel.ChannelKernel` across several engines on
    the same topology — :class:`~repro.sim.batched_event.BatchedEventEngine`
    compiles the CSR arrays once per call, not once per trial.  Sharing
    is safe for engines run *one after another* (the kernel keeps
    per-resolve scratch buffers), which is how that engine runs its
    trials.
    """

    def __init__(
        self,
        network: RadioNetwork,
        algorithm: BroadcastAlgorithm,
        seed: int = 0,
        trace_level: TraceLevel = TraceLevel.NONE,
        collision_detection: bool = False,
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        timings: Timings | None = None,
        kernel: ChannelKernel | None = None,
    ) -> None:
        super().__init__(
            network,
            algorithm,
            seed=seed,
            trace_level=trace_level,
            collision_detection=collision_detection,
            faults=faults,
            metrics=metrics,
            timings=timings,
        )
        if kernel is not None and kernel.network is not network:
            raise ConfigurationError(
                "shared channel kernel was compiled for a different network"
            )
        self._kernel = kernel if kernel is not None else ChannelKernel(network)
        self._out_nbrs = network.out_neighbors
        self._fault_events: tuple[int, ...] = (
            faults.event_slots() if faults is not None else ()
        )
        # What a slot must produce beyond the deliveries is fixed for the
        # whole run: trace records, and the collision receivers that
        # metrics, FULL traces and the CD variant read.
        self._tracing = trace_level is not TraceLevel.NONE
        self._need_collisions = (
            metrics is not None or trace_level is TraceLevel.FULL or collision_detection
        )
        #: A plain run (no fault plan, trace, metrics, timings or CD)
        #: takes the lean slot body.  A flag, not the bound method: that
        #: would tie the engine into a reference cycle, which only the
        #: cyclic collector frees (peak RSS +30 MB on ``adaptive_event``).
        self._plain = (
            faults is None
            and not self._tracing
            and not self._need_collisions
            and timings is None
        )
        #: Min-heap of (poll slot, label) with lazy deletion; an entry is
        #: live iff it matches ``_next_poll[label]``.  Quiet-forever nodes
        #: live only in ``_next_poll`` — a delivery is the sole event that
        #: can reactivate them, and deliveries re-register explicitly.
        self._heap: list[tuple[int, int]] = []
        self._next_poll: dict[int, int] = {}
        #: label -> position in wake order.  A slot with several
        #: transmitters scans their neighbour rows in this order, as the
        #: reference engine does, so nodes wake in the same order.
        self._rank: dict[int, int] = {}
        # The base constructor woke the source before our bookkeeping
        # existed; register every protocol created so far (just the
        # source) for its first poll.
        for label, protocol in self.protocols.items():
            self._rank[label] = len(self._rank)
            self._register(label, protocol, 0)

    # ------------------------------------------------------------------

    def _register(self, label: int, protocol: Protocol, next_step: int) -> None:
        """(Re-)schedule a node's next poll from its idle hint."""
        quiet = protocol.quiet_until(next_step)
        if quiet < next_step:
            quiet = next_step  # a hint may not point into the past
        if self._next_poll.get(label) == quiet:
            return  # already scheduled exactly there; avoid duplicate entries
        self._next_poll[label] = quiet
        if quiet < QUIET_FOREVER:
            heappush(self._heap, (quiet, label))

    def _next_fault_slot(self, step: int) -> int:
        """First scheduled fault event at or after ``step``, or never."""
        events = self._fault_events
        if not events:
            return _NO_EVENT
        i = bisect_left(events, step)
        return events[i] if i < len(events) else _NO_EVENT

    # ------------------------------------------------------------------

    def run_step(self) -> tuple[int, ...]:
        """Execute one slot; returns the labels that transmitted, sorted.

        Polls only the nodes whose quiet window ended (see
        :meth:`_observed_slot`).
        """
        slot = self._plain_slot if self._plain else self._observed_slot
        return tuple(sorted(slot()))

    def _plain_slot(self) -> dict[int, Message]:
        """Execute slot ``self.step`` of a plain run; returns its
        transmissions by sender.

        :meth:`_observed_slot` without its fault, timing, collision,
        metrics and trace branches, which a plain run never takes: the
        same protocol calls in the same order, so the same execution.
        Its own body, not a flag in one: with those branches kept, one
        body ran Select-and-Send's plain runs ~9% slower
        (``docs/PERFORMANCE.md``).
        """
        step = self.step
        heap = self._heap
        next_poll = self._next_poll
        protocols = self.protocols
        active: list[tuple[int, Protocol]] = []
        transmissions: dict[int, Message] = {}
        while heap and heap[0][0] <= step:
            slot, label = heappop(heap)
            if next_poll.get(label) != slot:
                continue  # superseded registration
            next_poll[label] = -1  # consumed; re-registered after the slot
            protocol = protocols[label]
            active.append((label, protocol))
            payload = protocol.next_action(step)
            if payload is not None:
                transmissions[label] = Message(label, payload)

        if len(transmissions) == 1:
            (sender,) = transmissions
            deliveries = dict.fromkeys(self._out_nbrs[sender], sender)
        elif transmissions:
            deliveries = self._resolve(transmissions)[0]
        else:
            deliveries = {}
        touched: dict[int, Protocol] = dict(active)
        rank = self._rank
        get = protocols.get
        for receiver, sender in deliveries.items():
            protocol = get(receiver)
            if protocol is None:
                rank[receiver] = len(protocols)
                self._wake(receiver, step, transmissions[sender])
                touched[receiver] = protocols[receiver]
            elif protocol.observe(step, transmissions[sender]) is not False:
                touched[receiver] = protocol
        for label, protocol in active:
            if label not in deliveries:
                protocol.observe(step, None)

        next_step = step + 1
        for label, protocol in touched.items():
            quiet = protocol.quiet_until(next_step)
            if quiet < next_step:
                quiet = next_step
            if next_poll.get(label) != quiet:
                next_poll[label] = quiet
                if quiet < QUIET_FOREVER:
                    heappush(heap, (quiet, label))
        self.step = next_step
        return transmissions

    def _observed_slot(self) -> dict[int, Message]:
        """Execute slot ``self.step``; returns its transmissions by sender.

        Mirrors :meth:`SynchronousEngine.run_step` phase for phase —
        fault accrual, action collection, channel resolution, the crash
        -> jam -> loss -> wake-delay delivery pipeline, observations,
        metrics, trace — touching ``O(active + receivers)`` protocols
        instead of ``O(awake)``.
        """
        step = self.step
        timings = self.timings
        t_start = perf_counter() if timings is not None else 0.0
        faulty = self.faults is not None
        jam_set = _NOBODY
        counters = self.fault_counters
        if faulty:
            counters.crashed_nodes += self._crashes_by_slot.get(step, 0)
            jam_set = self._jams_by_slot.get(step, _NOBODY)
            counters.jammed_slots += len(jam_set)

        heap = self._heap
        next_poll = self._next_poll
        protocols = self.protocols
        #: (label, protocol) pairs whose quiet window ended this slot.
        active: list[tuple[int, Protocol]] = []
        transmissions: dict[int, Message] = {}
        while heap and heap[0][0] <= step:
            slot, label = heappop(heap)
            if next_poll.get(label) != slot:
                continue  # superseded registration
            if faulty and self._dead(label, step):
                del next_poll[label]  # crashed: silent forever, stop polling
                continue
            next_poll[label] = -1  # consumed; re-registered after the slot
            protocol = protocols[label]
            active.append((label, protocol))
            payload = protocol.next_action(step)
            if payload is not None:
                transmissions[label] = Message(label, payload)
        if timings is not None:
            t_actions = perf_counter()
            timings.add("engine.actions", t_actions - t_start)

        #: receiver -> sender for every delivery of the slot: each
        #: listening receiver with exactly one transmitting in-neighbour,
        #: unless a fault suppresses the reception.
        deliveries: dict[int, int]
        #: The listening receivers with two or more (listed only when
        #: metrics, a FULL trace or the CD variant read them).
        colliding: Sequence[int] = ()
        if len(transmissions) == 1:
            # A lone transmitter (the common slot for token protocols:
            # orders, passes, single replies): every neighbour hears it
            # and nobody collides.
            (sender,) = transmissions
            deliveries = dict.fromkeys(self._out_nbrs[sender], sender)
        elif transmissions:
            deliveries, colliding = self._resolve(transmissions)
        else:
            deliveries = {}
        if faulty:
            deliveries = self._suppress_faults(deliveries, step, jam_set)
        #: Nodes whose promise is void (polled, woken, or changed by a
        #: delivery); re-registered from a fresh hint below.  Ordered and
        #: deduped.
        touched: dict[int, Protocol] = dict(active)
        rank = self._rank
        get = protocols.get
        for receiver, sender in deliveries.items():
            protocol = get(receiver)
            if protocol is None:
                rank[receiver] = len(protocols)
                self._wake(receiver, step, transmissions[sender])
                touched[receiver] = protocols[receiver]
            # A delivery voids any quiet promise, even for nodes that were
            # not polled this slot — unless the node reports that it
            # changed nothing.
            elif protocol.observe(step, transmissions[sender]) is not False:
                touched[receiver] = protocol

        # Silence / CD-marker observations go only to the polled nodes:
        # by the quiet_until contract, a quiet node's behaviour is
        # unchanged by observing either, so skipping it is sound.  (A
        # polled node is alive, so dead colliders never meet the marker.)
        marked = (
            frozenset(colliding) if colliding and self.collision_detection else _NOBODY
        )
        for label, protocol in active:
            if label not in deliveries:
                protocol.observe(step, COLLISION_MARKER if label in marked else None)

        if timings is not None:
            t_channel = perf_counter()
            timings.add("engine.channel", t_channel - t_actions)
            timings.add("engine.step", t_channel - t_start)
        if self.metrics is not None:
            self._slots_counter.inc()
            self._tx_counter.inc(len(transmissions))
            tx_counts = self._tx_counts
            for label in transmissions:
                tx_counts[label] = tx_counts.get(label, 0) + 1
            # Same collision definition as every engine: uninformed
            # receivers with >= 2 transmitting in-neighbours, dead
            # receivers included.
            self._collision_hist.observe(
                sum(1 for receiver in colliding if receiver not in protocols)
            )

        # Re-register every touched node from a fresh hint (inlined
        # _register: this loop runs for every polled node and receiver).
        next_step = step + 1
        for label, protocol in touched.items():
            quiet = protocol.quiet_until(next_step)
            if quiet < next_step:
                quiet = next_step  # a hint may not point into the past
            if next_poll.get(label) != quiet:
                next_poll[label] = quiet
                if quiet < QUIET_FOREVER:
                    heappush(heap, (quiet, label))

        if self._tracing:
            wake_times = self.wake_times
            self.trace.record(
                step=step,
                transmitters=tuple(sorted(transmissions)),
                deliveries=deliveries,
                collisions=tuple(
                    r for r in colliding if not (faulty and self._dead(r, step))
                ),
                woken=tuple(sorted(r for r in deliveries if wake_times[r] == step)),
                informed=len(protocols),
            )
        self.step = next_step
        return transmissions

    def _suppress_faults(
        self, heard: dict[int, int], step: int, jam_set: frozenset[int]
    ) -> dict[int, int]:
        """``heard`` without the receptions a fault suppresses, in the
        reference engine's pipeline order: a crashed receiver hears
        nothing, a jammed one hears noise, a lost message is counted, and
        a sleeper whose wake-up is delayed ignores the message."""
        counters = self.fault_counters
        loss = self._loss_probability
        protocols = self.protocols
        kept: dict[int, int] = {}
        for receiver, sender in heard.items():
            if self._dead(receiver, step) or receiver in jam_set:
                continue
            if loss > 0.0 and scalar_loss_coin(self._fault_seed, receiver, step) < loss:
                counters.lost_messages += 1
                continue
            if receiver not in protocols and step < self._deaf_until.get(receiver, 0):
                counters.delayed_wakes += 1
                continue
            kept[receiver] = sender
        return kept

    def _resolve(
        self, transmissions: dict[int, Message]
    ) -> tuple[dict[int, int], list[int]]:
        """Resolve a slot with two or more transmitters.

        Returns ``receiver -> sender`` for the receivers with exactly one
        transmitting in-neighbour, in order of first occurrence along the
        senders' neighbour rows (senders in wake order), and — when
        metrics, a FULL trace or the CD variant read them — the receivers
        with two or more, sorted.  Transmitters are in neither: they hear
        nothing.  Small sets are resolved in Python over the neighbour
        tuples, large ones by :meth:`ChannelKernel.resolve`.
        """
        senders = sorted(transmissions, key=self._rank.__getitem__)
        out_nbrs = self._out_nbrs
        if sum(map(len, map(out_nbrs.__getitem__, senders))) <= _PY_RESOLVE_MAX_ENTRIES:
            first: dict[int, int] = {}
            hit_twice: set[int] = set()
            for sender in senders:
                for receiver in out_nbrs[sender]:
                    if first.setdefault(receiver, sender) != sender:
                        hit_twice.add(receiver)
            for receiver in hit_twice:
                del first[receiver]
            for sender in senders:
                first.pop(sender, None)  # half-duplex
            if not hit_twice or not self._need_collisions:
                return first, []
            return first, sorted(hit_twice.difference(transmissions))
        kernel = self._kernel
        labels, index = kernel.labels, kernel.index
        tx = np.fromiter(
            (index[s] for s in senders), dtype=np.int64, count=len(senders)
        )
        once, colliding, sent = kernel.resolve(
            tx, collisions=self._need_collisions, senders=True, half_duplex=True
        )
        # Two array gathers rather than two numpy scalar lookups per
        # receiver.
        heard = dict(zip(labels[once].tolist(), labels[sent].tolist()))
        return heard, labels[colliding].tolist()

    # ------------------------------------------------------------------

    def _skip_silent(self, count: int) -> None:
        """Fast-forward ``count`` provably silent slots in one jump.

        No node transmits in a skipped slot, so nothing is delivered, no
        loss coin is flipped, and no protocol state changes; the only
        observable output is the instrumentation itself, which is
        synthesized here exactly as ``count`` silent ``run_step`` calls
        would have produced it.
        """
        timings = self.timings
        t_start = perf_counter() if timings is not None else 0.0
        if self.metrics is not None:
            self._slots_counter.inc(count)
            self._collision_hist.observe_repeated(0, count)
        step = self.step
        self.trace.record_silent(step, count, self.informed_count)
        self.step = step + count
        if timings is not None:
            elapsed = perf_counter() - t_start
            timings.add("engine.skip", elapsed)
            timings.add("engine.step", elapsed)

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run with slot compression; same contract as the reference
        :meth:`SynchronousEngine.run` (skipped slots count as executed —
        they *were* simulated, just in one jump)."""
        if max_steps < 0:
            raise ConfigurationError(f"max_steps must be non-negative, got {max_steps}")
        has_fault_events = bool(self._fault_events)
        # Without crashes "settled" is "informed": one length check a slot.
        crash_free = not self._crash_slots
        protocols = self.protocols
        heap = self._heap
        next_poll = self._next_poll
        slot = self._plain_slot if self._plain else self._observed_slot
        n = self.network.n
        executed = 0
        while executed < max_steps:
            if stop_when_informed and (
                len(protocols) == n if crash_free else self.all_settled
            ):
                break
            step = self.step
            # The earliest live poll, dropping superseded heap entries.
            while heap:
                target, label = heap[0]
                if next_poll.get(label) == target:
                    break
                heappop(heap)
            else:
                target = _NO_EVENT
            if target > step:
                # Jump at most to the next poll, the next scheduled fault
                # event, or the step budget, whichever comes first.
                limit = step + (max_steps - executed)
                if target > limit:
                    target = limit
                if has_fault_events:
                    fault_slot = self._next_fault_slot(step)
                    if fault_slot < target:
                        target = fault_slot
                if target > step:
                    self._skip_silent(target - step)
                    executed += target - step
                    continue
            slot()
            executed += 1
        return executed
