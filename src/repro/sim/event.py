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
   message (delivery voids the promise).  Unhinted protocols default to
   ``quiet_until(step) == step`` and are polled every slot, exactly as on
   the reference engine.

2. **Slot compression.**  When *no* registered node needs polling before
   slot ``s``, the slots in between are provably silent: nobody
   transmits, so nothing is delivered, no coin is flipped, and no state
   changes.  The engine fast-forwards the clock in one jump — capped at
   the next scheduled fault event (crash, jam, wake-delay expiry; see
   :meth:`~repro.sim.faults.FaultPlan.event_slots`) so fault bookkeeping
   lands on exactly the slots it would have — while synthesizing the
   skipped silent slots into the trace and metrics so instrumented
   output stays identical.

``run`` and ``run_step`` share one slot body (``_slot``).  A lone
transmitter reaches its neighbour tuple directly; a slot with several is
resolved in Python over the neighbour tuples while their rows are short,
and by the precompiled CSR + ``np.bincount`` kernel of
:mod:`repro.sim.channel` past a measured crossover
(``_PY_RESOLVE_MAX_ENTRIES``).  Trace records, collision lists and the
informed count are built only when the run records them.

The registered ``event`` engine
(:class:`~repro.sim.batched_event.BatchedEventEngine`) runs one of these
per seed of a call, over one shared channel kernel; the contract
protocols must honour is specified in ``docs/MODEL.md``, and
``docs/PERFORMANCE.md`` discusses when compression actually fires.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import repeat
from time import perf_counter
from typing import Iterable

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
#: kernel's ``bincount``, whose fixed cost only pays off from here on.
#: Timing both resolvers on random transmitter sets (complete layered,
#: G(n, p) and grid topologies; docs/PERFORMANCE.md) put the crossover at
#: 200-240 entries for plain runs and at 300-430 when the collision
#: receivers are listed too; plain runs set the constant.
_PY_RESOLVE_MAX_ENTRIES: int = 200


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
        #: Scratch transmit flags for the kernel resolver.
        self._tx_flag = np.zeros(network.n, dtype=bool)
        self._fault_events: tuple[int, ...] = (
            faults.event_slots() if faults is not None else ()
        )
        # What a slot must produce beyond the deliveries is fixed for the
        # whole run: trace records, FULL collision lists, and the
        # collision receivers that metrics, FULL traces and the CD
        # variant read.
        self._tracing = trace_level is not TraceLevel.NONE
        self._trace_full = trace_level is TraceLevel.FULL
        self._need_collisions = (
            metrics is not None or self._trace_full or collision_detection
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

        Polls only the nodes whose quiet window ended (see :meth:`_slot`).
        """
        return tuple(sorted(self._slot()))

    def _slot(self) -> dict[int, Message]:
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
        jam_set: frozenset[int] = frozenset()
        counters = self.fault_counters
        if faulty:
            counters.crashed_nodes += self._crashes_by_slot.get(step, 0)
            jam_set = self._jams_by_slot.get(step, frozenset())
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
                transmissions[label] = Message(sender=label, payload=payload)
        if timings is not None:
            t_actions = perf_counter()
            timings.add("engine.actions", t_actions - t_start)

        deliveries: dict[int, int] = {}
        tracing = self._tracing
        woken: list[int] = []
        #: Nodes whose promise is void (polled, or received a message);
        #: re-registered from a fresh hint below.  Ordered and deduped.
        touched: dict[int, Protocol] = dict(active)
        #: (receiver, sender) pairs for every receiver with exactly one
        #: transmitting in-neighbour, and the listening receivers with two
        #: or more.
        heard: Iterable[tuple[int, int]] = ()
        colliding: list[int] = []
        if len(transmissions) == 1:
            # A lone transmitter (the common slot for token protocols:
            # orders, passes, single replies): every neighbour hears it
            # and nobody collides.
            (sender,) = transmissions
            heard = zip(self._out_nbrs[sender], repeat(sender))
        elif transmissions:
            heard, colliding = self._resolve(transmissions)
        rank = self._rank
        for receiver, sender in heard:
            if receiver in transmissions:
                continue  # half-duplex: transmitters hear nothing
            if faulty:
                if self._dead(receiver, step):
                    continue  # crashed nodes receive nothing
                if receiver in jam_set:
                    continue  # jammed: indistinguishable from silence
                if (
                    self._loss_probability > 0.0
                    and scalar_loss_coin(self._fault_seed, receiver, step)
                    < self._loss_probability
                ):
                    counters.lost_messages += 1
                    continue
            protocol = protocols.get(receiver)
            if protocol is None:
                if faulty and step < self._deaf_until.get(receiver, 0):
                    counters.delayed_wakes += 1
                    continue  # wake-up delayed: the message is ignored
                deliveries[receiver] = sender
                rank[receiver] = len(protocols)
                self._wake(receiver, step, transmissions[sender])
                if tracing:
                    woken.append(receiver)
                protocol = protocols[receiver]
            else:
                # A delivery voids any quiet promise, even for nodes that
                # were not polled this slot.
                deliveries[receiver] = sender
                protocol.observe(step, transmissions[sender])
            touched[receiver] = protocol
        collisions: list[int] = []
        collided_listeners: set[int] = set()
        cd = self.collision_detection
        if colliding and (self._trace_full or cd):
            for receiver in colliding:
                if faulty and self._dead(receiver, step):
                    continue
                collisions.append(receiver)
                if cd and receiver in protocols:
                    collided_listeners.add(receiver)

        # Silence / CD-marker observations go only to the polled nodes:
        # by the quiet_until contract, a quiet node's behaviour is
        # unchanged by observing either, so skipping it is sound.
        for label, protocol in active:
            if label not in deliveries:
                protocol.observe(
                    step, COLLISION_MARKER if label in collided_listeners else None
                )

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

        if tracing:
            self.trace.record(
                step=step,
                transmitters=tuple(sorted(transmissions)),
                deliveries=deliveries,
                collisions=tuple(collisions),
                woken=tuple(sorted(woken)),
                informed=len(protocols),
            )
        self.step = next_step
        return transmissions

    def _resolve(
        self, transmissions: dict[int, Message]
    ) -> tuple[Iterable[tuple[int, int]], list[int]]:
        """Resolve a slot with two or more transmitters.

        Returns the ``(receiver, sender)`` pairs of the receivers with
        exactly one transmitting in-neighbour, in order of first
        occurrence along the senders' neighbour rows (senders in wake
        order), and — when metrics, a FULL trace or the CD variant read
        them — the receivers with two or more that are not transmitting
        themselves, sorted.  Small sets are resolved in Python over the
        neighbour tuples, large ones by the kernel's ``bincount``.
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
            if not hit_twice:
                return first.items(), []
            heard = [(r, s) for r, s in first.items() if r not in hit_twice]
            if not self._need_collisions:
                return heard, []
            return heard, sorted(r for r in hit_twice if r not in transmissions)
        kernel = self._kernel
        labels = kernel.labels
        index = kernel.index
        tx = np.fromiter(
            (index[s] for s in senders), dtype=np.int64, count=len(senders)
        )
        hits, sender_of, cat = kernel.resolve(tx)
        hc = hits[cat]
        ones = cat[hc == 1]
        # Two array gathers rather than two numpy scalar lookups per
        # receiver.
        heard = zip(labels[ones].tolist(), labels[sender_of[ones]].tolist())
        if not self._need_collisions:
            return heard, []
        coll_idx = np.unique(cat[hc >= 2])
        tx_flag = self._tx_flag
        tx_flag[tx] = True
        coll_idx = coll_idx[~tx_flag[coll_idx]]
        tx_flag[tx] = False
        return heard, labels[coll_idx].tolist()

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
        slot = self._slot
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
