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

Channel resolution uses the precompiled CSR + ``np.bincount`` kernel of
:mod:`repro.sim.channel`, shared with the vectorised oblivious engines in
:mod:`repro.sim.fast`.

The registered ``event`` engine
(:class:`~repro.sim.batched_event.BatchedEventEngine`) runs one of these
per execution class of a call's seeds; the contract protocols must
honour is specified in ``docs/MODEL.md``, and ``docs/PERFORMANCE.md``
discusses when compression actually fires.
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
    execution classes.
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
        #: Scratch transmit flags for the multi-transmitter metric path.
        self._tx_flag = np.zeros(network.n, dtype=bool)
        self._fault_events: tuple[int, ...] = (
            faults.event_slots() if faults is not None else ()
        )
        #: Min-heap of (poll slot, label) with lazy deletion; an entry is
        #: live iff it matches ``_next_poll[label]``.  Quiet-forever nodes
        #: live only in ``_next_poll`` — a delivery is the sole event that
        #: can reactivate them, and deliveries re-register explicitly.
        self._heap: list[tuple[int, int]] = []
        self._next_poll: dict[int, int] = {}
        # The base constructor woke the source before our bookkeeping
        # existed; register every protocol created so far (just the
        # source) for its first poll.
        for label, protocol in self.protocols.items():
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

    def _next_poll_slot(self) -> int:
        """Earliest live heap entry (cleaning superseded ones), or never."""
        heap = self._heap
        next_poll = self._next_poll
        while heap:
            slot, label = heap[0]
            if next_poll.get(label) != slot:
                heappop(heap)  # superseded by a later registration
                continue
            return slot
        return _NO_EVENT

    def _next_fault_slot(self, step: int) -> int:
        """First scheduled fault event at or after ``step``, or never."""
        events = self._fault_events
        if not events:
            return _NO_EVENT
        i = bisect_left(events, step)
        return events[i] if i < len(events) else _NO_EVENT

    # ------------------------------------------------------------------

    def run_step(self) -> tuple[int, ...]:
        """Execute one slot, polling only nodes whose quiet window ended.

        Mirrors :meth:`SynchronousEngine.run_step` phase for phase —
        fault accrual, action collection, channel resolution (via the
        CSR/bincount kernel), the crash -> jam -> loss -> wake-delay
        delivery pipeline, observations, metrics, trace — touching
        ``O(active + receivers)`` protocols instead of ``O(awake)``.
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
        woken: list[int] = []
        collisions: list[int] = []
        collided_listeners: set[int] = set()
        #: Nodes whose promise is void (polled, or received a message);
        #: re-registered from a fresh hint below.  Ordered and deduped.
        touched: dict[int, Protocol] = dict(active)
        record_full = self.trace.level is TraceLevel.FULL
        n_coll = 0
        #: (receiver, sender) pairs for every receiver with exactly one
        #: transmitting in-neighbour.
        heard: Iterable[tuple[int, int]] = ()
        if len(transmissions) == 1:
            # Lone-transmitter fast path (the overwhelmingly common slot for
            # token protocols: orders, passes, single replies).  Every
            # neighbour hears exactly one message — no collisions, no
            # numpy needed; n_coll stays 0.
            (sender,) = transmissions
            heard = zip(self._out_nbrs[sender], repeat(sender))
        elif transmissions:
            kernel = self._kernel
            labels_arr = kernel.labels
            index = kernel.index
            tx = np.fromiter(
                (index[s] for s in transmissions),
                dtype=np.int64,
                count=len(transmissions),
            )
            hits, sender_of, cat = kernel.resolve(tx)
            hc = hits[cat]
            ones = cat[hc == 1]
            # Two array gathers rather than two numpy scalar lookups per
            # receiver.
            heard = zip(
                labels_arr[ones].tolist(), labels_arr[sender_of[ones]].tolist()
            )
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
                self._wake(receiver, step, transmissions[sender])
                woken.append(receiver)
                protocol = protocols[receiver]
            else:
                # A delivery voids any quiet promise, even for nodes that
                # were not polled this slot.
                deliveries[receiver] = sender
                protocol.observe(step, transmissions[sender])
            touched[receiver] = protocol
        if len(transmissions) > 1 and (
            self.metrics is not None or record_full or self.collision_detection
        ):
            coll_idx = np.unique(cat[hc >= 2])
            if coll_idx.size:
                if self.metrics is not None:
                    # Metric collision definition (same as every engine):
                    # receivers with >= 2 transmitting in-neighbours that
                    # are not themselves transmitting, dead receivers
                    # included.
                    tx_flag = self._tx_flag
                    tx_flag[tx] = True
                    n_coll = int((~tx_flag[coll_idx]).sum())
                    tx_flag[tx] = False
                if record_full or self.collision_detection:
                    for ri in coll_idx:
                        receiver = int(labels_arr[ri])
                        if receiver in transmissions:
                            continue
                        if faulty and self._dead(receiver, step):
                            continue
                        if record_full:
                            collisions.append(receiver)
                        if self.collision_detection and receiver in protocols:
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
            self._collision_hist.observe(n_coll)

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

        transmitter_labels = tuple(sorted(transmissions))
        if self.trace.level is not TraceLevel.NONE:
            self.trace.record(
                step=step,
                transmitters=transmitter_labels,
                deliveries=deliveries,
                collisions=tuple(sorted(collisions)),
                woken=tuple(sorted(woken)),
                informed=self.informed_count,
            )
        self.step += 1
        return transmitter_labels

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
        if self.trace.level is not TraceLevel.NONE:
            informed = self.informed_count
            record = self.trace.record
            for t in range(step, step + count):
                record(
                    step=t, transmitters=(), deliveries={}, collisions=(),
                    woken=(), informed=informed,
                )
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
        n = self.network.n
        executed = 0
        while executed < max_steps:
            if stop_when_informed and (
                len(protocols) == n if crash_free else self.all_settled
            ):
                break
            step = self.step
            target = self._next_poll_slot()
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
            self.run_step()
            executed += 1
        return executed
