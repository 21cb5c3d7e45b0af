"""Synchronous radio-channel engine (reference implementation).

Implements the model of Section 1.3 exactly:

* time proceeds in synchronous slots;
* in each slot a node either transmits or listens;
* a listening node receives a message iff **exactly one** of its
  in-neighbours transmits — two or more transmitters produce the same
  effect as silence (no collision detection);
* a transmitting node hears nothing in that slot (half-duplex);
* nodes that have not received the source message stay silent
  (no spontaneous transmissions) — enforced structurally: the engine does
  not even instantiate a node's protocol until the node is informed.

This engine executes arbitrary (interactive, message-driven) protocols.
For oblivious randomized algorithms a vectorised engine with identical
semantics lives in :mod:`repro.sim.fast`.
"""

from __future__ import annotations

import random
import time

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from ..obs.timings import Timings
from .coins import derive_node_rng
from .errors import ConfigurationError
from .faults import FaultCounters, FaultPlan, NEVER, derive_fault_seed, scalar_loss_coin
from .messages import Message
from .network import RadioNetwork
from .protocol import BroadcastAlgorithm, Protocol
from .trace import Trace, TraceLevel

__all__ = ["SynchronousEngine"]


class SynchronousEngine:
    """Steps one broadcast execution over a :class:`RadioNetwork`.

    The engine is restartable only by constructing a new instance; protocol
    objects are stateful and tied to one execution.

    Args:
        network: The topology to run on.
        algorithm: Factory producing each node's protocol.
        seed: Master seed; node ``v`` receives the RNG
            ``random.Random(f"{seed}:{v}")`` so runs are reproducible and
            node randomness is independent of activation order.
        trace_level: How much channel detail to record.
        collision_detection: Model *variant* (not the paper's model): when
            True, awake listeners observe
            :data:`~repro.sim.messages.COLLISION_MARKER` on a collision
            instead of ``None``.  Sleeping nodes are unaffected — a
            collision carries no content, so it cannot inform.  Used by
            the Section 4.1 ablation that measures what simulating
            collision detection with Echo costs.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` applied to
            this execution (crashes, jamming, message loss, wake delays).
            Semantics are identical on the vectorised engines — the
            differential suite asserts bit-identical faulty executions.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
            given the engine counts slots, transmissions, and collisions
            per slot.  Purely observational — the execution is identical
            with or without it.
        timings: Optional :class:`~repro.obs.timings.Timings` accumulating
            wall-clock per stage (``engine.actions``, ``engine.channel``,
            ``engine.step``).
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
    ) -> None:
        self.network = network
        self.algorithm = algorithm
        self.seed = seed
        self.trace = Trace(level=trace_level)
        self.trace.mark_initially_informed(network.source)
        self.collision_detection = collision_detection
        self.step = 0
        self.timings = timings
        self.metrics = metrics
        self._tx_counts: dict[int, int] | None = {} if metrics is not None else None
        if metrics is not None:
            # Instruments are resolved once here, not per slot.
            self._slots_counter = metrics.counter("engine_slots")
            self._tx_counter = metrics.counter("engine_transmissions")
            self._collision_hist = metrics.histogram(
                "collisions_per_slot", COUNT_BUCKETS
            )
        self.faults = faults
        self.fault_counters: FaultCounters | None = None
        self._crash_slots: dict[int, int] = {}
        self._crashes_by_slot: dict[int, int] = {}
        self._deaf_until: dict[int, int] = {}
        self._jams_by_slot: dict[int, frozenset[int]] = {}
        self._loss_probability = 0.0
        self._fault_seed = 0
        if faults is not None:
            faults.validate_for(network)
            self.fault_counters = FaultCounters()
            self.trace.fault_counters = self.fault_counters
            self._crash_slots = dict(faults.crashes)
            for _, slot in faults.crashes:
                self._crashes_by_slot[slot] = self._crashes_by_slot.get(slot, 0) + 1
            self._deaf_until = dict(faults.wake_delays)
            jams: dict[int, set[int]] = {}
            for slot, receiver in faults.jams:
                jams.setdefault(slot, set()).add(receiver)
            self._jams_by_slot = {slot: frozenset(rs) for slot, rs in jams.items()}
            self._loss_probability = faults.loss_probability
            self._fault_seed = derive_fault_seed(faults.seed, seed)
        #: label -> live protocol instance; only informed nodes appear here.
        self.protocols: dict[int, Protocol] = {}
        #: label -> step at which the node was informed (source: -1).
        self.wake_times: dict[int, int] = {}
        self._wake(network.source, step=-1, message=None)

    # ------------------------------------------------------------------

    @property
    def informed_count(self) -> int:
        """How many nodes currently hold the source message."""
        return len(self.protocols)

    @property
    def all_informed(self) -> bool:
        """Whether broadcasting has completed."""
        return len(self.protocols) == self.network.n

    @property
    def all_settled(self) -> bool:
        """Whether no further wake-up is possible.

        Without crashes this is :attr:`all_informed`.  With crashes, a
        node that crashed while still asleep can never be informed, so
        the run is *settled* (and may stop) once every node is either
        informed or dead.
        """
        if not self._crash_slots:
            return self.all_informed
        step = self.step
        for label in self.network.nodes:
            if label in self.protocols:
                continue
            if self._crash_slots.get(label, NEVER) > step:
                return False
        return True

    def _dead(self, label: int, step: int) -> bool:
        return self._crash_slots.get(label, NEVER) <= step

    def _make_rng(self, label: int) -> random.Random:
        # Shared derivation (repro.sim.coins via repro.sim.run): the same
        # helper seeds the fast engines' coin keys, so all execution paths
        # flip identical coins.
        return derive_node_rng(self.seed, label)

    def _wake(self, label: int, step: int, message: Message | None) -> None:
        protocol = self.algorithm.create(label, self.network.r, self._make_rng(label))
        protocol.wake_step = step
        self.protocols[label] = protocol
        self.wake_times[label] = step
        protocol.on_wake(step, message)

    # ------------------------------------------------------------------

    def run_step(self) -> tuple[int, ...]:
        """Execute one slot; returns the labels that transmitted.

        The slot proceeds in three phases: collect actions from awake
        nodes, resolve the channel (hit counting with the exactly-one rule),
        then deliver observations and wake newly informed nodes.  Nodes
        woken in this slot first *act* in the next slot, matching the
        paper's convention that a node informed during stage ``i`` starts
        transmitting in stage ``i + 1`` at the earliest.
        """
        step = self.step
        out_neighbors = self.network.out_neighbors
        timings = self.timings
        t_start = time.perf_counter() if timings is not None else 0.0
        faulty = self.faults is not None
        jam_set: frozenset[int] = frozenset()
        if faulty:
            counters = self.fault_counters
            counters.crashed_nodes += self._crashes_by_slot.get(step, 0)
            jam_set = self._jams_by_slot.get(step, frozenset())
            counters.jammed_slots += len(jam_set)

        transmissions: dict[int, Message] = {}
        for label, protocol in self.protocols.items():
            if faulty and self._dead(label, step):
                continue  # crashed nodes are silent forever
            payload = protocol.next_action(step)
            if payload is not None:
                transmissions[label] = Message(sender=label, payload=payload)

        if timings is not None:
            t_actions = time.perf_counter()
            timings.add("engine.actions", t_actions - t_start)

        # Channel resolution: count transmitting in-neighbours per receiver.
        hits: dict[int, int] = {}
        incoming: dict[int, Message] = {}
        for sender, message in transmissions.items():
            for receiver in out_neighbors[sender]:
                hits[receiver] = hits.get(receiver, 0) + 1
                incoming[receiver] = message

        deliveries: dict[int, int] = {}
        woken: list[int] = []
        collisions: list[int] = []
        collided_listeners: set[int] = set()
        record_full = self.trace.level is TraceLevel.FULL
        for receiver, count in hits.items():
            if receiver in transmissions:
                continue  # half-duplex: transmitters hear nothing
            if faulty and self._dead(receiver, step):
                continue  # crashed nodes receive nothing
            if count == 1:
                # Fault pipeline on a would-be delivery: jam, then loss,
                # then wake-delay; the first suppressing stage wins.
                if receiver in jam_set:
                    continue  # jammed: noise, indistinguishable from silence
                if (
                    self._loss_probability > 0.0
                    and scalar_loss_coin(self._fault_seed, receiver, step)
                    < self._loss_probability
                ):
                    counters.lost_messages += 1
                    continue
                message = incoming[receiver]
                protocol = self.protocols.get(receiver)
                if protocol is None:
                    if faulty and step < self._deaf_until.get(receiver, 0):
                        counters.delayed_wakes += 1
                        continue  # wake-up delayed: the message is ignored
                    deliveries[receiver] = message.sender
                    self._wake(receiver, step, message)
                    woken.append(receiver)
                else:
                    deliveries[receiver] = message.sender
                    protocol.observe(step, message)
            else:
                if record_full:
                    collisions.append(receiver)
                # Model variant: collision detection lets awake listeners
                # see the collision (it still carries no content, so it
                # never wakes a sleeper).
                if self.collision_detection and receiver in self.protocols:
                    collided_listeners.add(receiver)

        # Nodes that were awake and did not successfully receive observe
        # None (or the collision marker under the CD variant).
        from .messages import COLLISION_MARKER

        for label, protocol in list(self.protocols.items()):
            if self.wake_times[label] == step:
                continue  # just woken; on_wake already saw the message
            if faulty and self._dead(label, step):
                continue  # crashed nodes observe nothing
            if label not in deliveries:
                protocol.observe(
                    step, COLLISION_MARKER if label in collided_listeners else None
                )

        if timings is not None:
            t_channel = time.perf_counter()
            timings.add("engine.channel", t_channel - t_actions)
            timings.add("engine.step", t_channel - t_start)
        if self.metrics is not None:
            self._slots_counter.inc()
            self._tx_counter.inc(len(transmissions))
            tx_counts = self._tx_counts
            for label in transmissions:
                tx_counts[label] = tx_counts.get(label, 0) + 1
            # Same collision definition as the fast engines: uninformed
            # receivers with >= 2 transmitting in-neighbours (dead
            # receivers included; a collision does not wake anyone).
            wake_times = self.wake_times
            self._collision_hist.observe(
                sum(
                    1
                    for receiver, count in hits.items()
                    if count >= 2 and receiver not in wake_times
                )
            )

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

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run until completion or the step limit.

        Args:
            max_steps: Hard cap on the number of slots to execute.
            stop_when_informed: Stop as soon as every node is informed —
                or, under a fault plan with crashes, as soon as every
                node is informed *or irrecoverably dead* (the usual
                broadcasting-time measurement).  When False the engine
                always executes exactly ``max_steps`` slots, which some
                fixed-schedule algorithms need.

        Returns:
            The number of slots executed.
        """
        if max_steps < 0:
            raise ConfigurationError(f"max_steps must be non-negative, got {max_steps}")
        executed = 0
        while executed < max_steps:
            if stop_when_informed and self.all_settled:
                break
            self.run_step()
            executed += 1
        return executed

    def transmission_counts(self) -> list[int] | None:
        """Per-node transmission tallies (label order), or ``None``.

        Only tracked when the engine was constructed with ``metrics``;
        uninstrumented runs pay nothing for it.
        """
        if self._tx_counts is None:
            return None
        return [self._tx_counts.get(label, 0) for label in self.network.nodes]

    @property
    def completion_time(self) -> int | None:
        """Broadcasting time: slots needed until the last node was informed.

        A node woken in slot ``t`` (0-based) was informed after ``t + 1``
        slots.  ``None`` while some node is still uninformed.  Zero for the
        degenerate single-node network.
        """
        if not self.all_informed:
            return None
        latest = max(self.wake_times.values())
        return latest + 1  # source has wake time -1 -> contributes 0
