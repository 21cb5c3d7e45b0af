"""Vectorised engines for *oblivious* algorithms.

Both randomized algorithms studied in the paper — the Kowalski–Pelc stage
algorithm and BGI Decay — as well as the round-robin and selective-family
deterministic baselines are *oblivious*: a node's decision to transmit in
slot ``t`` depends only on ``(t, label, wake slot, coin flips)``, never on
received message contents.  For such algorithms the channel can be resolved
with one sparse matrix product per slot, which makes the large parameter
sweeps of EXPERIMENTS.md feasible in pure Python.

This module holds the vectorised interface (:class:`VectorizedAlgorithm`)
and :class:`BatchedFastEngine`, which runs ``T`` independent Monte-Carlo
trials at once with state lifted to ``(T, n)``: one sparse product per
slot resolves the channel for *every* trial simultaneously.  It is the
workhorse of :func:`run_broadcast_batch` and the sweep runner.  Single
runs go to the sparse macro-step engine
(:class:`~repro.sim.macro.MacroStepEngine`).

*Adaptive* algorithms — the paper's token algorithms, whose decisions do
depend on message contents — cannot be vectorised this way, but they have
their own fast path: the event-driven engine in :mod:`repro.sim.event`,
driven by ``Protocol.quiet_until`` idle hints.  Every engine family
resolves the channel from the same precompiled topology,
:class:`repro.sim.channel.ChannelKernel` — this module uses its sparse
``adjacency_t`` view, the event and macro engines its CSR neighbour
arrays.

Semantics are identical to :class:`repro.sim.engine.SynchronousEngine`
(verified per-node, per-slot by ``tests/sim/test_conformance.py``):
exactly-one reception, half-duplex, no spontaneous transmissions, nodes
woken in slot ``t`` first act in ``t + 1``, and — because transmission
coins are slot-indexed and derived from the same
:mod:`repro.sim.coins` helpers all engines share — the *same coin flips*
for the same ``(seed, label, step)``.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, ValuesView
from time import perf_counter
from typing import Protocol as TypingProtocol, Sequence, runtime_checkable

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .channel import ChannelKernel
from .coins import CoinSource, derive_trial_seeds
from .errors import ConfigurationError
from .faults import CompiledFaults, FaultCounters, FaultPlan, compile_faults, derive_fault_seed
from .network import RadioNetwork
from .run import BroadcastResult
from .trace import Trace, TraceLevel

__all__ = [
    "VectorizedAlgorithm",
    "BatchedFastEngine",
    "run_broadcast_batch",
    "ASLEEP",
    "WakeTimes",
]

#: Sentinel wake step for nodes that are not informed yet.
ASLEEP: int = np.iinfo(np.int64).max


@runtime_checkable
class VectorizedAlgorithm(TypingProtocol):
    """Structural interface for algorithms runnable on the vector engines.

    Implementors also subclass
    :class:`~repro.sim.protocol.BroadcastAlgorithm` so the same object runs
    on either engine.
    """

    name: str
    deterministic: bool

    def transmit_mask(
        self,
        step: int,
        labels: np.ndarray,
        wake_steps: np.ndarray,
        r: int,
        coins: CoinSource,
    ) -> np.ndarray:
        """Transmit decisions for slot ``step``.

        Args:
            step: Global slot number.
            labels: ``int64`` array of node labels (fixed across steps),
                always of shape ``(n,)``.
            wake_steps: ``int64`` array; ``ASLEEP`` for uninformed nodes.
                Shape ``(n,)`` on single-run engines, ``(trials, n)`` on
                :class:`BatchedFastEngine`.  Implementations may ignore
                sleepers — the engine masks them out — but must not let
                them influence other nodes.
            r: Public label bound.
            coins: Slot-indexed coin flips; ``coins.uniform(step)`` has
                the same shape as ``wake_steps``, and
                ``coins.below(step, p)`` is the transmit test
                ``uniform(step) < p`` without the float conversion.
                Deterministic schedules never touch it.

        Returns:
            Boolean array broadcastable to ``wake_steps.shape``: True where
            the node transmits.
        """
        ...  # pragma: no cover - protocol definition


class WakeTimes(Mapping):
    """``label -> wake slot`` of the informed nodes of one array-engine run.

    A read-only mapping over the run's labels (increasing) and its own
    copy of the wake row, so handing a result over costs one array copy
    instead of an ``n``-entry dict.  It behaves like the dict the
    per-node engines return: iteration in label order, ``len`` equal to
    the informed count, ``get`` / ``in`` answering "not informed" for
    sleepers, equality with any mapping (two instances compare as
    arrays), and pickling.  Wholesale reads are cheapest through
    ``items()`` / ``values()`` or the arrays below; ``dict(m)`` and
    ``{**m}`` pay one lookup per key.

    Attributes:
        labels: ``int64`` node labels in increasing order.
        wake_steps: ``int64`` wake slot per label; ``ASLEEP`` for
            sleepers.
    """

    __slots__ = ("labels", "wake_steps", "_count")

    def __init__(self, labels: np.ndarray, wake_steps: np.ndarray):
        self.labels = labels
        self.wake_steps = np.array(wake_steps, dtype=np.int64)
        self.wake_steps.flags.writeable = False
        self._count = int(np.count_nonzero(self.wake_steps != ASLEEP))

    def _informed(self) -> tuple[np.ndarray, np.ndarray]:
        """Labels and wake slots of the informed nodes, in label order."""
        if self._count == len(self.labels):
            return self.labels, self.wake_steps
        informed = self.wake_steps != ASLEEP
        return self.labels[informed], self.wake_steps[informed]

    def __getitem__(self, label) -> int:
        try:
            key = operator.index(label)
        except TypeError:
            raise KeyError(label) from None
        labels, n = self.labels, len(self.labels)
        # Labels increase; where label == position (every CSR-native
        # topology) the binary search is skipped.
        if 0 <= key < n and labels.item(key) == key:
            i = key
        else:
            i = int(np.searchsorted(labels, key))
        if i < n and labels.item(i) == key:
            slot = self.wake_steps.item(i)
            if slot != ASLEEP:
                return slot
        raise KeyError(label)

    def __iter__(self):
        return iter(self._informed()[0].tolist())

    def __len__(self) -> int:
        return self._count

    def items(self):
        return _WakeItems(self)

    def values(self):
        return _WakeValues(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, WakeTimes):
            mine, theirs = self._informed(), other._informed()
            return all(map(np.array_equal, mine, theirs))
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != self._count:
            return False
        return dict(self.items()) == (
            other if isinstance(other, dict) else dict(other.items())
        )

    def __repr__(self) -> str:
        return f"WakeTimes({dict(self.items())!r})"

    def __reduce__(self):
        return WakeTimes, (self.labels, self.wake_steps)


class _WakeItems(ItemsView):
    def __iter__(self):
        labels, slots = self._mapping._informed()
        return zip(labels.tolist(), slots.tolist())


class _WakeValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._informed()[1].tolist())


def _check_vectorized(algorithm) -> None:
    if not isinstance(algorithm, VectorizedAlgorithm):
        raise ConfigurationError(
            f"{algorithm!r} does not implement the vectorised interface"
        )


class BatchedFastEngine:
    """Array-based engine running ``T`` independent trials in lock-step.

    Per-node state is lifted to shape ``(trials, n)``; one sparse product
    per slot resolves the channel of every trial at once.  Trial ``t``
    executes *exactly* the single run with master seed ``seeds[t]`` — same
    coin flips, same wake slots — because coins are slot-indexed per
    ``(seed, label)`` and carry no cross-trial state.

    Args:
        network: Topology (directed or undirected).
        algorithm: An oblivious algorithm implementing
            :class:`VectorizedAlgorithm`.
        seeds: One master seed per trial.
        faults: Optional :class:`~repro.sim.faults.FaultPlan`; crashes,
            jams and delays are identical across trials (the fault
            environment is the adversary), while the loss stream is keyed
            per trial seed — trial ``t`` reproduces exactly the single
            run with seed ``seeds[t]`` under ``faults``.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            Tallies are *per-trial-slot* and filtered to active
            (unsettled) trials, so they match what the ``trials``
            single-run engines would have recorded in aggregate.
        timings: Optional :class:`~repro.obs.timings.Timings`, shared by
            the whole batch (stage costs are joint across trials).
        trace_level: Per-trial channel traces with the single-run
            engines' exact records (a settled trial stops recording, like
            the run it reproduces stops executing); retrieve with
            :meth:`trace_for`.  ``NONE`` (the default) records nothing.
    """

    def __init__(
        self,
        network: RadioNetwork,
        algorithm: VectorizedAlgorithm,
        seeds: Sequence[int],
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        timings: Timings | None = None,
        trace_level: TraceLevel = TraceLevel.NONE,
    ):
        _check_vectorized(algorithm)
        if len(seeds) < 1:
            raise ConfigurationError("need at least one trial seed")
        self.network = network
        self.algorithm = algorithm
        self.seeds = [int(s) for s in seeds]
        self.trials = len(self.seeds)
        kernel = ChannelKernel(network)
        self.labels = kernel.labels
        self._index = kernel.index
        # (T, n) @ (n, n) as (adj^T @ mask^T)^T: sparse-first keeps scipy on
        # its fast CSR path for every trial count.
        self._adjacency_t = kernel.adjacency_t
        self.coins = CoinSource.for_batch(self.seeds, self.labels)
        self._traces: list[Trace] | None = None
        self._trace_full = trace_level is TraceLevel.FULL
        self._trace_weights: np.ndarray | None = None
        if trace_level is not TraceLevel.NONE:
            self._traces = []
            for _ in range(self.trials):
                trace = Trace(level=trace_level)
                trace.mark_initially_informed(network.source)
                self._traces.append(trace)
            if self._trace_full:
                self._trace_weights = np.arange(network.n, dtype=np.int64) + 1
        self.wake_steps = np.full((self.trials, network.n), ASLEEP, dtype=np.int64)
        self.wake_steps[:, self._index[network.source]] = -1
        # Hot-loop scratch buffers: per-slot int32 transmit matrix and
        # boolean collision temporaries, written in place instead of
        # freshly allocated every slot.
        self._mask_i32 = np.empty((network.n, self.trials), dtype=np.int32)
        self._coll_buf = np.empty((self.trials, network.n), dtype=bool)
        self._not_tx_buf = np.empty((self.trials, network.n), dtype=bool)
        self.step = 0
        self.timings = timings
        self.metrics = metrics
        self._tx_counts: np.ndarray | None = None
        #: Per-slot collision observations are buffered here and flushed
        #: once per :meth:`run` (histograms are order-invariant, so the
        #: single ``observe_many`` is tally-identical to observing inside
        #: the slot loop — it just skips ~one searchsorted per slot).
        self._collision_chunks: list[np.ndarray] = []
        self._collision_zero_trials = 0
        if metrics is not None:
            self._slots_counter = metrics.counter("engine_slots")
            self._tx_counter = metrics.counter("engine_transmissions")
            self._active_gauge = metrics.gauge("batch_active_trials")
            self._collision_hist = metrics.histogram(
                "collisions_per_slot", COUNT_BUCKETS
            )
            self._tx_counts = np.zeros((self.trials, network.n), dtype=np.int64)
        self.faults = faults
        self._cf: CompiledFaults | None = None
        if faults is not None:
            self._cf = compile_faults(
                faults, network, self._index, self.labels,
                [derive_fault_seed(faults.seed, s) for s in self.seeds],
            )
            # All four tallies are per-trial: although crashes and jams
            # are trial-independent events, a trial stops *accruing* them
            # once it settles (mirroring the single-run engine, which
            # stops executing slots at that point), and settle times
            # differ across trials.  ``_executed`` counts the slots each
            # trial was still active for — the single-run ``engine.step``.
            self._crashed = np.zeros(self.trials, dtype=np.int64)
            self._jammed = np.zeros(self.trials, dtype=np.int64)
            self._lost = np.zeros(self.trials, dtype=np.int64)
            self._delayed = np.zeros(self.trials, dtype=np.int64)
            self._executed = np.zeros(self.trials, dtype=np.int64)
        reset = getattr(algorithm, "reset_run", None)
        if reset is not None:
            reset((self.trials, network.n))

    # ------------------------------------------------------------------

    @property
    def awake(self) -> np.ndarray:
        """Boolean ``(trials, n)`` mask of informed nodes."""
        return self.wake_steps != ASLEEP

    @property
    def trials_informed(self) -> np.ndarray:
        """Boolean ``(trials,)`` vector: which trials have completed."""
        return self.awake.all(axis=1)

    @property
    def all_informed(self) -> bool:
        """Whether *every* trial has informed every node."""
        return bool(self.awake.all())

    @property
    def trials_settled(self) -> np.ndarray:
        """Boolean ``(trials,)`` vector: no further wake possible per trial."""
        cf = self._cf
        awake = self.awake
        if cf is None or not cf.has_crashes:
            return awake.all(axis=1)
        return (awake | (cf.crash_slots <= self.step)).all(axis=1)

    @property
    def all_settled(self) -> bool:
        """Every trial informed everyone or lost them to crashes."""
        return bool(self.trials_settled.all())

    def informed_counts(self) -> np.ndarray:
        """``(trials,)`` vector of informed-node counts."""
        return self.awake.sum(axis=1)

    def run_step(self) -> np.ndarray:
        """Execute one slot across all trials; returns the ``(T, n)`` mask."""
        step = self.step
        awake = self.awake
        cf = self._cf
        timings = self.timings
        t_start = perf_counter() if timings is not None else 0.0
        alive = None
        active = None
        if cf is not None:
            # Counter parity with the single-run engines: a settled trial
            # would have stopped executing there, so its tallies freeze.
            active = ~self.trials_settled
            self._executed += active
            crash_count = cf.crash_counts.get(step, 0)
            if crash_count:
                self._crashed += crash_count * active
            jam_count = len(cf.jam_indices.get(step, ()))
            if jam_count:
                self._jammed += jam_count * active
            if cf.has_crashes:
                alive = cf.crash_slots > step  # (n,), broadcasts over trials
        m_active = None
        if self.metrics is not None:
            # Same freeze rule for metric tallies: settled trials keep
            # stepping as array rows, but the runs they reproduce have
            # already stopped, so their slots no longer count.  Without a
            # fault plan "settled" is just "all awake", which the local
            # ``awake`` already holds — don't recompute the (T, n) mask.
            m_active = active if active is not None else ~awake.all(axis=1)
        rec_active = None
        if self._traces is not None:
            # Trace parity with the single-run engines: a settled trial's
            # run has already stopped, so it records no further slots.
            rec_active = active if active is not None else ~awake.all(axis=1)
        mask = self.algorithm.transmit_mask(
            step, self.labels, self.wake_steps, self.network.r, self.coins
        )
        if timings is not None:
            t_coins = perf_counter()
            timings.add("engine.coins", t_coins - t_start)
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), awake.shape) & awake
        if alive is not None:
            mask = mask & alive  # crashed nodes are silent forever
        collisions = None
        newly = rec_deliver = trace_colls = sender_sums = None
        any_tx = bool(mask.any())
        if any_tx:
            mask_i32 = self._mask_i32
            mask_i32[:] = mask.T  # in-place bool -> int32 cast, no allocation
            hits = (self._adjacency_t @ mask_i32).T
            if self.metrics is not None:
                coll = np.greater_equal(hits, 2, out=self._coll_buf)
                coll &= np.logical_not(mask, out=self._not_tx_buf)
                collisions = coll.sum(axis=1)
            if self._trace_full:
                trace_colls = (hits >= 2) & ~mask
                if alive is not None:
                    trace_colls = trace_colls & alive
                sender_sums = (
                    self._adjacency_t @ (mask * self._trace_weights).T
                ).T
            if cf is None:
                newly = (~awake) & (hits == 1)
                if self._trace_full:
                    rec_deliver = (hits == 1) & ~mask
            else:
                # Fault pipeline, identical to the reference engine per
                # trial row: crash -> jam -> loss -> wake-delay.
                t_faults = perf_counter() if timings is not None else 0.0
                delivered = (hits == 1) & ~mask
                if alive is not None:
                    delivered &= alive
                jammed = cf.jam_indices.get(step)
                if jammed is not None and jammed.size:
                    delivered[:, jammed] = False
                if cf.loss_probability > 0.0 and delivered.any():
                    lost = delivered & cf.loss_coins.below(
                        step, cf.loss_probability
                    )
                    self._lost += lost.sum(axis=1) * active
                    delivered &= ~lost
                sleeping = delivered & ~awake
                if cf.has_delays:
                    delayed = sleeping & (step < cf.deaf_until)
                    self._delayed += delayed.sum(axis=1) * active
                    newly = sleeping & ~delayed
                else:
                    newly = sleeping
                if self._trace_full:
                    # Awake receivers hear too (already informed, never
                    # deaf); sleepers only count if they actually woke.
                    rec_deliver = (delivered & awake) | newly
                if timings is not None:
                    timings.add("engine.faults", perf_counter() - t_faults)
            self.wake_steps[newly] = step
        if timings is not None:
            t_end = perf_counter()
            timings.add("engine.channel", t_end - t_coins)
            timings.add("engine.step", t_end - t_start)
        if self.metrics is not None:
            # One engine_slots tick per *active trial*, so counters stay
            # comparable with running the trials on single-run engines.
            n_active = int(m_active.sum())
            self._slots_counter.inc(n_active)
            self._active_gauge.set(n_active)
            active_mask = mask & m_active[:, None]
            self._tx_counter.inc(int(active_mask.sum()))
            self._tx_counts += active_mask
            # Collision observations are buffered and flushed once per
            # run (see flush_metrics); a silent slot is n_active zeros.
            if collisions is None:
                self._collision_zero_trials += n_active
            elif n_active:
                self._collision_chunks.append(collisions[m_active])
        if rec_active is not None:
            self._record_batch_step(
                step, mask if any_tx else None,
                rec_deliver, trace_colls, sender_sums, newly, rec_active,
            )
        self.step += 1
        return mask

    def _record_batch_step(
        self, step, mask, rec_deliver, trace_colls, sender_sums, newly, rec_active
    ) -> None:
        """Append slot ``step`` to every still-active trial's trace."""
        labels = self.labels
        counts = self.awake.sum(axis=1)
        full = self._trace_full
        for t in np.flatnonzero(rec_active):
            trace = self._traces[t]
            if mask is None:  # globally silent slot
                trace.record(
                    step=step, transmitters=(), deliveries={},
                    collisions=(), woken=(), informed=int(counts[t]),
                )
                continue
            deliveries: dict[int, int] = {}
            collisions: tuple[int, ...] = ()
            if full:
                row = sender_sums[t]
                deliveries = {
                    int(labels[i]): int(labels[row[i] - 1])
                    for i in np.flatnonzero(rec_deliver[t])
                }
                collisions = tuple(int(v) for v in labels[trace_colls[t]])
            trace.record(
                step=step,
                transmitters=tuple(int(v) for v in labels[mask[t]]),
                deliveries=deliveries,
                collisions=collisions,
                woken=tuple(int(v) for v in labels[newly[t]]),
                informed=int(counts[t]),
            )

    def trace_for(self, trial: int) -> Trace:
        """Per-trial channel trace (an empty ``NONE`` trace when untraced)."""
        if self._traces is None:
            return Trace(level=TraceLevel.NONE)
        trace = self._traces[trial]
        if self._cf is not None:
            trace.fault_counters = self.fault_counters_for(trial)
        return trace

    def flush_metrics(self) -> None:
        """Flush buffered collision observations into the histogram.

        :meth:`run` calls this after its slot loop; callers stepping the
        engine manually with :meth:`run_step` must call it before
        snapshotting the registry.  Idempotent between steps.  Also
        refreshes ``batch_active_trials`` to the *current* unsettled
        count (0 after a completed run) — during the slot loop the gauge
        tracks the count entering each slot.
        """
        if self.metrics is None:
            return
        if self._collision_chunks:
            self._collision_hist.observe_many(np.concatenate(self._collision_chunks))
            self._collision_chunks.clear()
        if self._collision_zero_trials:
            self._collision_hist.observe_repeated(0, self._collision_zero_trials)
            self._collision_zero_trials = 0
        self._active_gauge.set(int((~self.trials_settled).sum()))

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run until every trial settles or the step limit; returns slots.

        Settled trials keep stepping (their wake times and fault tallies
        are frozen, so the extra slots are no-ops for them) until the last
        trial finishes — exactly the per-trial executions of the
        single-run engine.
        """
        executed = 0
        while executed < max_steps:
            if stop_when_informed and self.all_settled:
                break
            self.run_step()
            executed += 1
        self.flush_metrics()
        return executed

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before settling or the limit.

        Without a fault plan this is the batch's global step count (a
        trial only stops early by completing, in which case its time comes
        from :meth:`completion_times` instead).  Under a plan with crashes
        a trial can settle *incomplete*, and its executed-slot count —
        what the single-run engines report as ``engine.step`` — is frozen
        at that point.
        """
        if self._cf is None:
            return self.step
        return int(self._executed[trial])

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its single-run values."""
        if self._cf is None:
            return None
        return FaultCounters(
            crashed_nodes=int(self._crashed[trial]),
            jammed_slots=int(self._jammed[trial]),
            lost_messages=int(self._lost[trial]),
            delayed_wakes=int(self._delayed[trial]),
        )

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        done = self.trials_informed
        latest = self.wake_steps.max(axis=1, initial=-1, where=self.awake)
        return [
            int(latest[t]) + 1 if done[t] else None for t in range(self.trials)
        ]

    def wake_times(self, trial: int) -> WakeTimes:
        """Map informed labels of one trial to their wake slots."""
        return WakeTimes(self.labels, self.wake_steps[trial])

    def transmission_counts(self, trial: int) -> list[int] | None:
        """Per-node transmission tallies of one trial (label order);
        ``None`` when the engine ran uninstrumented."""
        if self._tx_counts is None:
            return None
        return [int(c) for c in self._tx_counts[trial]]


def run_broadcast_batch(
    network: RadioNetwork,
    algorithm,
    seeds: Sequence[int] | None = None,
    trials: int | None = None,
    base_seed: int = 0,
    max_steps: int | None = None,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    engine: str = "auto",
    trace_level: TraceLevel = TraceLevel.NONE,
    collision_detection: bool = False,
    step_hooks=None,
    allow_large: bool = False,
) -> list[BroadcastResult]:
    """Run many Monte-Carlo trials of one broadcast as a single batch.

    A thin alias over :func:`~repro.sim.driver.simulate`: result ``i``
    is *identical* (per-node wake slots and fault counters included) to
    the serial run with seed ``seeds[i]`` — batching is purely an
    execution strategy, not a semantic variant.  ``engine="auto"`` (the
    default) picks ``"batched_fast"`` (the ``(trials, n)`` array program
    of :class:`BatchedFastEngine`, oblivious algorithms only) when the
    algorithm is vectorisable and ``"batched_event"`` (the shared-clock
    :class:`~repro.sim.batched_event.BatchedEventEngine`, any protocol;
    collision detection and step hooks too) otherwise.

    ``seeds`` gives the per-trial master seeds explicitly; alternatively
    ``trials`` derives ``derive_trial_seeds(base_seed, trials)``
    (``base_seed + i``, the :func:`~repro.sim.run.repeat_broadcast`
    convention).  Every other argument means what it means on
    :func:`~repro.sim.driver.simulate`.

    Returns:
        One :class:`~repro.sim.run.BroadcastResult` per trial, in seed order.
    """
    from .driver import simulate

    if seeds is None:
        if trials is None:
            raise ConfigurationError("provide either seeds or trials")
        seeds = derive_trial_seeds(base_seed, trials)
    elif trials is not None and trials != len(seeds):
        raise ConfigurationError(
            f"trials={trials} conflicts with {len(seeds)} explicit seeds"
        )
    return simulate(
        network, algorithm, seeds, engine=engine, max_steps=max_steps,
        trace_level=trace_level, collision_detection=collision_detection,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
        step_hooks=step_hooks, allow_large=allow_large,
    )
