"""Multi-slot macro-step execution for oblivious algorithms.

A per-slot array program over the whole network has two costs that stop
being cheap at 10^5-10^6 nodes: a dense O(n) coin / mask evaluation per
slot, and an O(E) sparse matrix-vector product per slot — paid even in
slots where three nodes transmit.  This module removes both:

* **Macro plans.**  An oblivious schedule's slot decisions depend only on
  ``(step, label, wake slot, coins)``.  For the schedules in this repo
  the dependence is even simpler — each slot is a *probability* plus a
  *wake-eligibility threshold* (KP stages: "informed before the stage
  began"), or a single deterministic label (round-robin, the source
  slot).  :class:`MacroPlan` encodes ``K`` slots of that structure at
  once; algorithms expose it via an optional ``macro_plan(start, count,
  r)`` hook (see :class:`~repro.core.randomized.KnownRadiusKP`,
  :class:`~repro.baselines.round_robin.RoundRobinBroadcast`).  Algorithms
  without the hook fall back to per-slot ``transmit_mask`` — same
  results, just without the batch decode.

* **Sparse channel resolution.**  Instead of a dense mask and an O(E)
  product, the engine keeps the awake set as a wake-ordered index list:
  the eligible set of a slot is a binary-searched *prefix*, coins are
  flipped only for eligible nodes
  (:meth:`~repro.sim.coins.CoinSource.below` — bit-identical to the
  dense flips), and the channel is resolved by gathering only the
  transmitters' CSR neighbour lists (O(sum deg(tx)) instead of O(E)), or
  from the sleepers' side once they are the smaller set.

* **Unions of trials.**  ``T`` Monte-Carlo seeds run as one execution
  over ``T`` disjoint copies of the network, so a sweep point pays the
  per-slot overhead once rather than ``T`` times (see
  :class:`MacroStepEngine`).

Instrumented runs (fault plans, metrics, traces, timings) execute on the
same block loop, with per-slot bookkeeping; the conformance matrix holds
them to the reference engine's results, traces, fault counters and
metrics under every plan/trace combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .channel import ChannelKernel
from .coins import CoinSource
from .errors import ConfigurationError
from .fast import ASLEEP, VectorizedAlgorithm, WakeTimes, _check_vectorized
from .faults import (
    NEVER,
    CompiledFaults,
    FaultCounters,
    FaultPlan,
    compile_faults,
    derive_fault_seed,
)
from .run import BroadcastResult
from .trace import Trace, TraceLevel

__all__ = [
    "BatchedFastEngine",
    "ELIGIBLE_ANY_AWAKE",
    "MacroPlan",
    "MacroStepEngine",
    "run_broadcast_macro",
    "resolve_macro_backend",
]

#: Eligibility sentinel: every *awake* node qualifies.  Sleepers carry
#: ``wake == ASLEEP`` and ``ASLEEP < ASLEEP`` is false, so the plan rule
#: ``wake < elig`` degenerates to plain awakeness at this value.
ELIGIBLE_ANY_AWAKE: int = ASLEEP

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class MacroPlan:
    """``count`` precomputed slots of an oblivious schedule.

    Slot ``j`` (global step ``start + j``) is one of three shapes,
    checked in order:

    * ``single[j] >= 0`` — only the node with that *label* transmits,
      and only if its wake slot is below ``elig[j]`` (deterministic solo
      slots: round-robin, the KP source slot).
    * ``probs[j] < 0`` — silence.
    * otherwise — every node with ``wake < elig[j]`` transmits when its
      slot coin is below ``probs[j]`` (``probs[j] >= 1``: always).

    ``elig[j]`` is the only wake-dependent part of a slot's decision,
    which is what makes precomputing ``K`` slots sound: probabilities and
    labels never depend on the state evolving inside the block, and the
    engine applies the threshold per slot against the live wake array.
    Use :data:`ELIGIBLE_ANY_AWAKE` when any awake node qualifies.
    """

    start: int
    probs: np.ndarray
    elig: np.ndarray
    single: np.ndarray

    def __len__(self) -> int:
        return len(self.probs)


def resolve_macro_backend(backend: str = "auto") -> str:
    """Validate a macro ``backend`` name; the numpy block loop is the only
    one.

    Kept for the benchmark harness only, which records the name: returns
    ``"numpy"`` for ``"auto"`` or ``"numpy"`` and raises
    :class:`~repro.sim.errors.ConfigurationError` for anything else.
    """
    if backend not in ("auto", "numpy"):
        raise ConfigurationError(
            f"unknown macro backend {backend!r}; expected 'auto' or 'numpy'"
        )
    return "numpy"


def BatchedFastEngine(network, algorithm, seeds: Sequence[int]) -> "MacroStepEngine":  # noqa: N802
    """A :class:`MacroStepEngine` union of ``seeds``.

    Kept for the benchmark harness only, which builds its Monte-Carlo
    probe under this name and reads ``.labels``, ``.run(max_steps)`` and
    the ``(T, n)`` ``.wake_steps``.
    """
    return MacroStepEngine(network, algorithm, list(seeds))


class MacroStepEngine:
    """Sparse macro-step engine: the array engine for oblivious
    algorithms, one trial or many.

    Executes ``block_size`` slots per macro step with no per-slot Python
    dispatch into the algorithm (when it provides ``macro_plan``),
    settle-checks inside the block, and resolves each slot from whichever
    side of the channel is cheaper.  Fault plans, metrics, timings and
    traces run on the same block loop: they add per-slot bookkeeping, and
    the ones that need hit counts at awake receivers pin resolution to
    the transmitter side (see ``_rx_ok``).  Semantics are the reference
    engine's, slot for slot — asserted by the conformance suite and the
    large-n spot checks.

    **Unions.**  ``T`` seeds run as one execution over the disjoint union
    of ``T`` copies of the network: union index ``t * n + v`` is node
    ``v`` of trial ``t``.  The copies share no edge, so trial ``t`` is
    exactly the run with seed ``seeds[t]``; they share one macro plan
    (an oblivious plan depends only on the step and the label), one
    wake-ordered awake list and one threshold prefix per slot.  No CSR
    copy is built — neighbour gathers map a union index to ``(t, v)`` and
    add ``t * n`` back (skipped when ``T == 1``).  A trial that settles
    leaves the awake list, so it stops transmitting and stops accruing
    fault tallies, metrics and trace records, as its single run would
    have stopped executing.

    Args:
        network: Topology — a :class:`~repro.sim.network.RadioNetwork`
            (directed or undirected) or a CSR-native
            :class:`~repro.topology.csr.CSRNetwork`.
        algorithm: An oblivious :class:`~repro.sim.fast.VectorizedAlgorithm`.
        seed: One master seed (a single run: :attr:`wake_steps` has shape
            ``(n,)``), or a sequence of ``T`` seeds (a union:
            ``(T, n)``).  Coin streams are every other engine's.
        block_size: Macro-step width ``K``.  Results never depend on it
            (hypothesis-tested); it only trades plan-decode batching
            against wasted decode past the settle slot.
        backend: Validated by :func:`resolve_macro_backend` and otherwise
            unused; kept for the benchmark harness only.
        faults: Optional :class:`~repro.sim.faults.FaultPlan`, applied per
            slot in the reference engine's order: crash -> jam -> loss ->
            wake-delay.  Crashes, jams and delays are the same in every
            trial; the loss stream is keyed per trial seed.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            (slot/transmission/collision instruments, identical names and
            semantics to the reference engine's, tallied per running
            trial, plus per-node tallies).
        timings: Optional :class:`~repro.obs.timings.Timings` accumulating
            the per-slot stages ``engine.coins``, ``engine.channel``,
            ``engine.faults`` (⊂ channel) and ``engine.step``, shared by
            the trials.
        trace_level: Channel detail to record, one trace per trial
            (reference-identical records); see :meth:`trace_for`.
    """

    def __init__(
        self,
        network,
        algorithm: VectorizedAlgorithm,
        seed: int | Sequence[int] = 0,
        block_size: int = 64,
        backend: str = "auto",
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        timings: Timings | None = None,
        trace_level: TraceLevel = TraceLevel.NONE,
    ):
        _check_vectorized(algorithm)
        if block_size < 1:
            raise ConfigurationError(f"block_size must be positive, got {block_size}")
        union = np.ndim(seed) > 0
        self.seeds = [int(s) for s in seed] if union else [int(seed)]
        if not self.seeds:
            raise ConfigurationError("need at least one trial seed")
        self.network = network
        self.algorithm = algorithm
        self.block_size = block_size
        resolve_macro_backend(backend)
        kernel = ChannelKernel(network)
        self.kernel = kernel
        self.labels = kernel.labels
        self._index = kernel.index
        n, trials = network.n, len(self.seeds)
        size = n * trials
        self.n, self.trials, self._size = n, trials, size
        shape = (trials, n) if union else (n,)
        keys = CoinSource.for_batch(self.seeds, self.labels)._keys
        # transmit_mask sees the (T, n) view; the union reads flat keys.
        self.coins = CoinSource(keys.reshape(shape))
        self._keys = keys.reshape(-1)
        self._offsets = n * np.arange(trials, dtype=np.int64)
        self._wake = np.full(size, ASLEEP, dtype=np.int64)
        self.wake_steps = self._wake.reshape(shape)
        sources = self._offsets + kernel.index[network.source]
        self._wake[sources] = -1
        # The awake set of the running trials as a wake-ordered index
        # list: entries are appended in wake order, so wake values are
        # non-decreasing and the eligible set of any threshold is a
        # binary-searched prefix.  Retiring a trial filters it in place.
        self._awake_idx = np.empty(size, dtype=np.int64)
        self._awake_wakes = np.empty(size, dtype=np.int64)
        self._awake_idx[:trials] = sources
        self._awake_wakes[:trials] = -1
        self._awake_count = trials
        self._asleep = size - trials
        # Eligible-prefix cache ``(k, indices, coin keys)``: within a KP
        # stage the threshold — hence the prefix — is constant (nodes
        # woken mid-stage carry wake >= the threshold), so the keys
        # gather amortises across the stage's slots.  Appends never touch
        # a prefix; retiring a trial invalidates it.
        self._prefix: tuple | None = None
        # Per-trial state: informed counts, which trials still run, and
        # the executed-slot count of each retired one.
        self._informed = np.ones(trials, dtype=np.int64)
        self._running = np.ones(trials, dtype=bool)
        self._live = trials
        self._steps = np.zeros(trials, dtype=np.int64)
        self._check_settle = True
        # Receiver-side resolution state (see _resolve_receiver_side): the
        # sleepers' neighbour gather, built at the first receiver-side
        # slot, and the eligible entries of one threshold.
        self._sl_idx: np.ndarray | None = None
        self._el_for: tuple[int, int] | None = None
        self._avg_deg = kernel.indices.size / max(1, n)
        self.step = 0
        self._plan_hook = getattr(algorithm, "macro_plan", None)
        self._traces = [Trace(level=trace_level) for _ in self.seeds]
        for trace in self._traces:
            trace.mark_initially_informed(network.source)
        self._tracing = trace_level is not TraceLevel.NONE
        self._trace_full = trace_level is TraceLevel.FULL
        self.timings = timings
        self.metrics = metrics
        self._tx_counts: np.ndarray | None = None
        if metrics is not None:
            self._slots_counter = metrics.counter("engine_slots")
            self._tx_counter = metrics.counter("engine_transmissions")
            self._collision_hist = metrics.histogram(
                "collisions_per_slot", COUNT_BUCKETS
            )
            self._tx_counts = np.zeros(size, dtype=np.int64)
        self._cf: CompiledFaults | None = None
        # Nodes with a crash slot, for the settle check (a crashed sleeper
        # can never wake).
        self._crash_idx = self._crash_at = _EMPTY
        if faults is not None:
            cf = self._cf = compile_faults(
                faults, network, self._index, self.labels,
                [derive_fault_seed(faults.seed, s) for s in self.seeds],
            )
            # Crash and delay slots per union index; loss keys per trial.
            self._crash_slots = np.tile(cf.crash_slots, trials)
            self._deaf_until = np.tile(cf.deaf_until, trials)
            if cf.loss_coins is not None:
                self._loss_keys = cf.loss_coins._keys.reshape(-1)
            # One row per trial: crashed, jammed, lost, delayed.
            self._fault_counts = np.zeros((trials, 4), dtype=np.int64)
            self._crash_idx = np.flatnonzero(cf.crash_slots != NEVER)
            self._crash_at = cf.crash_slots[self._crash_idx]
        # Collision counts, deliveries to awake nodes and loss tallies need
        # hit counts at every receiver, which only the transmitter side of
        # the channel computes.
        self._hits_needed = (
            metrics is not None or self._trace_full or faults is not None
        )
        if self._hits_needed:
            self._is_tx = np.zeros(size, dtype=bool)
        if self._trace_full:
            self._sender_of = np.empty(size, dtype=np.int64)
        # Receiver-side counting reads a sleeper's *out*-neighbour row as
        # its in-neighbour list, which is only sound on symmetric
        # adjacency — i.e. CSR-native topologies (undirected by
        # construction).  Possibly-directed RadioNetworks, and runs that
        # need hit counts at awake receivers, stay on the
        # transmitter-side path.
        self._rx_ok = (
            getattr(network, "csr_arrays", None) is not None
            and not self._hits_needed
        )
        self._observed = self._hits_needed or timings is not None or self._tracing
        reset = getattr(algorithm, "reset_run", None)
        if reset is not None:
            reset(shape)

    # -- result surface ----------------------------------------------------

    @property
    def all_informed(self) -> bool:
        """Whether every trial informed every node."""
        return bool((self._informed == self.n).all())

    @property
    def trace(self) -> Trace:
        """The first trial's trace (the only one of a single run)."""
        return self.trace_for(0)

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        wake = self._wake.reshape(self.trials, self.n)
        return [
            int(wake[t].max()) + 1 if informed == self.n else None
            for t, informed in enumerate(self._informed.tolist())
        ]

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before it settled or the limit
        stopped the run — the single run's ``engine.step``."""
        return self.step if self._running[trial] else int(self._steps[trial])

    def wake_times(self, trial: int = 0) -> WakeTimes:
        """Map informed labels of one trial to their wake slots."""
        lo = trial * self.n
        return WakeTimes(self.labels, self._wake[lo:lo + self.n])

    def trace_for(self, trial: int) -> Trace:
        """One trial's channel trace (an empty one when untraced)."""
        trace = self._traces[trial]
        trace.fault_counters = self.fault_counters_for(trial)
        return trace

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its single-run values."""
        if self._cf is None:
            return None
        crashed, jammed, lost, delayed = self._fault_counts[trial].tolist()
        return FaultCounters(crashed, jammed, lost, delayed)

    def transmission_counts(self, trial: int = 0) -> list[int] | None:
        """Per-node transmission tallies of one trial (label order);
        ``None`` when the engine ran without metrics."""
        if self._tx_counts is None:
            return None
        lo = trial * self.n
        return self._tx_counts[lo:lo + self.n].tolist()

    # -- execution ---------------------------------------------------------

    def _settled(self) -> bool:
        """Retire the trials that settled; true once none is running."""
        if self._check_settle:
            self._retire()
        return self._live == 0

    def _retire(self) -> None:
        """Retire every running trial that can wake no one any more: all
        its nodes are informed, or each sleeper has crashed.  Its entries
        leave the awake list and its executed-slot count freezes."""
        n = self.n
        if self.trials == 1 and self._asleep > self._crash_idx.size:
            # One run, more sleepers than crash entries: a scalar test.
            self._check_settle = self._crash_idx.size > 0
            return
        done = self._informed == n
        crashed = self._crash_idx[self._crash_at <= self.step]
        if crashed.size:
            wake = self._wake.reshape(self.trials, n)
            stranded = np.count_nonzero(wake[:, crashed] == ASLEEP, axis=1)
            done |= stranded == n - self._informed
        # Only a wake or a crash slot can settle a trial.
        self._check_settle = self._crash_idx.size > 0
        done &= self._running
        if not done.any():
            return
        self._running &= ~done
        self._steps[done] = self.step
        self._live = int(np.count_nonzero(self._running))
        if self._live:
            count = self._awake_count
            keep = self._running[self._awake_idx[:count] // n]
            kept = int(np.count_nonzero(keep))
            self._awake_idx[:kept] = self._awake_idx[:count][keep]
            self._awake_wakes[:kept] = self._awake_wakes[:count][keep]
            self._awake_count = kept
            self._prefix = None

    def run(self, max_steps: int) -> int:
        """Run until every trial settles or the limit; returns slots
        executed."""
        executed = 0
        while executed < max_steps and not self._settled():
            count = min(self.block_size, max_steps - executed)
            plan = (
                self._plan_hook(self.step, count, self.network.r)
                if self._plan_hook is not None
                else None
            )
            executed += self._run_block(plan, count)
        return executed

    def _run_block(self, plan: MacroPlan | None, count: int) -> int:
        """Up to ``count`` slots: decisions from the macro plan, or
        per-slot ``transmit_mask`` for algorithms without one (dense
        decisions, sparse channel)."""
        wake = self._wake
        timings = self.timings
        observed = self._observed
        if plan is not None:
            probs, elig, single = plan.probs, plan.elig, plan.single
        t_start = 0.0
        executed = 0
        for j in range(count):
            if self._settled():
                break
            step = self.step
            self.step += 1
            executed += 1
            if timings is not None:
                t_start = perf_counter()
            tx = rx = None
            if plan is None:
                mask = self.algorithm.transmit_mask(
                    step, self.labels, self.wake_steps, self.network.r, self.coins
                )
                mask = np.broadcast_to(np.asarray(mask, dtype=bool),
                                       self.wake_steps.shape).reshape(-1)
                awake = self._awake_idx[: self._awake_count]
                tx = awake[mask[awake]]
            elif single[j] >= 0:
                idx = self._index.get(int(single[j]))
                if idx is None:
                    pass
                elif self.trials == 1:
                    # One run: a scalar compare, no candidate arrays.
                    if wake[idx] < elig[j]:
                        tx = np.array([idx], dtype=np.int64)
                else:
                    cand = self._offsets + idx
                    tx = cand[(wake[cand] < elig[j]) & self._running]
            elif probs[j] >= 0.0:
                p = probs[j]
                k = int(
                    np.searchsorted(
                        self._awake_wakes[: self._awake_count], elig[j], side="left"
                    )
                )
                # Pick the cheaper side of the channel: transmitter-side
                # work scales with the eligible set and its edges (coins
                # for k nodes, a gather of ~p * k * avg_deg edges, a
                # bincount over the union); receiver-side work scales with
                # the sleepers' edges only — and only sleepers can wake.
                # Early in the run the eligible set is tiny, late in the
                # run the sleeper set is.  ``k == 0`` is a silent slot.
                est_tx = k + p * k * self._avg_deg + 0.5 * self._size
                est_rx = 3.0 * self._asleep * self._avg_deg
                if k == 0:
                    pass
                elif self._rx_ok and est_rx < est_tx:
                    rx = (p, int(elig[j]))
                else:
                    prefix = self._prefix
                    if prefix is None or prefix[0] != k:
                        cand = self._awake_idx[:k]
                        prefix = self._prefix = (k, cand, self._keys[cand])
                    _, cand, keys = prefix
                    tx = cand if p >= 1.0 else cand[self.coins.below(step, p, keys)]
            if observed:
                self._observe_slot(step, tx, rx, t_start)
            elif rx is not None:
                self._resolve_receiver_side(*rx, step)
            elif tx is not None and tx.size:
                self._resolve_and_wake(tx, step)
        return executed

    # -- instrumented slots ------------------------------------------------

    def _per_trial(self, idx: np.ndarray) -> np.ndarray:
        """How many of the union indices ``idx`` fall in each trial."""
        if self.trials == 1:
            return np.array([idx.size])
        return np.bincount(idx // self.n, minlength=self.trials)

    def _observe_slot(self, step: int, tx, rx, t_start: float) -> None:
        """Resolve one slot with its bookkeeping: fault tallies, metrics,
        timings and each running trial's trace record (silent slots
        included)."""
        timings, cf = self.timings, self._cf
        running = self._running
        if cf is not None:
            crashes = cf.crash_counts.get(step, 0)
            if crashes:
                self._fault_counts[:, 0] += crashes * running
            jams = len(cf.jam_indices.get(step, ()))
            if jams:
                self._fault_counts[:, 1] += jams * running
            if tx is not None and cf.has_crashes:
                tx = tx[self._crash_slots[tx] > step]  # crashed nodes are silent forever
        if tx is not None and not tx.size:
            tx = None
        if timings is not None:
            t_coins = perf_counter()
            timings.add("engine.coins", t_coins - t_start)
        colliding = heard = _EMPTY
        if rx is not None:
            newly = self._resolve_receiver_side(*rx, step)
        elif tx is None:
            newly = _EMPTY
        elif self._hits_needed:
            newly, colliding, heard = self._resolve_counted(tx, step)
        else:
            newly = self._resolve_and_wake(tx, step)
        if timings is not None:
            t_end = perf_counter()
            timings.add("engine.channel", t_end - t_coins)
            timings.add("engine.step", t_end - t_start)
        if self.metrics is not None:
            self._slots_counter.inc(self._live)
            self._collision_hist.observe_many(self._per_trial(colliding)[running])
            if tx is not None:
                self._tx_counter.inc(tx.size)
                self._tx_counts[tx] += 1
        if self._tracing:
            if cf is not None and cf.has_crashes:
                colliding = colliding[self._crash_slots[colliding] > step]
            self._record(step, tx, newly, colliding, heard)

    def _by_trial(self, idx) -> list[np.ndarray]:
        """Sorted union indices split per trial, as node indices."""
        if idx is None:
            return [_EMPTY] * self.trials
        idx = np.sort(idx)
        if self.trials == 1:
            return [idx]
        parts = np.split(idx, np.searchsorted(idx, self._offsets[1:]))
        return [part - offset for part, offset in zip(parts, self._offsets)]

    def _record(self, step, tx, newly, colliding, heard) -> None:
        """Append slot ``step`` to every running trial's trace."""
        labels, full = self.labels, self._trace_full
        woken = self._by_trial(newly)
        if full:
            sent, coll, got = (self._by_trial(a) for a in (tx, colliding, heard))
        for t in np.flatnonzero(self._running).tolist():
            transmitters, deliveries, collisions = (), {}, ()
            if full:
                offset = int(self._offsets[t])
                transmitters = tuple(labels[sent[t]].tolist())
                senders = self._sender_of[got[t] + offset] - offset
                deliveries = dict(
                    zip(labels[got[t]].tolist(), labels[senders].tolist())
                )
                collisions = tuple(labels[coll[t]].tolist())
            self._traces[t].record(
                step=step,
                transmitters=transmitters,
                deliveries=deliveries,
                collisions=collisions,
                woken=tuple(labels[woken[t]].tolist()),
                informed=int(self._informed[t]),
            )

    def _resolve_counted(self, tx: np.ndarray, step: int):
        """Transmitter-side resolution with hit counts at every receiver.

        Runs the fault pipeline (crash -> jam -> loss -> wake-delay; loss
        coins drawn only for the delivered receivers), wakes the result
        and returns ``(newly, colliding, heard)``: the woken nodes, the
        listening receivers with two or more transmitting neighbours, and
        (FULL traces only) the receivers that heard a message.
        """
        cat, lengths = self._neighbours(tx)
        if cat.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        if cat.size >= self._size // 8:
            hits = np.bincount(cat, minlength=self._size)
            recv = np.flatnonzero(hits)
            cnt = hits[recv]
        else:
            recv, cnt = np.unique(cat, return_counts=True)
        is_tx = self._is_tx
        is_tx[tx] = True
        listening = ~is_tx[recv]  # half-duplex: transmitters hear nothing
        is_tx[tx] = False
        colliding = recv[(cnt >= 2) & listening]
        delivered = recv[(cnt == 1) & listening]
        cf = self._cf
        timed = cf is not None and self.timings is not None
        t_faults = perf_counter() if timed else 0.0
        if cf is not None:
            if cf.has_crashes:
                delivered = delivered[self._crash_slots[delivered] > step]
            jammed = cf.jam_indices.get(step)
            if jammed is not None and jammed.size:
                delivered = delivered[~np.isin(delivered % self.n, jammed)]
            if cf.loss_probability > 0.0 and delivered.size:
                lost = cf.loss_coins.below(
                    step, cf.loss_probability, self._loss_keys[delivered]
                )
                self._fault_counts[:, 2] += self._per_trial(delivered[lost])
                delivered = delivered[~lost]
        asleep = self._wake[delivered] == ASLEEP
        woke = asleep
        if cf is not None and cf.has_delays:
            delayed = asleep & (step < self._deaf_until[delivered])
            self._fault_counts[:, 3] += self._per_trial(delivered[delayed])
            woke = asleep & ~delayed
        if timed:
            self.timings.add("engine.faults", perf_counter() - t_faults)
        newly = delivered[woke]
        heard = _EMPTY
        if self._trace_full:
            # Awake receivers hear too (already informed, never deaf);
            # sleepers only count if they actually woke.
            heard = delivered[~asleep | woke]
            self._sender_of[cat] = np.repeat(tx, lengths)  # exact where hits == 1
        if newly.size:
            self._append_newly(newly, step)
        return newly, colliding, heard

    # -- channel resolution ------------------------------------------------

    def _neighbours(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated neighbour lists of union indices ``rows`` and
        each row's length."""
        nodes = rows if self.trials == 1 else rows % self.n
        indptr = self.kernel.indptr
        starts = indptr[nodes]
        lengths = indptr[nodes + 1] - starts
        cum = np.cumsum(lengths) - lengths
        pos = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
            starts - cum, lengths
        )
        cat = self.kernel.indices[pos]
        if self.trials > 1:
            cat = cat + np.repeat(rows - nodes, lengths)
        return cat, lengths

    def _resolve_and_wake(self, tx: np.ndarray, step: int) -> np.ndarray:
        """Exactly-one resolution over the transmitters' neighbour lists;
        returns the newly woken indices."""
        if tx.size == 1:
            indptr = self.kernel.indptr
            t = int(tx[0])
            v = t % self.n
            cat = self.kernel.indices[indptr[v]:indptr[v + 1]]
            if t != v:
                cat = cat + (t - v)
        else:
            cat, _ = self._neighbours(tx)
        if cat.size == 0:
            return _EMPTY
        wake = self._wake
        if cat.size >= self._size // 8:
            hits = np.bincount(cat, minlength=self._size)
            # Unique hearers first, then filter by sleep state: once most
            # of the network is awake the unique-hit set is small, so the
            # wake filter touches far fewer than n entries.
            once = np.flatnonzero(hits == 1)
        else:
            uniq, cnt = np.unique(cat, return_counts=True)
            once = uniq[cnt == 1]
        newly = once[wake[once] == ASLEEP]
        if newly.size:
            self._append_newly(newly, step)
        return newly

    # -- receiver-side resolution ------------------------------------------

    def _sleeper_gather(self) -> None:
        """Build, or compact, the sleepers' neighbour gather.

        ``_sl_idx`` lists sleepers in index order, ``_sl_nbr`` the
        concatenation of their neighbour lists, ``_sl_len`` each list's
        length and ``_sl_owner`` each entry's position in ``_sl_idx``.
        It is gathered once, at the first receiver-side slot.  Nodes that
        wake stay in it (candidates are filtered by ``wake == ASLEEP``)
        until fewer than half of its sleepers are still asleep; it is then
        compacted in place, so compaction costs a geometric series rather
        than one re-gather per wake event.
        """
        s = self._sl_idx
        if s is None:
            s = np.flatnonzero(self._wake == ASLEEP)
            nbr, lengths = self._neighbours(s)
        elif 2 * self._asleep < s.size:
            keep = self._wake[s] == ASLEEP
            s = s[keep]
            nbr = self._sl_nbr[np.repeat(keep, self._sl_len)]
            lengths = self._sl_len[keep]
        else:
            return
        self._sl_idx, self._sl_nbr, self._sl_len = s, nbr, lengths
        self._sl_owner = np.repeat(np.arange(s.size), lengths)
        self._el_for = None  # entry positions moved

    def _resolve_receiver_side(self, p: float, elig: int, step: int) -> np.ndarray:
        """One slot resolved from the sleepers' side of the channel;
        returns the newly woken indices.

        For each sleeper, count transmitting in-neighbours directly: a
        neighbour transmits iff it woke before ``elig`` and its slot coin
        passes — the transmitter-side predicate (coins are pure
        per-(node, slot) functions), evaluated only where a wake event is
        possible.  The gather entries whose neighbour is eligible are
        listed once per threshold (sleeper slot and coin key); a slot
        tests coins on those entries only and counts the passes per
        sleeper with one ``bincount``.  A list built at step ``t`` for
        threshold ``elig`` stays valid while ``elig <= t``, since nodes
        woken later carry ``wake >= t``; otherwise (e.g.
        :data:`ELIGIBLE_ANY_AWAKE`) it is rebuilt.  Only running trials
        have sleepers here (runs without crashes settle by completing),
        so a retired trial's awake nodes never reach a count.
        """
        self._sleeper_gather()
        built = self._el_for
        if built is None or built[0] != elig or elig > built[1]:
            eligible = np.flatnonzero(self._wake[self._sl_nbr] < elig)
            self._el_slot = self._sl_owner[eligible]
            self._el_keys = self._keys[self._sl_nbr[eligible]]
            self._el_for = (elig, step)
        slots = self._el_slot
        if p < 1.0:
            slots = slots[self.coins.below(step, p, self._el_keys)]
        counts = np.bincount(slots, minlength=self._sl_idx.size)
        candidates = self._sl_idx[counts == 1]
        newly = candidates[self._wake[candidates] == ASLEEP]
        if newly.size:
            self._append_newly(newly, step)
        return newly

    def _append_newly(self, newly: np.ndarray, step: int) -> None:
        self._wake[newly] = step
        count = self._awake_count
        self._awake_idx[count:count + newly.size] = newly
        self._awake_wakes[count:count + newly.size] = step
        self._awake_count = count + newly.size
        self._asleep -= newly.size
        self._informed += self._per_trial(newly)
        self._check_settle = True


def run_broadcast_macro(
    network,
    algorithm: VectorizedAlgorithm,
    seed: int = 0,
    max_steps: int | None = None,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    trace_level: TraceLevel = TraceLevel.NONE,
    allow_large: bool = False,
) -> BroadcastResult:
    """One run on the ``macro`` engine (:class:`MacroStepEngine`).

    A thin alias over :func:`~repro.sim.driver.simulate` with one seed and
    ``engine="macro"``; every argument means what it means there.  Results
    are bit-identical to every other engine (asserted by the conformance
    suite).
    """
    from .driver import simulate

    (result,) = simulate(
        network, algorithm, [seed], engine="macro", max_steps=max_steps,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
        trace_level=trace_level, allow_large=allow_large,
    )
    return result
