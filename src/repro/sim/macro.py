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

Two interchangeable backends execute a plain block: the pure-numpy
implementation (always available) and an optional numba ``@njit`` kernel
(:mod:`repro.sim._kernels`) that fuses the whole block into one compiled
call.  ``backend="auto"`` picks numba when importable; both are held to
bit-identity by the conformance suite.

Instrumented runs (fault plans, metrics, traces, timings) execute on the
numpy block path of the same engine, with per-slot bookkeeping; the
conformance matrix holds them to the reference engine's results, traces,
fault counters and metrics under every plan/trace combination.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .channel import ChannelKernel
from .coins import CoinSource, _step_salt
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

#: Environment override for the default backend selection ("numpy" or
#: "numba"); the CI numba leg forces the JIT path with it.
BACKEND_ENV = "REPRO_MACRO_BACKEND"

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
    """Resolve ``"auto"`` to a concrete backend name.

    ``"auto"`` honours :data:`BACKEND_ENV` when set, else picks
    ``"numba"`` exactly when numba is importable.  Requesting
    ``"numba"`` without numba installed is a configuration error, never a
    silent fallback.
    """
    from . import _kernels

    if backend == "auto":
        backend = os.environ.get(BACKEND_ENV, "") or "auto"
    if backend == "auto":
        return "numba" if _kernels.HAVE_NUMBA else "numpy"
    if backend not in ("numpy", "numba"):
        raise ConfigurationError(
            f"unknown macro backend {backend!r}; expected 'auto', 'numpy' or 'numba'"
        )
    if backend == "numba" and not _kernels.HAVE_NUMBA:
        raise ConfigurationError(
            "macro backend 'numba' requested but numba is not importable; "
            "install numba or use backend='numpy'"
        )
    return backend


class MacroStepEngine:
    """Sparse macro-step engine: the single-run engine for oblivious
    algorithms.

    Executes ``block_size`` slots per macro step with no per-slot Python
    dispatch into the algorithm (when it provides ``macro_plan``),
    settle-checks inside the block, and resolves each slot from whichever
    side of the channel is cheaper.  Fault plans, metrics, timings and
    traces run on the same block loop: they add per-slot bookkeeping, and
    the ones that need hit counts at awake receivers pin resolution to
    the transmitter side (see ``_rx_ok``).  Semantics are the reference
    engine's, slot for slot — asserted by the conformance suite and the
    large-n spot checks.

    Args:
        network: Topology — a :class:`~repro.sim.network.RadioNetwork`
            (directed or undirected) or a CSR-native
            :class:`~repro.topology.csr.CSRNetwork`.
        algorithm: An oblivious :class:`~repro.sim.fast.VectorizedAlgorithm`.
        seed: Master seed (same coin streams as every other engine).
        block_size: Macro-step width ``K``.  Results never depend on it
            (hypothesis-tested); it only trades plan-decode batching
            against wasted decode past the settle slot.
        backend: ``"auto"``, ``"numpy"`` or ``"numba"`` (see
            :func:`resolve_macro_backend`).  Instrumented runs always take
            the numpy block path, and :attr:`backend` then reads
            ``"numpy"``.
        faults: Optional :class:`~repro.sim.faults.FaultPlan`, applied per
            slot in the reference engine's order: crash -> jam -> loss ->
            wake-delay.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            (slot/transmission/collision instruments, identical names and
            semantics to the reference engine's, plus per-node tallies).
        timings: Optional :class:`~repro.obs.timings.Timings` accumulating
            the per-slot stages ``engine.coins``, ``engine.channel``,
            ``engine.faults`` (⊂ channel) and ``engine.step``.
        trace_level: Channel detail to record into :attr:`trace`
            (reference-identical records).
    """

    def __init__(
        self,
        network,
        algorithm: VectorizedAlgorithm,
        seed: int = 0,
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
        self.network = network
        self.algorithm = algorithm
        self.seed = seed
        self.block_size = block_size
        self.backend = resolve_macro_backend(backend)
        kernel = ChannelKernel(network)
        self.kernel = kernel
        self.labels = kernel.labels
        self._index = kernel.index
        self.coins = CoinSource.for_run(seed, self.labels)
        n = network.n
        self.n = n
        self.wake_steps = np.full(n, ASLEEP, dtype=np.int64)
        source_idx = kernel.index[network.source]
        self.wake_steps[source_idx] = -1
        # The awake set as a wake-ordered index list: entries are appended
        # in wake order, so wake values are non-decreasing and the
        # eligible set of any threshold is a binary-searched prefix.
        self._awake_idx = np.empty(n, dtype=np.int64)
        self._awake_wakes = np.empty(n, dtype=np.int64)
        self._awake_idx[0] = source_idx
        self._awake_wakes[0] = -1
        self._awake_count = 1
        # Receiver-side resolution state (see _resolve_receiver_side): the
        # sleepers' neighbour gather, built at the first receiver-side
        # slot, and the eligible entries of one threshold.
        self._sl_idx: np.ndarray | None = None
        self._el_for: tuple[int, int] | None = None
        self._avg_deg = kernel.indices.size / max(1, n)
        self.step = 0
        self._plan_hook = getattr(algorithm, "macro_plan", None)
        self.trace = Trace(level=trace_level)
        self.trace.mark_initially_informed(network.source)
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
            self._tx_counts = np.zeros(n, dtype=np.int64)
        self.fault_counters: FaultCounters | None = None
        self._cf: CompiledFaults | None = None
        # Nodes with a crash slot, for the settle check (a crashed sleeper
        # can never wake).
        self._crash_idx = self._crash_at = _EMPTY
        if faults is not None:
            self._cf = compile_faults(
                faults, network, self._index, self.labels,
                [derive_fault_seed(faults.seed, seed)],
            )
            self.fault_counters = FaultCounters()
            self.trace.fault_counters = self.fault_counters
            self._crash_idx = np.flatnonzero(self._cf.crash_slots != NEVER)
            self._crash_at = self._cf.crash_slots[self._crash_idx]
        # Collision counts, deliveries to awake nodes and loss tallies need
        # hit counts at every receiver, which only the transmitter side of
        # the channel computes.
        self._hits_needed = (
            metrics is not None or self._trace_full or faults is not None
        )
        if self._hits_needed:
            self._is_tx = np.zeros(n, dtype=bool)
        if self._trace_full:
            self._sender_of = np.empty(n, dtype=np.int64)
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
        self._observed = (
            self._hits_needed
            or timings is not None
            or trace_level is not TraceLevel.NONE
        )
        if self._observed:
            # Instrumented runs take the numpy block path; the JIT kernel
            # has no per-slot bookkeeping.
            self.backend = "numpy"
        if self.backend == "numba":
            # JIT scratch: hit counts (kept all-zero between blocks) and
            # the touched-node compaction buffer.
            self._counts = np.zeros(n, dtype=np.int64)
            self._touched = np.empty(n, dtype=np.int64)
        reset = getattr(algorithm, "reset_run", None)
        if reset is not None:
            reset(n)

    # -- result surface ----------------------------------------------------

    @property
    def all_informed(self) -> bool:
        return self._awake_count == self.n

    @property
    def informed_count(self) -> int:
        return self._awake_count

    @property
    def completion_time(self) -> int | None:
        if not self.all_informed:
            return None
        return int(self._awake_wakes[self._awake_count - 1]) + 1

    def wake_times(self) -> WakeTimes:
        return WakeTimes(self.labels, self.wake_steps)

    def transmission_counts(self) -> list[int] | None:
        """Per-node transmission tallies (label order); ``None`` when the
        engine ran without metrics."""
        if self._tx_counts is None:
            return None
        return self._tx_counts.tolist()

    # -- execution ---------------------------------------------------------

    def _settled(self) -> bool:
        """No further wake possible: every node is informed, or asleep and
        crashed."""
        asleep = self.n - self._awake_count
        if asleep == 0:
            return True
        if asleep > self._crash_idx.size:
            return False
        crashed = self._crash_idx[self._crash_at <= self.step]
        return int(np.count_nonzero(self.wake_steps[crashed] == ASLEEP)) == asleep

    def run(self, max_steps: int) -> int:
        """Run until every node settles or the limit; returns slots
        executed."""
        executed = 0
        while executed < max_steps and not self._settled():
            count = min(self.block_size, max_steps - executed)
            plan = (
                self._plan_hook(self.step, count, self.network.r)
                if self._plan_hook is not None
                else None
            )
            if plan is not None and self.backend == "numba":
                executed += self._run_plan_block_numba(plan, count)
            else:
                executed += self._run_block(plan, count)
        return executed

    def _run_block(self, plan: MacroPlan | None, count: int) -> int:
        """Up to ``count`` slots on the numpy path: decisions from the
        macro plan, or per-slot ``transmit_mask`` for algorithms without
        one (dense decisions, sparse channel)."""
        wake = self.wake_steps
        timings = self.timings
        observed = self._observed
        if plan is not None:
            probs, elig, single = plan.probs, plan.elig, plan.single
        t_start = 0.0
        executed = 0
        # Eligible-prefix cache: within a KP stage the threshold — and
        # hence the prefix — is constant (nodes woken mid-stage carry
        # wake >= the threshold), so the keys gather amortises across the
        # stage's slots.
        cached_k = -1
        cached_cand = None
        cached_keys = None
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
                    step, self.labels, wake, self.network.r, self.coins
                )
                tx = np.flatnonzero(np.asarray(mask, dtype=bool) & (wake != ASLEEP))
            elif single[j] >= 0:
                idx = self._index.get(int(single[j]))
                if idx is not None and wake[idx] < elig[j]:
                    tx = np.array([idx], dtype=np.int64)
            elif probs[j] >= 0.0:
                p = probs[j]
                k = int(
                    np.searchsorted(
                        self._awake_wakes[: self._awake_count], elig[j], side="left"
                    )
                )
                # Pick the cheaper side of the channel: transmitter-side
                # work scales with the eligible set and its edges (coins
                # for k nodes, a gather of ~p * k * avg_deg edges, a full-n
                # bincount); receiver-side work scales with the sleepers'
                # edges only — and only sleepers can wake.  Early in the
                # run the eligible set is tiny, late in the run the
                # sleeper set is.  ``k == 0`` is a silent slot.
                est_tx = k + p * k * self._avg_deg + 0.5 * self.n
                est_rx = 3.0 * (self.n - self._awake_count) * self._avg_deg
                if k == 0:
                    pass
                elif self._rx_ok and est_rx < est_tx:
                    rx = (p, int(elig[j]))
                else:
                    if k != cached_k:
                        cached_k = k
                        cached_cand = self._awake_idx[:k]
                        cached_keys = self.coins._keys[cached_cand]
                    if p >= 1.0:
                        tx = cached_cand
                    else:
                        tx = cached_cand[self.coins.below(step, p, cached_keys)]
            if observed:
                self._observe_slot(step, tx, rx, t_start)
            elif rx is not None:
                self._resolve_receiver_side(*rx, step)
            elif tx is not None and tx.size:
                self._resolve_and_wake(tx, step)
        return executed

    def _run_plan_block_numba(self, plan: MacroPlan, count: int) -> int:
        from ._kernels import run_plan_block

        # Solo slots carry labels; the kernel wants indices (-1: silent,
        # including labels no node holds).
        single_idx = np.full(count, -1, dtype=np.int64)
        for j in range(count):
            s = plan.single[j]
            if s >= 0:
                idx = self._index.get(int(s))
                if idx is not None:
                    single_idx[j] = idx
        salts = np.array(
            [_step_salt(self.step + j) for j in range(count)], dtype=np.uint64
        )
        executed, awake_count = run_plan_block(
            self.kernel.indptr,
            self.kernel.indices,
            self.wake_steps,
            self._awake_idx,
            self._awake_wakes,
            self._awake_count,
            self.coins._keys,
            self.step,
            salts,
            np.ascontiguousarray(plan.probs, dtype=np.float64),
            np.ascontiguousarray(plan.elig, dtype=np.int64),
            single_idx,
            self._counts,
            self._touched,
        )
        self.step += int(executed)
        self._awake_count = int(awake_count)
        return int(executed)

    # -- instrumented slots ------------------------------------------------

    def _observe_slot(self, step: int, tx, rx, t_start: float) -> None:
        """Resolve one slot with its bookkeeping: fault tallies, metrics,
        timings and the trace record (silent slots included)."""
        timings, cf = self.timings, self._cf
        if cf is not None:
            counters = self.fault_counters
            counters.crashed_nodes += cf.crash_counts.get(step, 0)
            counters.jammed_slots += len(cf.jam_indices.get(step, ()))
            if tx is not None and cf.has_crashes:
                tx = tx[cf.crash_slots[tx] > step]  # crashed nodes are silent forever
        if tx is not None and not tx.size:
            tx = None
        if timings is not None:
            t_coins = perf_counter()
            timings.add("engine.coins", t_coins - t_start)
        n_coll, deliveries, collisions = 0, {}, ()
        if rx is not None:
            newly = self._resolve_receiver_side(*rx, step)
        elif tx is None:
            newly = _EMPTY
        elif self._hits_needed:
            newly, n_coll, deliveries, collisions = self._resolve_counted(tx, step)
        else:
            newly = self._resolve_and_wake(tx, step)
        if timings is not None:
            t_end = perf_counter()
            timings.add("engine.channel", t_end - t_coins)
            timings.add("engine.step", t_end - t_start)
        if self.metrics is not None:
            self._slots_counter.inc()
            self._collision_hist.observe(n_coll)
            if tx is not None:
                self._tx_counter.inc(tx.size)
                self._tx_counts[tx] += 1
        if self.trace.level is not TraceLevel.NONE:
            labels = self.labels
            self.trace.record(
                step=step,
                transmitters=(
                    tuple(labels[np.sort(tx)].tolist())
                    if self._trace_full and tx is not None
                    else ()
                ),
                deliveries=deliveries,
                collisions=collisions,
                woken=tuple(labels[newly].tolist()),
                informed=self._awake_count,
            )

    def _resolve_counted(self, tx: np.ndarray, step: int):
        """Transmitter-side resolution with hit counts at every receiver.

        Runs the fault pipeline (crash -> jam -> loss -> wake-delay; loss
        coins drawn only for the delivered receivers), wakes the result
        and returns ``(newly, collision_count, deliveries, collisions)``
        — the last two filled for FULL traces only.
        """
        cat, lengths = self._neighbours(tx)
        if cat.size == 0:
            return _EMPTY, 0, {}, ()
        if cat.size >= self.n // 8:
            hits = np.bincount(cat, minlength=self.n)
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
                delivered = delivered[cf.crash_slots[delivered] > step]
            jammed = cf.jam_indices.get(step)
            if jammed is not None and jammed.size:
                delivered = delivered[~np.isin(delivered, jammed)]
            if cf.loss_probability > 0.0 and delivered.size:
                lost = cf.loss_coins.below(
                    step, cf.loss_probability, cf.loss_coins._keys[delivered]
                )
                self.fault_counters.lost_messages += int(np.count_nonzero(lost))
                delivered = delivered[~lost]
        asleep = self.wake_steps[delivered] == ASLEEP
        woke = asleep
        if cf is not None and cf.has_delays:
            delayed = asleep & (step < cf.deaf_until[delivered])
            self.fault_counters.delayed_wakes += int(np.count_nonzero(delayed))
            woke = asleep & ~delayed
        if timed:
            self.timings.add("engine.faults", perf_counter() - t_faults)
        newly = delivered[woke]
        deliveries, collisions = {}, ()
        if self._trace_full:
            labels = self.labels
            # Awake receivers hear too (already informed, never deaf);
            # sleepers only count if they actually woke.
            heard = delivered[~asleep | woke]
            sender_of = self._sender_of
            sender_of[cat] = np.repeat(tx, lengths)  # exact where hits == 1
            deliveries = dict(
                zip(labels[heard].tolist(), labels[sender_of[heard]].tolist())
            )
            if cf is not None and cf.has_crashes:
                colliding_alive = colliding[cf.crash_slots[colliding] > step]
            else:
                colliding_alive = colliding
            collisions = tuple(labels[colliding_alive].tolist())
        if newly.size:
            self._append_newly(newly, step)
        return newly, colliding.size, deliveries, collisions

    # -- channel resolution ------------------------------------------------

    def _neighbours(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated CSR neighbour lists of ``rows`` and each row's
        length."""
        indptr = self.kernel.indptr
        starts = indptr[rows]
        lengths = indptr[rows + 1] - starts
        cum = np.cumsum(lengths) - lengths
        pos = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
            starts - cum, lengths
        )
        return self.kernel.indices[pos], lengths

    def _resolve_and_wake(self, tx: np.ndarray, step: int) -> np.ndarray:
        """Exactly-one resolution over the transmitters' neighbour lists;
        returns the newly woken indices."""
        if tx.size == 1:
            indptr = self.kernel.indptr
            t = int(tx[0])
            cat = self.kernel.indices[indptr[t]:indptr[t + 1]]
        else:
            cat, _ = self._neighbours(tx)
        if cat.size == 0:
            return _EMPTY
        wake = self.wake_steps
        if cat.size >= self.n // 8:
            hits = np.bincount(cat, minlength=self.n)
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
            s = np.flatnonzero(self.wake_steps == ASLEEP)
            nbr, lengths = self._neighbours(s)
        elif 2 * (self.n - self._awake_count) < s.size:
            keep = self.wake_steps[s] == ASLEEP
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
        :data:`ELIGIBLE_ANY_AWAKE`) it is rebuilt.
        """
        self._sleeper_gather()
        built = self._el_for
        if built is None or built[0] != elig or elig > built[1]:
            eligible = np.flatnonzero(self.wake_steps[self._sl_nbr] < elig)
            self._el_slot = self._sl_owner[eligible]
            self._el_keys = self.coins._keys[self._sl_nbr[eligible]]
            self._el_for = (elig, step)
        slots = self._el_slot
        if p < 1.0:
            slots = slots[self.coins.below(step, p, self._el_keys)]
        counts = np.bincount(slots, minlength=self._sl_idx.size)
        candidates = self._sl_idx[counts == 1]
        newly = candidates[self.wake_steps[candidates] == ASLEEP]
        if newly.size:
            self._append_newly(newly, step)
        return newly

    def _append_newly(self, newly: np.ndarray, step: int) -> None:
        self.wake_steps[newly] = step
        count = self._awake_count
        self._awake_idx[count:count + newly.size] = newly
        self._awake_wakes[count:count + newly.size] = step
        self._awake_count = count + newly.size


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
    block_size: int = 64,
    backend: str = "auto",
    allow_large: bool = False,
) -> BroadcastResult:
    """One run on the ``macro`` engine (:class:`MacroStepEngine`).

    A thin alias over :func:`~repro.sim.driver.simulate` that binds the
    two macro-only parameters: ``block_size``, the macro-step width ``K``
    (results never depend on it), and ``backend`` — ``"auto"`` (default;
    numba when importable, overridable via ``REPRO_MACRO_BACKEND``),
    ``"numpy"`` or ``"numba"``.  Results are bit-identical to every other
    engine (asserted by the conformance suite).
    """
    from .driver import ENGINES, simulate

    spec = replace(
        ENGINES["macro"],
        engine_cls=partial(MacroStepEngine, block_size=block_size, backend=backend),
    )
    (result,) = simulate(
        network, algorithm, [seed], engine=spec, max_steps=max_steps,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
        trace_level=trace_level, allow_large=allow_large,
    )
    return result
