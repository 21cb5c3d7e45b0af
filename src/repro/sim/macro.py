"""Multi-slot macro-step execution for oblivious algorithms.

The per-slot cost of :class:`~repro.sim.fast.FastEngine` has two parts
that stop mattering being cheap at 10^5-10^6 nodes: a dense O(n) coin /
mask evaluation per slot, and an O(E) sparse matrix-vector product per
slot — paid even in slots where three nodes transmit.  This module
removes both:

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
  (:meth:`~repro.sim.coins.CoinSource.uniform_at` — bit-identical to the
  dense flips), and the channel is resolved by gathering only the
  transmitters' CSR neighbour lists: O(sum deg(tx)) instead of O(E).

Two interchangeable backends execute a block: the pure-numpy
implementation (always available) and an optional numba ``@njit`` kernel
(:mod:`repro.sim._kernels`) that fuses the whole block into one compiled
call.  ``backend="auto"`` picks numba when importable; both are held to
bit-identity by the conformance suite.

Instrumented runs (fault plans, metrics, traces, timings) execute on
:class:`~repro.sim.fast.FastEngine` with the macro plan *adapted back*
into dense per-slot masks — one code path owns the fault/trace
semantics, and the conformance matrix exercises the plan decode against
the reference engine under every plan/trace combination.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .channel import ChannelKernel
from .coins import CoinSource, _step_salt
from .errors import ConfigurationError
from .fast import (
    ASLEEP,
    FastEngine,
    VectorizedAlgorithm,
    _check_vectorized,
    _wake_dict,
)
from .faults import FaultPlan
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


class _PlanAdaptedAlgorithm:
    """Serve a macro plan back as dense per-slot ``transmit_mask`` calls.

    Instrumented macro runs execute on :class:`~repro.sim.fast.FastEngine`
    with the algorithm wrapped in this adapter, so the *plan decode* —
    not the original ``transmit_mask`` — is what the conformance matrix
    holds to reference identity under faults and FULL traces.  The dense
    masks it produces equal the original ``transmit_mask`` masks after
    the engine's ``& awake`` (eligibility implies awakeness; solo labels
    are masked identically).
    """

    def __init__(self, inner: VectorizedAlgorithm, block_size: int):
        self._inner = inner
        self._block = block_size
        self._plan: MacroPlan | None = None
        self.name = inner.name
        self.deterministic = inner.deterministic

    def max_steps_hint(self, n: int, r: int) -> int | None:
        hint = getattr(self._inner, "max_steps_hint", None)
        return hint(n, r) if hint is not None else None

    def reset_run(self, n: int) -> None:
        self._plan = None
        reset = getattr(self._inner, "reset_run", None)
        if reset is not None:
            reset(n)

    def transmit_mask(self, step, labels, wake_steps, r, coins):
        plan = self._plan
        if plan is None or not plan.start <= step < plan.start + len(plan):
            plan = self._inner.macro_plan(step, self._block, r)
            self._plan = plan
        if plan is None:  # the hook declined this block
            return self._inner.transmit_mask(step, labels, wake_steps, r, coins)
        j = step - plan.start
        s = plan.single[j]
        if s >= 0:
            return (labels == s) & (wake_steps < plan.elig[j])
        p = plan.probs[j]
        if p < 0.0:
            return np.zeros(wake_steps.shape, dtype=bool)
        eligible = wake_steps < plan.elig[j]
        if p >= 1.0:
            return eligible
        return eligible & (coins.uniform(step) < p)


class MacroStepEngine:
    """Sparse macro-step engine for plain (uninstrumented) runs.

    Executes ``block_size`` slots per macro step with no per-slot Python
    dispatch into the algorithm (when it provides ``macro_plan``),
    settle-checks inside the block, and resolves the channel by
    transmitter gather.  Produces exactly the wake slots of
    ``FastEngine(network, algorithm, seed)`` — asserted by the
    conformance suite and the large-n spot checks.

    Args:
        network: Topology — a :class:`~repro.sim.network.RadioNetwork`
            or a CSR-native :class:`~repro.topology.csr.CSRNetwork`.
        algorithm: An oblivious :class:`~repro.sim.fast.VectorizedAlgorithm`.
        seed: Master seed (same coin streams as every other engine).
        block_size: Macro-step width ``K``.  Results never depend on it
            (hypothesis-tested); it only trades plan-decode batching
            against wasted decode past the settle slot.
        backend: ``"numpy"`` or ``"numba"`` (resolved; see
            :func:`resolve_macro_backend`).
    """

    def __init__(
        self,
        network,
        algorithm: VectorizedAlgorithm,
        seed: int = 0,
        block_size: int = 64,
        backend: str = "numpy",
    ):
        _check_vectorized(algorithm)
        if block_size < 1:
            raise ConfigurationError(f"block_size must be positive, got {block_size}")
        self.network = network
        self.algorithm = algorithm
        self.seed = seed
        self.block_size = block_size
        self.backend = backend
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
        # Receiver-side resolution state (see _resolve_receiver_side):
        # the sorted sleeper list plus its flattened neighbour gather,
        # refreshed lazily whenever nodes have woken since the last sync.
        self._asleep_idx = np.delete(np.arange(n, dtype=np.int64), source_idx)
        self._sleeper_sync = -1
        self._avg_deg = kernel.indices.size / max(1, n)
        # Receiver-side counting reads a sleeper's *out*-neighbour row as
        # its in-neighbour list, which is only sound on symmetric
        # adjacency — i.e. CSR-native topologies (undirected by
        # construction).  Possibly-directed RadioNetworks stay on the
        # transmitter-side path.
        self._rx_ok = getattr(network, "csr_arrays", None) is not None
        self.step = 0
        self._plan_hook = getattr(algorithm, "macro_plan", None)
        if backend == "numba":
            # JIT scratch: hit counts (kept all-zero between blocks) and
            # the touched-node compaction buffer.
            self._counts = np.zeros(n, dtype=np.int64)
            self._touched = np.empty(n, dtype=np.int64)
        reset = getattr(algorithm, "reset_run", None)
        if reset is not None:
            reset(n)
        self.trace = Trace(level=TraceLevel.NONE)
        self.trace.mark_initially_informed(network.source)

    # -- result surface (FastEngine-compatible) ---------------------------

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

    def wake_times(self) -> dict[int, int]:
        return _wake_dict(self.labels, self.wake_steps)

    def transmission_counts(self) -> None:
        return None  # plain runs are never instrumented

    # -- execution ---------------------------------------------------------

    def run(self, max_steps: int) -> int:
        """Run until every node is informed or the limit; returns slots
        executed (identical to ``FastEngine.run`` with settle-stop)."""
        executed = 0
        while executed < max_steps and self._awake_count < self.n:
            count = min(self.block_size, max_steps - executed)
            plan = (
                self._plan_hook(self.step, count, self.network.r)
                if self._plan_hook is not None
                else None
            )
            if plan is not None:
                ran = self._run_plan_block(plan, count)
            else:
                ran = self._run_fallback_block(count)
            executed += ran
        return executed

    def _run_plan_block(self, plan: MacroPlan, count: int) -> int:
        if self.backend == "numba":
            return self._run_plan_block_numba(plan, count)
        wake = self.wake_steps
        probs, elig, single = plan.probs, plan.elig, plan.single
        executed = 0
        # Eligible-prefix cache: within a KP stage the threshold — and
        # hence the prefix — is constant (nodes woken mid-stage carry
        # wake >= the threshold), so the keys gather amortises across the
        # stage's slots.
        cached_k = -1
        cached_cand = None
        cached_keys = None
        for j in range(count):
            if self._awake_count == self.n:
                break
            step = self.step
            self.step += 1
            executed += 1
            tx = None
            s = single[j]
            if s >= 0:
                idx = self._index.get(int(s))
                if idx is not None and wake[idx] < elig[j]:
                    tx = np.array([idx], dtype=np.int64)
            elif probs[j] >= 0.0:
                p = probs[j]
                k = int(
                    np.searchsorted(
                        self._awake_wakes[: self._awake_count], elig[j], side="left"
                    )
                )
                if k == 0:
                    continue
                # Pick the cheaper side of the channel: transmitter-side
                # work scales with the eligible set and its edges (coins
                # for k nodes, a gather of ~p * k * avg_deg edges, a full-n
                # bincount); receiver-side work scales with the sleepers'
                # edges only — and only sleepers can wake.  Early in the
                # run the eligible set is tiny, late in the run the
                # sleeper set is.
                est_tx = k + p * k * self._avg_deg + 0.5 * self.n
                est_rx = 3.0 * (self.n - self._awake_count) * self._avg_deg
                if self._rx_ok and est_rx < est_tx:
                    self._resolve_receiver_side(p, int(elig[j]), step)
                    continue
                if k != cached_k:
                    cached_k = k
                    cached_cand = self._awake_idx[:k]
                    cached_keys = self.coins._keys[cached_cand]
                if p >= 1.0:
                    tx = cached_cand
                else:
                    flips = self.coins.uniform_keys(step, cached_keys)
                    tx = cached_cand[flips < p]
            if tx is not None and tx.size:
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

    def _run_fallback_block(self, count: int) -> int:
        """Per-slot fallback for algorithms without ``macro_plan`` —
        dense decisions, sparse channel."""
        executed = 0
        for _ in range(count):
            if self._awake_count == self.n:
                break
            step = self.step
            self.step += 1
            executed += 1
            mask = self.algorithm.transmit_mask(
                step, self.labels, self.wake_steps, self.network.r, self.coins
            )
            mask = np.asarray(mask, dtype=bool) & (self.wake_steps != ASLEEP)
            tx = np.flatnonzero(mask)
            if tx.size:
                self._resolve_and_wake(tx, step)
        return executed

    def _resolve_and_wake(self, tx: np.ndarray, step: int) -> None:
        """Exactly-one resolution over the transmitters' neighbour lists."""
        indptr, indices = self.kernel.indptr, self.kernel.indices
        if tx.size == 1:
            t = int(tx[0])
            cat = indices[indptr[t]:indptr[t + 1]]
        else:
            starts = indptr[tx]
            lengths = indptr[tx + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                return
            cum = np.cumsum(lengths) - lengths
            pos = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lengths)
            cat = indices[pos]
        if cat.size == 0:
            return
        wake = self.wake_steps
        if cat.size >= self.n // 8:
            hits = np.bincount(cat, minlength=self.n)
            # Unique hearers first, then filter by sleep state: once most
            # of the network is awake the unique-hit set is small, so the
            # wake filter touches far fewer than n entries.
            once = np.flatnonzero(hits == 1)
            newly = once[wake[once] == ASLEEP]
        else:
            uniq, cnt = np.unique(cat, return_counts=True)
            once = uniq[cnt == 1]
            newly = once[wake[once] == ASLEEP]
        if newly.size:
            self._append_newly(newly, step)

    # -- receiver-side resolution ------------------------------------------

    def _sync_sleepers(self) -> None:
        """Refresh the sleeper list and its cached neighbour gather.

        The gather (``cat``: the concatenation of every sleeper's
        neighbour list, with ``cum`` segment offsets and the matching coin
        keys) is immutable between wake events, so consecutive
        receiver-side slots reuse it and pay only the per-slot transmit
        test.
        """
        if self._sleeper_sync == self._awake_count:
            return
        indptr, indices = self.kernel.indptr, self.kernel.indices
        s = self._asleep_idx
        s = s[self.wake_steps[s] == ASLEEP]
        self._asleep_idx = s
        starts = indptr[s]
        lengths = indptr[s + 1] - starts
        total = int(lengths.sum())
        cum = np.cumsum(lengths) - lengths
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lengths)
        self._sleeper_cum = cum
        self._sleeper_cat = indices[pos]
        self._sleeper_keys = self.coins._keys[self._sleeper_cat]
        self._sleeper_elig_cache = (None, None)
        self._sleeper_sync = self._awake_count

    def _resolve_receiver_side(self, p: float, elig: int, step: int) -> None:
        """One slot resolved from the sleepers' side of the channel.

        For each sleeper, count transmitting in-neighbours directly:
        a neighbour transmits iff it woke before ``elig`` and its slot
        coin passes.  Exactly the same transmit predicate as the
        transmitter-side path (coins are pure per-(node, slot)
        functions), evaluated only where a wake event is possible.
        """
        self._sync_sleepers()
        s = self._asleep_idx
        if s.size == 0:
            return
        cached_elig, cached_mask = self._sleeper_elig_cache
        if cached_elig != elig:
            cached_mask = self.wake_steps[self._sleeper_cat] < elig
            self._sleeper_elig_cache = (elig, cached_mask)
        if p >= 1.0:
            vt = cached_mask
        else:
            vt = cached_mask & (
                self.coins.uniform_keys(step, self._sleeper_keys) < p
            )
        counts = np.add.reduceat(vt.astype(np.int64), self._sleeper_cum)
        newly = s[counts == 1]
        if newly.size:
            self._append_newly(newly, step)

    def _append_newly(self, newly: np.ndarray, step: int) -> None:
        self.wake_steps[newly] = step
        count = self._awake_count
        self._awake_idx[count:count + newly.size] = newly
        self._awake_wakes[count:count + newly.size] = step
        self._awake_count = count + newly.size


def _build_macro_engine(
    network,
    algorithm: VectorizedAlgorithm,
    seed: int = 0,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    trace_level: TraceLevel = TraceLevel.NONE,
    block_size: int = 64,
    backend: str = "auto",
):
    """The ``macro`` registry entry's construction rule.

    Plain runs (no faults, metrics, timings or traces) get a
    :class:`MacroStepEngine` on the resolved ``backend``.  Instrumented
    runs get a :class:`~repro.sim.fast.FastEngine` with the macro plan
    adapted back into dense masks, so fault/trace/metric semantics live in
    one engine and the plan decode itself is conformance-tested under
    every fault and trace combination.
    """
    backend = resolve_macro_backend(backend)
    if (
        faults is None
        and metrics is None
        and timings is None
        and trace_level is TraceLevel.NONE
    ):
        return MacroStepEngine(
            network, algorithm, seed=seed, block_size=block_size, backend=backend
        )
    if getattr(algorithm, "macro_plan", None) is not None:
        algorithm = _PlanAdaptedAlgorithm(algorithm, block_size)
    return FastEngine(
        network, algorithm, seed=seed, faults=faults, metrics=metrics,
        timings=timings, trace_level=trace_level,
    )


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
    """One run on the ``macro`` engine (see :func:`_build_macro_engine`).

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
        build=partial(_build_macro_engine, block_size=block_size, backend=backend),
    )
    (result,) = simulate(
        network, algorithm, [seed], engine=spec, max_steps=max_steps,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
        trace_level=trace_level, allow_large=allow_large,
    )
    return result
