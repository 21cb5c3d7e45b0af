"""Multi-slot macro-step execution for oblivious algorithms.

A per-slot array program over the whole network has two costs that stop
being cheap at 10^5-10^6 nodes: a dense O(n) coin / mask evaluation per
slot, and an O(E) sparse matrix-vector product per slot — paid even in
slots where three nodes transmit.  This module removes both:

* **Macro plans.**  An oblivious schedule's slot decisions depend only on
  ``(step, label, wake slot, coins)``.  For the schedules in this repo
  the dependence is even simpler — each slot is a *probability* plus a
  *wake-eligibility threshold* (KP stages: "informed before the stage
  began"), a *set of labels* (round-robin, selective families, the
  centralized schedule, the KP source slot), or a probability applied to
  the previous slot's transmitters (BGI's Decay runs: a node keeps
  transmitting while its coins come up heads).  :class:`MacroPlan`
  encodes ``K`` slots of that structure at once, and every oblivious
  algorithm describes itself through one hook, ``macro_plan(start,
  count, r)`` (see :class:`~repro.core.randomized.KnownRadiusKP`,
  :class:`~repro.baselines.bgi.BGIBroadcast`,
  :class:`~repro.baselines.selective_schedule.SelectiveFamilyBroadcast`).
  :func:`plan_slot_mask` evaluates one plan slot densely — the form the
  E11 adversary and the test oracles read.

* **Sparse channel resolution.**  Instead of a dense mask and an O(E)
  product, the engine keeps the awake set as a wake-ordered index list:
  the eligible set of a slot is a binary-searched *prefix*, coins are
  flipped only for eligible nodes, or for a chained slot only for the
  previous slot's transmitters
  (:meth:`~repro.sim.coins.CoinSource.below` — bit-identical to the
  dense flips), and the channel is resolved by gathering only the
  transmitters' CSR neighbour lists (O(sum deg(tx)) instead of O(E)), or
  from the sleepers' side once that is cheaper, its one-time setup
  priced over the rest of the threshold's run (see
  ``_sleepers_cheaper``).  Without a
  fault plan the sleepers only shrink, so an informed node with no
  sleeping neighbour (an *interior* node) can never wake anyone, nor
  collide at a sleeper, again; only FULL traces and fault plans, which
  count hits at informed receivers, still need its row.  A plain run
  resolves a whole Decay run — a phase opening and its chained slots —
  in one pass over the candidates that still have a sleeping neighbour
  (see ``MacroStepEngine._run_chain``); a KP stage's eligible prefix is
  pruned to them when it is rebuilt, once a probe finds that most of it
  is interior (see ``MacroStepEngine._eligible_prefix``).  A metrics
  run, which tallies every transmission, flips the whole eligible
  prefix's coins on either side; on the transmitter side it flags
  interior nodes instead of pruning them, and leaves them out of the
  channel.  On the sleepers' side the per-sleeper hit count gives its
  collisions at sleepers too.

* **Unions of trials.**  ``T`` Monte-Carlo seeds run as one execution
  over ``T`` disjoint copies of the network, so a sweep point pays the
  per-slot overhead once rather than ``T`` times (see
  :class:`MacroStepEngine`).

Instrumented runs (fault plans, metrics, traces, timings) execute on the
same block loop, with per-slot bookkeeping; the conformance matrix holds
them to the reference engine's results, traces, fault counters and
metrics under every plan/trace combination.  A run's wake slots reach
its result as a :class:`WakeTimes` mapping over the wake row, not as an
``n``-entry dict.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .channel import ASLEEP, ChannelKernel, ragged_positions
from .coins import CoinSource
from .errors import ConfigurationError
from .faults import (
    NEVER,
    CompiledFaults,
    FaultCounters,
    FaultPlan,
    compile_faults,
    derive_fault_seed,
)
from .guard import TraceBudget
from .protocol import VectorizedAlgorithm, _check_vectorized
from .run import BroadcastResult
from .trace import Trace, TraceColumns, TraceLevel

__all__ = [
    "ASLEEP",
    "BatchedFastEngine",
    "ELIGIBLE_ANY_AWAKE",
    "MacroPlan",
    "MacroStepEngine",
    "label_set_plan",
    "label_table",
    "plan_slot_mask",
    "run_broadcast_macro",
    "resolve_macro_backend",
    "WakeTimes",
]

#: Eligibility sentinel: every *awake* node qualifies.  Sleepers carry
#: ``wake == ASLEEP`` and ``ASLEEP < ASLEEP`` is false, so the plan rule
#: ``wake < elig`` degenerates to plain awakeness at this value.
ELIGIBLE_ANY_AWAKE: int = ASLEEP

_EMPTY = np.empty(0, dtype=np.int64)

#: Coins per block when a Decay run's survival lengths are read (see
#: ``MacroStepEngine._run_chain``): few candidates read many slots at once.
_COIN_BLOCK = 1 << 16

#: Awake-list rows a plain run probes before it prunes a transmitter
#: prefix to the frontier (see ``MacroStepEngine._eligible_prefix``).
_PROBE = 256

#: Sleeper-side prices of :func:`_sleepers_cheaper`, in units of one term
#: of the transmitter side's ``k + p·k·deg + N/2`` (a coin, a gathered row
#: entry, two bincount slots): per sleeper edge to list one threshold's
#: eligible entries, and per listed entry and slot to resolve from the
#: list.  Measured per slot on KP at G(10^6, 12/n) (2-vCPU x86-64 VM): a
#: transmitter-side unit costs 6-19 ns (median ~12), gathering a sleeper
#: edge 12-17 ns, listing 13-16 ns, and resolving a listed entry 3.5 ns
#: at p <= 2^-8 up to 12-15 ns at p = 1/2.  Over three seeds at G(10^6,
#: 12/n) and eight at G(10^5, 16/n), list prices from 0.5 to 1.5 and
#: entry prices from 0.3 to 0.8 give the same first sleeper-side slot and
#: count of them; at an entry price of 1.0 the 10^6 runs leave the
#: transmitter side four slots later and take ~60% longer.
_LIST_PRICE = 0.5
_ENTRY_PRICE = 0.7


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


def _first_solo(sleepers: np.ndarray, runs: np.ndarray, width: int):
    """The column in which each sleeper first hears exactly one sender
    of a Decay run, as ``(newly, columns)`` in (column, index) order.

    Entry ``i`` says that sleeper ``sleepers[i]`` has a neighbour who
    transmits in columns ``0 .. runs[i] - 1`` (``runs <= width``).  With
    ``L1 >= L2`` a sleeper's two longest runs (``L2 = 0`` with one), it
    hears exactly one sender in columns ``L2 .. L1 - 1``: first at ``L2``,
    when ``L1 > L2``.  One sort by (sleeper, run) puts each sleeper's two
    longest runs last in its group.
    """
    live = runs > 0
    key = sleepers[live] * (width + 1) + runs[live]
    if not key.size:
        return _EMPTY, _EMPTY
    key.sort()
    sleeper, run = np.divmod(key, width + 1)
    last = np.flatnonzero(np.append(sleeper[1:] != sleeper[:-1], True))
    first = np.append(0, last[:-1] + 1)
    second = np.where(last > first, run[last - 1], 0)
    wakes = run[last] > second
    columns = second[wakes]
    order = np.argsort(columns, kind="stable")
    return sleeper[last[wakes]][order], columns[order]


def _sleepers_cheaper(
    k: int,
    left: int,
    mass: float,
    deg: float,
    size: int,
    asleep: int,
    gather: bool,
    entries: int | None,
    relisted: bool,
) -> bool:
    """Whether the sleepers' side of the channel is the cheaper one for
    the ``left`` coin slots of one threshold starting with this one
    (``mass``: their summed probability), over a union of ``size`` nodes
    with ``asleep`` sleepers, ``k`` eligible awake nodes and mean degree
    ``deg``.

    The transmitter side pays ``k + p·k·deg + N/2`` per slot: coins for
    the eligible prefix, the transmitters' rows, a bincount over the
    union.  The sleepers' side pays its setup once — the sleepers' row
    gather when ``gather`` (missing, or due for compaction), about
    ``asleep·deg``; the eligible-entry list when ``entries`` is ``None``,
    about ``_LIST_PRICE·asleep·deg`` — then ``_ENTRY_PRICE`` per listed
    entry and slot (``asleep·deg`` entries until the list exists).  Setup
    is spread over the ``left`` slots, except a list that is rebuilt
    every slot (``relisted``: a threshold above the current step, such
    as :data:`ELIGIBLE_ANY_AWAKE`), which is charged in every slot.  Once
    paid, setup is sunk: the next slot sees the gather and the list
    built, so a run that switched to the sleepers' side stays there.

    A metrics run also flips the ``k`` prefix coins on the sleepers'
    side.  The price leaves them out, as it leaves out the interior
    search a metrics run pays on the transmitter side: charged, they
    moved four late slots back to the transmitter side on G(10^5, 16/n)
    and slowed the run.  So a metrics run is priced as a plain run and,
    on G(n, p), picks the plain run's side in every slot.
    """
    tx = left * (k + 0.5 * size) + mass * k * deg
    edges = asleep * deg
    setup = edges if gather else 0.0
    per_slot = 0.0
    if entries is None:
        listing = _LIST_PRICE * edges
        if relisted:
            per_slot = listing
        else:
            setup += listing
        entries = edges
    return setup + left * (per_slot + _ENTRY_PRICE * entries) < tx


def _coin_runs(coin: list, probs: list, elig: list) -> tuple[list, list]:
    """Look-ahead over one plan block: per slot, how many coin slots (flag
    ``coin``) are left in its run of consecutive coin slots with one
    threshold, this one included and the block's end a cut, and their
    summed probability (``0`` and ``0.0`` off coin slots)."""
    count = len(coin)
    left, mass = [0] * count, [0.0] * count
    for j in range(count - 1, -1, -1):
        if coin[j]:
            left[j], mass[j] = 1, probs[j]
            if j + 1 < count and coin[j + 1] and elig[j + 1] == elig[j]:
                left[j] += left[j + 1]
                mass[j] += mass[j + 1]
    return left, mass


class _Column:
    """One recorded trace column: every slot's array appended to a single
    ``int64`` buffer, plus each slot's length.

    The buffer grows in place — ``ndarray.resize`` reallocates, and a
    large block is remapped rather than copied — so the recorded bytes
    are held once, and splitting them per trial needs no concatenation.
    """

    __slots__ = ("values", "size", "counts")

    def __init__(self) -> None:
        self.values = np.empty(64, dtype=np.int64)
        self.size = 0
        self.counts: list[int] = []

    def append(self, slot: np.ndarray) -> None:
        end = self.size + slot.size
        if end > self.values.size:
            # No view of the buffer outlives a call: skip the ref check.
            self.values.resize(end + (end >> 2), refcheck=False)
        self.values[self.size:end] = slot
        self.size = end
        self.counts.append(slot.size)

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded values and per-slot lengths; empties the column."""
        values, counts = self.values, np.array(self.counts, dtype=np.int64)
        values.resize(self.size, refcheck=False)
        self.values = np.empty(64, dtype=np.int64)
        self.size = 0
        self.counts = []
        return values, counts


@dataclass(frozen=True)
class MacroPlan:
    """``count`` precomputed slots of an oblivious schedule.

    Slot ``j`` (global step ``start + j``) is one of four shapes,
    checked in order:

    * a *label-set* slot, when its row ``members[bounds[j]:bounds[j + 1]]``
      is non-empty — each node whose label is in the row transmits if its
      wake slot is below ``elig[j]`` (deterministic schedules:
      round-robin, selective families, the centralized schedule, the KP
      source slot).  Labels outside the network are ignored.
    * ``chain[j]`` — a *chained* slot: the candidates are the previous
      slot's transmitters, not an eligible prefix, and each transmits
      when its slot coin is below ``probs[j]`` (BGI's Decay runs;
      ``elig[j]`` is unused).
    * ``probs[j] < 0`` — silence.
    * otherwise — every node with ``wake < elig[j]`` transmits when its
      slot coin is below ``probs[j]`` (``probs[j] >= 1``: always).

    ``elig[j]`` and a chain are the only state-dependent parts of a
    slot's decision, which is what makes precomputing ``K`` slots sound:
    probabilities and label rows never depend on the state evolving
    inside the block, and the engine applies the threshold per slot
    against the live wake array and keeps the previous slot's
    transmitters across slots and blocks.  Use :data:`ELIGIBLE_ANY_AWAKE`
    when any awake node qualifies.  ``members`` and ``bounds`` (``count +
    1`` offsets into ``members``) are ``None`` for plans without
    label-set slots.  ``chain`` is ``None`` for plans that never chain;
    an algorithm whose slots chain passes it in every plan, since only
    then does the engine keep each slot's transmitters listed (a coin
    slot of a chain-less plan may resolve on the sleepers' side, which
    lists none).
    """

    start: int
    probs: np.ndarray
    elig: np.ndarray
    members: np.ndarray | None = None
    bounds: np.ndarray | None = None
    chain: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.probs)


def label_table(sets) -> tuple[np.ndarray, np.ndarray]:
    """Label sets as a ragged table ``(members, offsets)``: row ``i``,
    ``members[offsets[i]:offsets[i + 1]]``, lists ``sets[i]`` in
    increasing order."""
    rows = [sorted(labels) for labels in sets]
    members = np.array([label for row in rows for label in row], dtype=np.int64)
    return members, np.cumsum([0] + [len(row) for row in rows])


def label_set_plan(
    start: int,
    members: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray | None = None,
) -> MacroPlan:
    """A plan of label-set slots in which any awake member transmits.

    ``(members, offsets)`` is a ragged label table: row ``i`` is
    ``members[offsets[i]:offsets[i + 1]]``.  Slot ``j`` is row
    ``rows[j]``, or row ``j`` when ``rows`` is ``None``; an empty row is a
    silent slot.
    """
    if rows is not None:
        starts = offsets[rows]
        lengths = offsets[rows + 1] - starts
        members = members[ragged_positions(starts, lengths)]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
    count = len(offsets) - 1
    return MacroPlan(
        start=start,
        probs=np.full(count, -1.0),
        elig=np.full(count, ELIGIBLE_ANY_AWAKE, dtype=np.int64),
        members=members,
        bounds=offsets,
    )


def plan_slot_mask(
    plan: MacroPlan,
    j: int,
    labels: np.ndarray,
    wake: np.ndarray,
    coins: CoinSource | None = None,
    prev: np.ndarray | None = None,
) -> np.ndarray:
    """The dense transmit decisions of plan slot ``j``.

    Args:
        plan: The plan holding the slot (global step ``plan.start + j``).
        j: Slot index within the plan.
        labels: ``(n,)`` node labels.
        wake: Wake slots before the slot, ``ASLEEP`` for sleepers;
            ``(n,)`` for one run or ``(trials, n)`` for several.
        coins: Coins shaped like ``wake``; read only by probability and
            chained slots with ``probs[j] < 1``.
        prev: The previous slot's decisions, shaped like ``wake``; read
            only by chained slots (``None``: nobody transmitted).

    Returns:
        A boolean array shaped like ``wake``, true where the node
        transmits; sleepers never do.
    """
    p, bounds = plan.probs[j], plan.bounds
    eligible = wake < plan.elig[j]
    if bounds is not None and bounds[j + 1] > bounds[j]:
        row = np.sort(plan.members[bounds[j]:bounds[j + 1]])
        pos = np.minimum(row.searchsorted(labels), row.size - 1)
        return eligible & (row[pos] == labels)
    if plan.chain is not None and plan.chain[j]:
        eligible = np.zeros(wake.shape, dtype=bool) if prev is None else prev
    elif p < 0.0:
        return np.zeros(wake.shape, dtype=bool)
    return eligible.copy() if p >= 1.0 else eligible & coins.below(plan.start + j, p)


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

    Executes ``block_size`` slots per macro step from one ``macro_plan``
    call, with no per-slot Python dispatch into the algorithm,
    settle-checks inside the block, and resolves each slot from whichever
    side of the channel is cheaper.  Every CSR read — transmitter-side
    resolution, the frontier test, the sleepers' row gather — goes
    through :attr:`kernel`, a :class:`~repro.sim.channel.ChannelKernel`;
    the engine keeps the coins, the wake filter and the fault pipeline.
    Fault plans, metrics, timings and traces run on the same block loop:
    they add per-slot bookkeeping, and the ones that need hit counts at
    awake receivers (FULL traces, fault plans) pin resolution to the
    transmitter side (see ``_rx_ok``).  Semantics are the reference
    engine's, slot for slot — asserted by the conformance suite and the
    large-n spot checks.

    **Unions.**  ``T`` seeds run as one execution over the disjoint union
    of ``T`` copies of the network: union index ``t * n + v`` is node
    ``v`` of trial ``t``.  The copies share no edge, so trial ``t`` is
    exactly the run with seed ``seeds[t]``; they share one macro plan
    (an oblivious plan depends only on the step and the label), one
    wake-ordered awake list and one threshold prefix per slot.  No CSR
    copy is built: the kernel is the network's over ``T`` copies
    (:meth:`~repro.sim.channel.ChannelKernel.union`).  A trial that settles
    leaves the awake list, so it stops transmitting and stops accruing
    fault tallies, metrics and trace records, as its single run would
    have stopped executing.

    Args:
        network: Topology — a :class:`~repro.sim.network.RadioNetwork`
            (directed or undirected) or a CSR-native
            :class:`~repro.topology.csr.CSRNetwork`.
        algorithm: An oblivious :class:`~repro.sim.protocol.VectorizedAlgorithm`.
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
        n, trials = network.n, len(self.seeds)
        size = n * trials
        self.kernel = kernel = ChannelKernel(network).union(trials)
        self.labels = kernel.labels
        self._index = kernel.index
        self.n, self.trials, self._size = n, trials, size
        shape = (trials, n) if union else (n,)
        keys = CoinSource.for_batch(self.seeds, self.labels)._keys.reshape(-1)
        self.coins = CoinSource(keys)
        self._keys = keys
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
        # a prefix; retiring a trial invalidates it.  It is rebuilt about
        # once per stage and may be pruned to the frontier then (see
        # _eligible_prefix), so ``k`` is the pruned length, which the next
        # slot's binary search over the compacted list finds again.
        self._prefix: tuple | None = None
        # The previous slot's transmitters, the candidates of a chained
        # slot (``None`` after a coin slot resolved on the sleepers'
        # side, which lists no transmitters; after a plain Decay run, only
        # those that had a sleeping neighbour).
        self._last_tx: np.ndarray | None = _EMPTY
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
        self.step = 0
        # Traces are recorded for the union, one array per slot and
        # column, and split per trial when trace_for is next called.
        self._trace_level = trace_level
        self._traces: list[Trace] | None = None
        self._split_slots = 0  # recorded slots already in self._traces
        self._tracing = trace_level is not TraceLevel.NONE
        self._trace_full = trace_level is TraceLevel.FULL
        # Newly woken; at FULL also transmitters, hearing receivers,
        # their senders and collision receivers.
        self._rec = [_Column() for _ in range(5 if self._trace_full else 1)]
        if self._trace_full:
            self._trace_budget = TraceBudget()
        self.timings = timings
        self.metrics = metrics
        self._tx_counts: np.ndarray | None = None
        if metrics is not None:
            self._slots_counter = metrics.counter("engine_slots")
            self._tx_counter = metrics.counter("engine_transmissions")
            self._collision_hist = metrics.histogram(
                "collisions_per_slot", COUNT_BUCKETS
            )
            # Per-slot collision counts of the running trials, observed
            # once per block: a histogram does not depend on the order.
            self._collisions: list[np.ndarray] = []
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
        # FULL traces (deliveries to and collisions at awake nodes) and
        # fault tallies (losses at awake receivers) need hit counts at
        # every receiver, which only the transmitter side of the channel
        # computes.
        self._hits_needed = self._trace_full or faults is not None
        # Metrics count collisions at sleepers only, but tally every
        # transmission: on transmitter-side slots a metrics run flags the
        # informed nodes with no sleeping neighbour (``True`` = interior)
        # and leaves them out of the channel, where a plain run drops them
        # from the awake list.
        self._interior = (
            np.zeros(size, dtype=bool)
            if metrics is not None and not self._hits_needed else None
        )
        # Receiver-side counting reads a sleeper's row as its in-neighbour
        # list, which needs symmetric rows.  Runs that need hit counts at
        # awake receivers stay on the transmitter-side path.
        self._rx_ok = kernel.symmetric and not self._hits_needed
        self._observed = (
            self._hits_needed or metrics is not None or timings is not None
            or self._tracing
        )

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
        if self._traces is None:
            self._traces = [Trace(level=self._trace_level) for _ in self.seeds]
            for trace in self._traces:
                trace.mark_initially_informed(self.network.source)
        if self._rec[0].counts:
            self._split_recorded()
        trace = self._traces[trial]
        trace.fault_counters = self.fault_counters_for(trial)
        return trace

    def _split_recorded(self) -> None:
        """Append the slots recorded since the last split to every
        trial's trace, and drop the union's arrays.

        Each column was recorded as one flat array (see :class:`_Column`)
        and is regrouped by trial without a sort (see ``split``), keeping
        slot order and the sorted order within a slot; trial ``t`` owns
        the slots before ``trial_steps(t)`` (it records only while
        running).
        """
        n, trials, slots = self.n, self.trials, len(self._rec[0].counts)
        first = self._split_slots
        self._split_slots += slots
        identity = self.labels[-1] == n - 1  # sorted, distinct: 0 .. n - 1

        def labels(nodes):
            return nodes if identity else self.labels[nodes]

        def split(*recorded):
            """One column (or paired columns sharing row counts): the
            ``(trials, slots)`` row counts and, per trial, its entries as
            labels.  A column leaves the recorder only here, so a split
            holds one column group's copies at a time."""
            flat, counts = [], None
            for column in recorded:
                values, counts = column.take()
                flat.append(values)
            if trials == 1:
                return counts[None], [[labels(values) for values in flat]]
            # Each slot's entries are sorted union indices, so keyed by
            # slot they are sorted overall: one searchsorted cuts every
            # slot at every trial boundary, and trial t's entries are the
            # ranges cuts[t, s] .. cuts[t + 1, s], slot after slot.
            base = np.arange(slots, dtype=np.int64) * self._size
            key = np.repeat(base, counts)
            key += flat[0]
            edges = n * np.arange(trials + 1, dtype=np.int64)
            cuts = np.searchsorted(key, base[:, None] + edges).T
            del key
            rows = cuts[1:] - cuts[:-1]
            order = ragged_positions(cuts[:-1].ravel(), rows.ravel())
            bounds = [0, *np.cumsum(rows.sum(axis=1)).tolist()]
            per_trial = [[] for _ in range(trials)]
            while flat:
                values = flat.pop(0)
                for t, entries in enumerate(per_trial):
                    part = values[order[bounds[t]:bounds[t + 1]]]
                    part -= edges[t]
                    entries.append(labels(part))
            return rows, per_trial

        woken, *full = self._rec
        columns = [split(woken)]
        if full:
            tx, heard, senders, collisions = full
            columns += [split(tx), split(heard, senders), split(collisions)]
        step_numbers = np.arange(first, first + slots, dtype=np.int64)
        for t, trace in enumerate(self._traces):
            steps = self.trial_steps(t) - first
            if steps <= 0:
                continue
            rows = [(counts[t, :steps], *entries[t]) for counts, entries in columns]
            woken_counts, woken = rows[0]
            if self._trace_full:
                (tx_counts, tx), (dlv_counts, rcv, snd), (coll_counts, coll) = rows[1:]
            else:
                zeros = np.zeros(steps, dtype=np.int64)
                tx_counts = dlv_counts = coll_counts = zeros
                tx = rcv = snd = coll = _EMPTY
            informed = trace.informed_counts[-1] if trace.informed_counts else 1
            trace.append_columns(
                TraceColumns(
                    step_numbers[:steps], tx_counts, tx, dlv_counts, rcv, snd,
                    coll_counts, coll, woken_counts, woken,
                ),
                (np.cumsum(woken_counts) + informed).tolist(),
            )

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its single-run values."""
        if self._cf is None:
            return None
        crashed, jammed, lost, delayed = self._fault_counts[trial].tolist()
        return FaultCounters(crashed, jammed, lost, delayed)

    def transmission_counts(self, trial: int = 0) -> np.ndarray | None:
        """Per-node transmission tallies of one trial (label order);
        ``None`` when the engine ran without metrics."""
        if self._tx_counts is None:
            return None
        lo = trial * self.n
        return self._tx_counts[lo:lo + self.n].copy()

    # -- execution ---------------------------------------------------------

    def _settled(self) -> bool:
        """Retire the trials that settled; true once none is running."""
        if self._check_settle:
            self._retire()
        return self._live == 0

    def _retire(self, steps: np.ndarray | None = None) -> None:
        """Retire every running trial that can wake no one any more: all
        its nodes are informed, or each sleeper has crashed.  Its entries
        leave the awake list and its executed-slot count freezes, at
        ``steps[t]`` when given and otherwise at the current step."""
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
        self._steps[done] = self.step if steps is None else steps[done]
        self._live = int(np.count_nonzero(self._running))
        if self._live:
            # Retire first: the chain may be a view of the awake prefix,
            # which the compaction below rewrites in place.
            last = self._last_tx
            if last is not None and last.size:
                self._last_tx = last[self._running[last // n]]
            self._compact_awake(
                self._running[self._awake_idx[:self._awake_count] // n]
            )

    def _compact_awake(self, keep: np.ndarray) -> None:
        """Keep, in order, the awake-list entries whose flag in ``keep``
        is set; ``keep`` covers a prefix of the list (entries past it are
        all kept).  The cached transmitter prefix is dropped, since it
        indexes the old list."""
        count = self._awake_count
        k = keep.size
        kept = int(np.count_nonzero(keep))
        for column in (self._awake_idx, self._awake_wakes):
            column[:kept] = column[:k][keep]
            column[kept:kept + count - k] = column[k:count]
        self._awake_count = kept + count - k
        self._prefix = None

    def _eligible_prefix(self, k: int, search: bool = True) -> tuple:
        """Cache and return the transmitter prefix ``(k, indices, coin
        keys)`` of the first ``k`` awake-list entries.

        Without a fault plan the sleepers only shrink, so an entry with
        no sleeping neighbour can wake no one, nor collide at a sleeper,
        in this slot or any later one.  With ``search`` and unless the
        run counts hits at every receiver (FULL traces, fault plans),
        such entries are found here: a plain run (or one with timings,
        spans or a PROGRESS trace) drops them from the awake list for
        good, so the prefix shrinks to the frontier; a metrics run, which
        tallies every transmission, flags them interior and keeps them.
        Finding them gathers every row not yet known interior, so a
        strided probe of at most ``_PROBE`` of those rows decides first:
        the search runs only when fewer than half of the probed nodes
        have a sleeping neighbour, so it is expected to find at least
        half of the rows it gathers interior (exactly so when the probe
        is all of them).  A metrics run's sleeper-side slot builds the
        prefix only to flip its coins for the tally and gathers no
        transmitter row, so it skips the search (``search`` false).
        """
        cand = self._awake_idx[:k]
        if search and not self._hits_needed:
            interior = self._interior
            rows = cand if interior is None else cand[~interior[cand]]
            size = rows.size
            probe = rows if size <= _PROBE else rows[np.arange(_PROBE) * size // _PROBE]
            useful = self.kernel.sleeping_neighbours(probe, self._wake)[0]
            if 2 * np.count_nonzero(useful) < probe.size:
                if probe is not rows:
                    useful = self.kernel.sleeping_neighbours(rows, self._wake)[0]
                if interior is None:
                    self._compact_awake(useful)
                    k = int(np.count_nonzero(useful))
                    cand = self._awake_idx[:k]
                else:
                    interior[rows[~useful]] = True
        self._prefix = (k, cand, self._keys[cand])
        return self._prefix

    def run(self, max_steps: int) -> int:
        """Run until every trial settles or the limit; returns slots
        executed."""
        executed = 0
        while executed < max_steps and not self._settled():
            count = min(self.block_size, max_steps - executed)
            plan = self.algorithm.macro_plan(self.step, count, self.network.r)
            executed += self._run_block(plan, count)
            if self.metrics is not None and self._collisions:
                self._collision_hist.observe_many(np.concatenate(self._collisions))
                self._collisions.clear()
        return executed

    def _label_rows(self, plan: MacroPlan) -> tuple[np.ndarray, list, list]:
        """A plan's label rows as node indices, with one vectorised
        lookup: ``(rows, slot_bounds, row_bounds)``, where slot ``j`` is a
        label-set slot iff ``slot_bounds[j + 1] > slot_bounds[j]`` and its
        nodes are ``rows[row_bounds[j]:row_bounds[j + 1]]`` (labels not in
        the network dropped)."""
        if plan.bounds is None:
            zeros = [0] * (len(plan) + 1)
            return _EMPTY, zeros, zeros
        labels, members = self.labels, plan.members
        pos = np.searchsorted(labels, members).clip(max=self.n - 1)
        found = labels[pos] == members
        kept = np.concatenate(([0], np.cumsum(found)))
        return pos[found], plan.bounds.tolist(), kept[plan.bounds].tolist()

    def _run_block(self, plan: MacroPlan, count: int) -> int:
        """Up to ``count`` slots, decided by the macro plan."""
        wake = self._wake
        timings = self.timings
        observed = self._observed
        probs, elig, chain = plan.probs, plan.elig, plan.chain
        rows, slot_bounds, row_bounds = self._label_rows(plan)
        # A plain run resolves each Decay run of a chaining plan in one
        # pass (_run_chain): a run opens at a probs >= 1 slot, or continues
        # the previous block's run, and takes the chained slots after it.
        chained = None
        if chain is not None and plan.bounds is None and not observed:
            chained = chain.tolist()
        # Look-ahead for the side switch, decoded once per block: per coin
        # slot, the coin slots left in its run of one threshold and their
        # summed probability, over which _sleepers_cheaper prices a side.
        left = mass = None
        if self._rx_ok:
            coin = (probs >= 0.0) & (np.diff(slot_bounds) == 0)
            if chain is not None:
                coin &= ~chain
            left, mass = _coin_runs(coin.tolist(), probs.tolist(), elig.tolist())
        # A metrics run tallies the transmitters on either side, so it
        # flips the eligible prefix's coins on sleeper-side slots too.
        tallied = self.metrics is not None
        t_start = 0.0
        executed = 0
        j = 0
        while j < count:
            if self._settled():
                break
            if chained is not None and (chained[j] or probs[j] >= 1.0):
                end = j + 1
                while end < count and chained[end]:
                    end += 1
                executed += self._run_chain(plan, j, end)
                j = end
                continue
            step = self.step
            self.step += 1
            executed += 1
            if timings is not None:
                t_start = perf_counter()
            tx = rx = None
            if slot_bounds[j + 1] > slot_bounds[j]:
                cand = rows[row_bounds[j]:row_bounds[j + 1]]
                if self.trials > 1:
                    cand = (self._offsets[self._running, None] + cand).ravel()
                tx = cand[wake[cand] < elig[j]]
            elif chain is not None and chain[j]:
                # Only the previous slot's transmitters are candidates, so
                # coins are flipped for the surviving chain alone.
                prev = self._last_tx
                tx = prev if probs[j] >= 1.0 else prev[
                    self.coins.below(step, probs[j], self._keys[prev])
                ]
            elif probs[j] >= 0.0:
                p = probs[j]
                k = int(
                    np.searchsorted(
                        self._awake_wakes[: self._awake_count], elig[j], side="left"
                    )
                )
                # Pick the cheaper side of the channel: transmitter-side
                # work scales with the eligible set and its edges,
                # receiver-side work with the sleepers' edges only — and
                # only sleepers can wake.  Early in the run the eligible
                # set is tiny, late in the run the sleeper set is.
                # ``k == 0`` is a silent slot.
                if k and (
                    self._rx_ok and (p >= 1.0 or chain is None)
                    and self._sleeper_side(k, step, int(elig[j]), left[j], mass[j])
                ):
                    rx = (p, int(elig[j]))
                if k and (rx is None or tallied):
                    prefix = self._prefix
                    if prefix is None or prefix[0] != k:
                        prefix = self._eligible_prefix(k, search=rx is None)
                    _, cand, keys = prefix
                    tx = cand if p >= 1.0 else cand[self.coins.below(step, p, keys)]
            if observed:
                tx = self._observe_slot(step, tx, rx, t_start)
            elif rx is not None:
                self._resolve_receiver_side(*rx, step)
            elif tx is not None and tx.size:
                self._resolve_and_wake(tx, step)
            if rx is not None:
                # The sleepers' side lists no transmitters (a metrics
                # run's tally aside): at p >= 1 they are the eligible
                # prefix, and p < 1 slots resolve there only in plans
                # without chained slots.
                tx = self._awake_idx[:k] if rx[0] >= 1.0 else None
            elif tx is None:
                tx = _EMPTY
            self._last_tx = tx
            j += 1
        return executed

    def _run_chain(self, plan: MacroPlan, j: int, end: int) -> int:
        """Plan slots ``j .. end - 1`` of a plain run, one Decay run, in
        one pass; returns the slots executed.

        Slot ``j`` opens the run (its candidates are the eligible prefix,
        and all of them transmit) or continues the previous slot's
        transmitters; every later slot is chained.  Column ``c`` is slot
        ``j + c``.  A candidate ``u`` transmits in columns ``0 ..
        L(u) - 1``, where its survival length ``L(u)`` is read from the
        chained slots' coins.  Nobody joins a run — nodes woken inside it
        are not candidates — so a sleeper whose two longest neighbour runs
        are ``L1 >= L2`` (``L2 = 0`` with one neighbour) has exactly one
        transmitting neighbour in columns ``L2 .. L1 - 1``: it wakes in
        column ``L2`` iff ``L1 > L2``.

        Candidates with no sleeping out-neighbour cannot wake anyone in
        this run or any later one (a plain run's sleepers only shrink), so
        they are dropped; at an opening they also leave the awake list
        for good, which then holds the frontier rather than every
        informed node.  A trial whose last sleeper wakes in column ``c``
        settles with ``start + c + 1`` steps; the run stops early only
        when every running trial settles.
        """
        start = self.step
        width = end - j
        opening = not plan.chain[j]
        if opening:
            count = self._awake_count
            k = int(np.searchsorted(
                self._awake_wakes[:count], plan.elig[j], side="left"
            ))
            cand = self._awake_idx[:k]
        else:
            cand = self._last_tx
        useful, cat, owner, asleep = self.kernel.sleeping_neighbours(cand, self._wake)
        if opening and not useful.all():
            cand = cand.copy()  # a view of the list compacted below
            self._compact_awake(useful)
        # Survival lengths, capped at the run's width, from the chained
        # columns' coins: each block of columns covers only the candidates
        # still running, and is sized so that a block holds about
        # _COIN_BLOCK coins.
        survivors = np.flatnonzero(useful)
        runs = np.zeros(cand.size, dtype=np.int64)
        runs[survivors] = width
        keys = self._keys[cand[survivors]]
        column = 1 if opening else 0
        while column < width and survivors.size:
            b = min(width - column, max(1, _COIN_BLOCK // survivors.size))
            tails = ~self.coins.below_steps(
                start + column, plan.probs[j + column:j + column + b], keys
            )
            ended = tails.any(axis=1)
            runs[survivors[ended]] = column + tails[ended].argmax(axis=1)
            survivors, keys = survivors[~ended], keys[~ended]
            column += b
        newly, columns = _first_solo(cat[asleep], runs[owner[asleep]], width)
        self._last_tx = cand[runs >= width]
        executed, settled = width, None
        if newly.size:
            self._append_newly(newly, start + columns)
            done = (self._informed == self.n) & self._running
            if done.any():
                settled = np.zeros(self.trials, dtype=np.int64)
                np.maximum.at(settled, newly // self.n, columns + 1)
                if np.array_equal(done, self._running):
                    executed = int(settled.max())
        self.step = start + executed
        if settled is not None:
            self._retire(start + settled)
        return executed

    # -- instrumented slots ------------------------------------------------

    def _per_trial(self, idx: np.ndarray) -> np.ndarray:
        """How many of the union indices ``idx`` fall in each trial."""
        if self.trials == 1:
            return np.array([idx.size])
        return np.bincount(idx // self.n, minlength=self.trials)

    def _observe_slot(self, step: int, tx, rx, t_start: float):
        """Resolve one slot with its bookkeeping: fault tallies, metrics,
        timings and each running trial's trace record (silent slots
        included).  Returns the transmitters that were not crashed, or
        ``None`` when there were none."""
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
        colliding = heard = senders = _EMPTY
        if rx is not None:
            newly, colliding = self._resolve_receiver_side(
                *rx, step, collisions=self.metrics is not None
            )
        elif tx is None:
            newly = _EMPTY
        elif self._hits_needed:
            newly, colliding, heard, senders = self._resolve_counted(tx, step)
        elif self._interior is not None:
            newly, colliding = self._resolve_and_wake(
                tx[~self._interior[tx]], step, collisions=True
            )
        else:
            newly = self._resolve_and_wake(tx, step)
        if timings is not None:
            t_end = perf_counter()
            timings.add("engine.channel", t_end - t_coins)
            timings.add("engine.step", t_end - t_start)
        if self.metrics is not None:
            self._slots_counter.inc(self._live)
            # Collisions at sleepers, which all listen (transmitters are
            # awake) and stay asleep (two or more senders wake no one).
            asleep = colliding[self._wake[colliding] == ASLEEP]
            self._collisions.append(self._per_trial(asleep)[running])
            if tx is not None:
                self._tx_counter.inc(tx.size)
                np.add.at(self._tx_counts, tx, 1)
        if self._tracing:
            if cf is not None and cf.has_crashes:
                colliding = colliding[self._crash_slots[colliding] > step]
            self._record(step, tx, newly, colliding, heard, senders)
        return tx

    def _record(self, step, tx, newly, colliding, heard, senders) -> None:
        """Append slot ``step``'s union-index arrays to the recorded
        columns (newly woken always; at FULL also the sorted
        transmitters, the collision receivers and the hearing receivers
        with their senders).  Every running trial records the slot."""
        rec = self._rec
        rec[0].append(newly)
        if not self._trace_full:
            return
        tx = _EMPTY if tx is None else np.sort(tx)
        for column, values in zip(rec[1:], (tx, heard, senders, colliding)):
            column.append(values)
        self._trace_budget.charge(8 * (
            5 * self._live + tx.size + newly.size + colliding.size
            + 2 * heard.size
        ))

    def _resolve_counted(self, tx: np.ndarray, step: int):
        """Transmitter-side resolution with hit counts at every receiver.

        Runs the fault pipeline (crash -> jam -> loss -> wake-delay; loss
        coins drawn only for the delivered receivers), wakes the result
        and returns ``(newly, colliding, heard, senders)``: the woken
        nodes, the listening receivers with two or more transmitting
        neighbours, and (FULL traces only) the receivers that heard a
        message with the transmitter each heard.
        """
        full = self._trace_full
        delivered, colliding, sent = self.kernel.resolve(
            tx, collisions=True, senders=full, half_duplex=True
        )
        if full:
            order = np.argsort(delivered)  # row order -> index order
            once = delivered = delivered[order]
            sent = sent[order]
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
        heard = senders = _EMPTY
        if full:
            # Awake receivers hear too (already informed, never deaf);
            # sleepers only count if they actually woke.
            heard = delivered if woke is asleep else delivered[~asleep | woke]
            senders = sent if heard.size == sent.size else sent[
                np.searchsorted(once, heard)
            ]
        if newly.size:
            self._append_newly(newly, step)
        return newly, colliding, heard, senders

    # -- channel resolution ------------------------------------------------

    def _resolve_and_wake(self, tx: np.ndarray, step: int, collisions: bool = False):
        """Exactly-one resolution over the transmitters' neighbour lists;
        returns the newly woken indices, and with ``collisions`` also the
        receivers with two or more transmitting neighbours."""
        once, colliding, _ = self.kernel.resolve(tx, collisions=collisions)
        newly = once[self._wake[once] == ASLEEP]
        if newly.size:
            self._append_newly(newly, step)
        return (newly, colliding) if collisions else newly

    # -- receiver-side resolution ------------------------------------------

    def _sleeper_side(self, k: int, step: int, elig: int, left: int,
                      mass: float) -> bool:
        """Whether slot ``step``, a coin slot of threshold ``elig`` with
        ``k`` eligible nodes and ``left`` slots left in its run (summed
        probability ``mass``), resolves from the sleepers' side: the
        prices of :func:`_sleepers_cheaper` on this engine's state."""
        gather = self._gather_due()
        entries = None if gather or not self._listed(elig) else self._el_slot.size
        return _sleepers_cheaper(
            k, left, mass, self.kernel.avg_degree, self._size, self._asleep,
            gather, entries, relisted=elig > step,
        )

    def _listed(self, elig: int) -> bool:
        """Whether the eligible-entry list holds threshold ``elig``'s
        entries: built for it, at a step ``elig`` does not exceed."""
        built = self._el_for
        return built is not None and built[0] == elig and elig <= built[1]

    def _gather_due(self) -> bool:
        """Whether the next sleeper-side slot builds the sleepers' row
        gather or compacts it (see :meth:`_sleeper_gather`)."""
        sleepers = self._sl_idx
        return sleepers is None or 2 * self._asleep < sleepers.size

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
        if not self._gather_due():
            return
        s = self._sl_idx
        if s is None:
            s = np.flatnonzero(self._wake == ASLEEP)
            nbr, lengths = self.kernel.gather(s)
        else:
            keep = self._wake[s] == ASLEEP
            s = s[keep]
            nbr = self._sl_nbr[np.repeat(keep, self._sl_len)]
            lengths = self._sl_len[keep]
        self._sl_idx, self._sl_nbr, self._sl_len = s, nbr, lengths
        self._sl_owner = np.repeat(np.arange(s.size), lengths)
        self._el_for = None  # entry positions moved

    def _resolve_receiver_side(
        self, p: float, elig: int, step: int, collisions: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """One slot resolved from the sleepers' side of the channel;
        returns ``(newly, colliding)``: the newly woken indices and, with
        ``collisions``, the gathered nodes that heard two or more
        transmitters (woken ones among them, since the gather keeps them
        until it is compacted; empty otherwise).

        For each sleeper, count transmitting in-neighbours directly: a
        neighbour transmits iff it woke before ``elig`` and its slot coin
        passes — the transmitter-side predicate (coins are pure
        per-(node, slot) functions), evaluated only where a wake event is
        possible.  The gather entries whose neighbour is eligible are
        listed once per threshold (sleeper slot and coin key); a slot
        tests coins on those entries only, and the kernel counts the
        passes per sleeper (``ChannelKernel.hear_once``).  A list built at
        step ``t`` for threshold ``elig`` stays valid while ``elig <= t``,
        since nodes woken later carry ``wake >= t``; otherwise (e.g.
        :data:`ELIGIBLE_ANY_AWAKE`) it is rebuilt.  Only running trials
        have sleepers here (runs without crashes settle by completing),
        so a retired trial's awake nodes never reach a count.
        """
        self._sleeper_gather()
        if not self._listed(elig):
            eligible = np.flatnonzero(self._wake[self._sl_nbr] < elig)
            self._el_slot = self._sl_owner[eligible]
            self._el_keys = self._keys[self._sl_nbr[eligible]]
            self._el_for = (elig, step)
        slots = self._el_slot
        if p < 1.0:
            slots = slots[self.coins.below(step, p, self._el_keys)]
        candidates, colliding = self.kernel.hear_once(self._sl_idx, slots, collisions)
        newly = candidates[self._wake[candidates] == ASLEEP]
        if newly.size:
            self._append_newly(newly, step)
        return newly, colliding

    def _append_newly(self, newly: np.ndarray, step) -> None:
        """Wake ``newly`` at ``step`` (one slot, or one per node, in
        non-decreasing order) and append it to the awake list."""
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
