"""Macro-step engine: block-size invariance, the memory guard, and
large-n spot checks against a dense oracle.

The full cross-engine matrix (including faults, traces and metrics for
the instrumented macro path, and ``engine="macro"`` running several
seeds as one union) lives in ``test_conformance.py``; this module covers
what that matrix holds fixed — the macro-step width ``K``, CSR-native
topologies at sizes the matrix never visits, plain and instrumented —
plus the :mod:`repro.sim.guard` estimates, unions at those sizes and
the driver's union grouping.  The oracle is :func:`_dense`: a dense
per-slot numpy program in this module that shares no resolution code
with the macro engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

import repro.sim.driver as driver
import repro.sim.guard as guard
import repro.sim.macro as macro
from repro.baselines.bgi import BGIBroadcast
from repro.baselines.centralized import CentralizedGreedySchedule
from repro.baselines.round_robin import RoundRobinBroadcast
from repro.baselines.selective_schedule import SelectiveFamilyBroadcast
from repro.core.randomized import KnownRadiusKP
from repro.obs.metrics import COUNT_BUCKETS, SLOT_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.timings import Timings
from repro.sim import (
    ASLEEP,
    ChannelKernel,
    CoinSource,
    ConfigurationError,
    FaultCounters,
    FaultPlan,
    TraceLevel,
    check_memory_budget,
    default_max_steps,
    derive_fault_seed,
    run_broadcast,
    simulate,
)
from repro.sim.faults import NEVER
from repro.sim.trace import StepRecord
from repro.sim.macro import (
    ELIGIBLE_ANY_AWAKE,
    MacroPlan,
    MacroStepEngine,
    WakeTimes,
    plan_slot_mask,
    resolve_macro_backend,
    run_broadcast_macro,
)
from repro.sim.network import RadioNetwork
from repro.sim.protocol import BroadcastAlgorithm, ObliviousTransmitter
from repro.topology import (
    gnp_random_csr,
    km_hard_layered,
    km_hard_layered_csr,
    path,
    random_tree,
    uniform_complete_layered,
)

from .conformance import engine_spec


def _summary(result):
    return (result.completed, result.time, result.informed, result.wake_times)


_EMPTY = np.empty(0, dtype=np.int64)


def _dense(net, algo, seed, max_steps=None, faults=None):
    """The dense oracle: one trial as a per-slot numpy program.

    Every node's transmit decision is evaluated in every slot, from a
    one-slot macro plan through :func:`plan_slot_mask` (its chained
    slots read the previous slot's transmitters), the hits are a
    ``bincount`` of the transmitters' CSR rows, and the fault pipeline
    (crash -> jam -> loss -> wake-delay) runs on full-length arrays: no
    blocks, no eligible prefix, no union and no receiver side.  It shares
    only the plans, the coins and the CSR arrays with the macro engine.
    ``steps`` holds one FULL-trace :class:`StepRecord` per executed slot,
    with the reference engine's
    definitions: deliveries to every live, non-transmitting node that
    hears exactly one sender and is not jammed, lost or wake-delayed;
    collisions at live, non-transmitting nodes with two or more
    senders.  ``collisions`` holds the per-slot count the
    ``collisions_per_slot`` histogram observes: uninformed receivers
    with two or more senders (dead receivers included),
    ``informed_counts`` the informed count after each slot
    and ``transmissions`` each node's transmission count.
    """
    kernel = ChannelKernel(net)
    n, labels, indptr = net.n, kernel.labels, kernel.indptr
    coins = CoinSource.for_run(seed, labels)
    wake = np.full(n, ASLEEP, dtype=np.int64)
    wake[kernel.index[net.source]] = -1
    crash, deaf, jams = np.full(n, NEVER), np.zeros(n, dtype=np.int64), {}
    loss = 0.0
    if faults is not None:
        for label, slot in faults.crashes:
            crash[kernel.index[label]] = slot
        for label, slot in faults.wake_delays:
            deaf[kernel.index[label]] = slot
        for slot, label in faults.jams:
            jams.setdefault(slot, []).append(kernel.index[label])
        loss = faults.loss_probability
        loss_coins = CoinSource.for_run(derive_fault_seed(faults.seed, seed), labels)
    if max_steps is None:
        max_steps = default_max_steps(net, algo)
    tallies = np.zeros(4, dtype=np.int64)  # crashed, jammed, lost, delayed
    transmissions = np.zeros(n, dtype=np.int64)
    sender = np.zeros(n, dtype=np.int64)
    steps, collisions, informed_counts = [], [], []
    mask = None

    def sorted_labels(where):
        return tuple(sorted(labels[where].tolist()))

    for step in range(max_steps):
        awake = wake != ASLEEP
        if (awake | (crash <= step)).all():
            break
        tallies[0] += np.count_nonzero(crash == step)
        tallies[1] += len(jams.get(step, ()))
        alive = crash > step
        plan = algo.macro_plan(step, 1, net.r)
        mask = plan_slot_mask(plan, 0, labels, wake, coins, mask) & alive
        tx = np.flatnonzero(mask)
        transmissions[tx] += 1
        rows = [kernel.indices[indptr[v]:indptr[v + 1]] for v in tx]
        cat = np.concatenate([_EMPTY, *rows])
        sender[cat] = np.repeat(tx, indptr[tx + 1] - indptr[tx])
        hits = np.bincount(cat, minlength=n)
        heard = (hits == 1) & ~mask & alive
        heard[jams.get(step, [])] = False
        if loss > 0.0:
            lost = heard & loss_coins.below(step, loss)
            tallies[2] += np.count_nonzero(lost)
            heard &= ~lost
        delayed = heard & ~awake & (step < deaf)
        tallies[3] += np.count_nonzero(delayed)
        delivered = heard & ~delayed
        woken = delivered & ~awake
        wake[woken] = step
        receivers = np.flatnonzero(delivered)
        steps.append(StepRecord(
            step=step,
            transmitters=sorted_labels(mask),
            deliveries=dict(zip(labels[receivers].tolist(),
                                labels[sender[receivers]].tolist())),
            collisions=sorted_labels((hits >= 2) & ~mask & alive),
            woken=sorted_labels(woken),
        ))
        collisions.append(int(np.count_nonzero((hits >= 2) & ~awake)))
        informed_counts.append(int(np.count_nonzero(wake != ASLEEP)))
    informed = int(np.count_nonzero(wake != ASLEEP))
    completed = informed == n
    return SimpleNamespace(
        completed=completed,
        time=int(wake.max()) + 1 if completed else len(steps),
        informed=informed,
        wake_times=WakeTimes(labels, wake),
        fault_counters=FaultCounters(*tallies.tolist()),
        steps=steps,
        collisions=collisions,
        informed_counts=informed_counts,
        transmissions=transmissions,
    )


def _run_engine(net, algo, seed, block_size):
    """A full run at block size ``block_size`` (``seed``: one seed or a
    union's seed list), plus whether any slot was resolved from the
    sleepers' side (the gather is built lazily there)."""
    engine = MacroStepEngine(net, algo, seed=seed, block_size=block_size)
    engine.run(default_max_steps(net, algo))
    return engine, engine._sl_idx is not None


class _AnyAwakeProtocol(ObliviousTransmitter):
    def __init__(self, label, r, rng, probs):
        super().__init__(label, r, rng)
        self._probs = probs

    def wants_to_transmit(self, step: int) -> bool:
        if self.wake_step is None:
            return False
        return self.coin(step) < self._probs[step % len(self._probs)]


class AnyAwakeSweep(BroadcastAlgorithm):
    """Every awake node transmits with a cyclic probability.

    Its macro plan is all probability slots with
    :data:`ELIGIBLE_ANY_AWAKE` eligibility — allowed by the
    :class:`MacroPlan` contract though KP never emits them — so nodes
    woken mid-block are eligible from the next slot on.
    """

    name = "any-awake-sweep"
    deterministic = False
    PROBS = (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64)

    def create(self, label, r, rng):
        return _AnyAwakeProtocol(label, r, rng, self.PROBS)

    def macro_plan(self, start: int, count: int, r: int) -> MacroPlan:
        steps = start + np.arange(count)
        return MacroPlan(
            start=start,
            probs=np.asarray(self.PROBS)[steps % len(self.PROBS)],
            elig=np.full(count, ELIGIBLE_ANY_AWAKE, dtype=np.int64),
        )


class TestBlockSizeInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        block_size=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=31),
    )
    def test_results_never_depend_on_k(self, block_size, seed):
        net = km_hard_layered_csr(60, 4, seed=3)
        baseline = _dense(net, KnownRadiusKP(net.r, net.radius), seed)
        engine, _ = _run_engine(
            net, KnownRadiusKP(net.r, net.radius), seed, block_size
        )
        assert engine.completion_times() == [baseline.time]
        assert engine.wake_times() == baseline.wake_times

    def test_partial_runs_report_executed_slots(self):
        net = gnp_random_csr(200, 10 / 200, seed=1)
        for budget in (1, 2, 5, 17):
            dense = _dense(net, KnownRadiusKP(net.r, net.radius), 3,
                           max_steps=budget)
            macro = run_broadcast_macro(
                net, KnownRadiusKP(net.r, net.radius), seed=3,
                max_steps=budget,
            )
            assert _summary(macro) == _summary(dense)

    def test_rejects_nonpositive_block(self):
        net = gnp_random_csr(50, 0.2, seed=0)
        with pytest.raises(ConfigurationError):
            MacroStepEngine(net, RoundRobinBroadcast(net.r), block_size=0)


class TestBackends:
    @pytest.mark.parametrize("backend", ["cuda", "numba"])
    def test_resolve_rejects_unknown(self, backend):
        assert resolve_macro_backend() == "numpy"
        with pytest.raises(ConfigurationError):
            resolve_macro_backend(backend)
        net = gnp_random_csr(50, 0.2, seed=0)
        with pytest.raises(ConfigurationError):
            MacroStepEngine(net, RoundRobinBroadcast(net.r), backend=backend)


#: ``(network, whether slots resolve on the sleepers' side)`` for the
#: complete-run checks.
RECEIVER_CASES = pytest.mark.parametrize(
    "make_net, sleeper_side",
    [
        (lambda: gnp_random_csr(20_000, 12 / 20_000, seed=21), True),
        # The hard layered family is dense enough that the cost model
        # keeps every slot on the transmitter side: a full-completion
        # check of the block loop, not of the sleepers' side.
        (lambda: km_hard_layered_csr(20_000, 10, seed=6), False),
    ],
    ids=["gnp", "km_layered"],
)


class TestReceiverSide:
    """Complete runs that spend their late slots on the sleepers' side of
    the channel: eligible-entry lists, their reuse across slots, lazy
    compaction of the sleeper gather, all the way to the last wake."""

    @RECEIVER_CASES
    def test_full_run_matches_dense(self, make_net, sleeper_side):
        net = make_net()
        dense = _dense(net, KnownRadiusKP(net.r, net.radius), 3)
        assert dense.completed
        for block_size in (29, 128):
            engine, used_rx = _run_engine(
                net, KnownRadiusKP(net.r, net.radius), 3, block_size
            )
            assert used_rx == sleeper_side
            assert engine.completion_times() == [dense.time]
            assert engine.wake_times() == dense.wake_times

    @RECEIVER_CASES
    def test_union_matches_dense(self, make_net, sleeper_side):
        """Two seeds as one union: the trials finish at different slots,
        so the first to settle leaves the awake list while the other
        still runs (on the sleepers' side for G(n, p))."""
        net = make_net()
        seeds = [3, 4]
        engine, used_rx = _run_engine(
            net, KnownRadiusKP(net.r, net.radius), seeds, 64
        )
        assert used_rx == sleeper_side
        times = engine.completion_times()
        assert times[0] != times[1]
        for t, seed in enumerate(seeds):
            dense = _dense(net, KnownRadiusKP(net.r, net.radius), seed)
            assert times[t] == dense.time
            assert engine.wake_times(t) == dense.wake_times

    @pytest.mark.parametrize("seed", [0, 7])
    def test_any_awake_probability_slots_match_reference(self, seed):
        """With ``ELIGIBLE_ANY_AWAKE`` a node woken after an eligible list
        was built transmits in later slots, so the list must be rebuilt
        rather than reused."""
        net = gnp_random_csr(1_500, 6 / 1_500, seed=4)
        reference = run_broadcast(net, AnyAwakeSweep(), seed=seed)
        assert reference.completed
        engine, used_rx = _run_engine(net, AnyAwakeSweep(), seed, 23)
        assert used_rx
        assert engine.completion_times() == [reference.time]
        assert engine.wake_times() == reference.wake_times


#: Runs whose slots split between the two sides of the channel by
#: default: ``(network, algorithm, seeds)``.
SIDE_CASES = {
    "gnp": lambda: (gnp_random_csr(20_000, 12 / 20_000, seed=21), None, 3),
    "km_layered_union": lambda: (
        km_hard_layered_csr(1024, 64, seed=0), None, list(range(16))
    ),
    "any_awake": lambda: (gnp_random_csr(1_500, 6 / 1_500, seed=4),
                          AnyAwakeSweep(), 7),
}


class TestSideChoice:
    """The side a slot resolves on is a cost decision only: forcing every
    legal slot to either side leaves every wake slot unchanged, and the
    prices follow the rules of ``_sleepers_cheaper``."""

    @pytest.mark.parametrize("case", sorted(SIDE_CASES))
    def test_forced_sides_give_the_default_run(self, case, monkeypatch):
        net, algo, seeds = SIDE_CASES[case]()
        make = (lambda: _kp(net)) if algo is None else (lambda: algo)
        runs = {}
        for forced in (None, False, True):
            with monkeypatch.context() as patch:
                if forced is not None:
                    patch.setattr(MacroStepEngine, "_sleeper_side",
                                  lambda self, *args, side=forced: side)
                runs[forced] = _run_engine(net, make(), seeds, 64)
        default, used_rx = runs[None]
        assert default.all_informed and used_rx
        assert runs[True][1] and not runs[False][1]
        for engine, _ in runs.values():
            assert np.array_equal(engine.wake_steps, default.wake_steps)
            assert engine.completion_times() == default.completion_times()

    # G(n, 12/n)-like numbers: a union of 10^6, 10^5 eligible nodes.
    SIZE, K, DEG = 1_000_000, 100_000, 12.0

    def _cheaper(self, left, mass, asleep, gather, entries, relisted=False):
        return macro._sleepers_cheaper(
            self.K, left, mass, self.DEG, self.SIZE, asleep, gather, entries,
            relisted,
        )

    def test_a_missing_gather_is_amortised_over_the_run(self):
        """The gather and the list cost more than one transmitter-side
        slot, but less than the rest of a long run saves."""
        asleep, p = 40_000, 2.0**-9
        assert not self._cheaper(1, p, asleep, gather=True, entries=None)
        assert self._cheaper(20, 20 * p, asleep, gather=True, entries=None)

    def test_a_built_list_is_compared_per_slot(self):
        """With the gather and this threshold's list built, nothing is
        amortised: the side flips where 0.7 units per listed entry meet
        the transmitter side's ``k + N/2 + p·k·deg`` (1.2 M at p = 1/2),
        whatever the run length and however many sleepers remain."""
        p = 0.5
        for left in (1, 20):
            for asleep in (100_000, 1_000_000):
                assert self._cheaper(left, left * p, asleep, False, 1_600_000)
                assert not self._cheaper(left, left * p, asleep, False, 1_800_000)

    def test_a_list_rebuilt_every_slot_is_not_amortised(self):
        """A threshold above the current step (``ELIGIBLE_ANY_AWAKE``)
        rebuilds the list in every slot, so its price is paid per slot."""
        asleep, left, p = 100_000, 20, 0.5
        assert self._cheaper(left, left * p, asleep, False, None)
        assert not self._cheaper(left, left * p, asleep, False, None,
                                 relisted=True)

    def test_the_engine_reads_its_state_into_the_prices(self, monkeypatch):
        """``_sleeper_side`` passes a missing gather, a missing list and
        an any-awake threshold as such."""
        net = gnp_random_csr(2_000, 8 / 2_000, seed=1)
        engine = MacroStepEngine(net, AnyAwakeSweep(), seed=0)
        calls = []
        monkeypatch.setattr(macro, "_sleepers_cheaper",
                            lambda *args, **kwargs: calls.append((args, kwargs)))
        engine._sleeper_side(5, 3, ELIGIBLE_ANY_AWAKE, 4, 1.5)
        engine._sleeper_side(5, 3, 2, 4, 1.5)
        (args, any_awake), (same, stage) = calls
        assert args == same == (
            5, 4, 1.5, engine.kernel.avg_degree, 2_000, 1_999, True, None
        )
        assert any_awake == {"relisted": True} and stage == {"relisted": False}


def _directed_network(n: int, extra: int, seed: int) -> RadioNetwork:
    """A random directed network on sparse labels (``2v``), every node
    reachable from the source: each node hangs off an earlier one, plus
    ``extra`` random arcs in either direction."""
    rng = np.random.default_rng(seed)
    arcs = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(arcs) < n - 1 + extra:
        u, v = rng.integers(n, size=2).tolist()
        if u != v:
            arcs.add((u, v))
    return RadioNetwork.directed([2 * v for v in range(n)],
                                 [(2 * u, 2 * v) for u, v in arcs])


#: Networks for the Decay plan against the reference engine: a
#: RadioNetwork and its CSR twin, a sparse CSR G(n, p), and a directed
#: RadioNetwork on sparse labels.
DECAY_NETWORKS = {
    "km_layered": km_hard_layered(60, 4, seed=3),
    "km_layered_csr": km_hard_layered_csr(60, 4, seed=3),
    "gnp_csr": gnp_random_csr(120, 6 / 120, seed=2),
    "directed": _directed_network(60, 90, seed=4),
}


def _record_decay_passes(engine):
    """Wrap the engine's one-pass Decay resolver: record each pass as
    ``(first step, slots executed)``, and after each run opening check
    that the awake list holds exactly the frontier."""
    passes = []
    run_chain = engine._run_chain

    def recorded(plan, j, end):
        start = engine.step
        executed = run_chain(plan, j, end)
        passes.append((start, executed))
        if not plan.chain[j]:
            _assert_awake_list_is_frontier(engine, start)
        return executed

    engine._run_chain = recorded
    return passes


def _assert_awake_list_is_frontier(engine, start):
    """After a run opening at ``start``: the awake list is wake-ordered
    and lists, for each running trial, the nodes woken in the run and the
    earlier-woken nodes that had a sleeping out-neighbour when it
    opened (the list is left as it is once no trial runs)."""
    if not engine._live:
        return
    wake, n = engine._wake, engine.n
    listed = engine._awake_idx[:engine._awake_count]
    wakes = engine._awake_wakes[:engine._awake_count]
    assert (np.diff(wakes) >= 0).all()
    assert (wake[listed] == wakes).all()
    indptr, indices = engine.kernel.indptr, engine.kernel.indices
    frontier = []
    for u in np.flatnonzero(wake != ASLEEP).tolist():
        t, v = divmod(u, n)
        if not engine._running[t]:
            continue
        row = wake[indices[indptr[v]:indptr[v + 1]] + t * n]
        if wake[u] >= start or ((row == ASLEEP) | (row >= start)).any():
            frontier.append(u)
    assert sorted(listed.tolist()) == frontier


def _plan_and_oracle(net, make, seeds, block_size, max_steps, watch=None,
                     **options):
    """A macro run of ``seeds`` (one seed, or a union's seed list) and,
    per seed, the reference engine's run of the algorithm's per-node
    protocols; ``options`` (faults, trace level) go to both, and
    ``watch`` is called with the macro engine before it runs."""
    engine = MacroStepEngine(net, make(), seed=seeds, block_size=block_size,
                             **options)
    if watch is not None:
        watch(engine)
    engine.run(max_steps)
    results = simulate(net, make(), np.atleast_1d(seeds).tolist(),
                       engine="reference", max_steps=max_steps, **options)
    return engine, results


def _assert_same_run(engine, results, trials=None):
    """The union's trials (``trials``: a subset) against per-seed runs:
    wake slots, completion, and the slots each trial and the union
    executed (a trial settles at its completion time, or runs to the
    limit)."""
    trials = range(engine.trials) if trials is None else trials
    assert [engine.wake_times(t) for t in trials] == [r.wake_times for r in results]
    times = engine.completion_times()
    assert [times[t] for t in trials] == [
        r.time if r.completed else None for r in results
    ]
    assert [engine.trial_steps(t) for t in trials] == [r.time for r in results]
    if len(results) == engine.trials:
        assert engine.step == max(r.time for r in results)


class TestDecayPlan:
    """BGI's chained Decay plan against the reference engine's per-node
    Decay protocols: a phase opens with the eligible prefix and each
    later slot flips coins for the previous slot's transmitters only."""

    @settings(max_examples=60, deadline=None)
    @given(
        topo=st.sampled_from(sorted(DECAY_NETWORKS)),
        phase_len=st.sampled_from([1, 2, 3, None]),
        block_size=st.integers(min_value=1, max_value=80),
        seeds=st.one_of(
            st.integers(min_value=0, max_value=63),
            st.lists(st.integers(min_value=0, max_value=63),
                     min_size=2, max_size=5),
        ),
        max_steps=st.one_of(st.just(400), st.integers(min_value=1, max_value=90)),
    )
    def test_plan_matches_reference(self, topo, phase_len, block_size, seeds,
                                    max_steps):
        """Blocks split phases at every ``block_size``; unions retire
        trials mid-phase; ``phase_len`` 1 and 2 may never complete, and
        short budgets end inside a Decay run, so partial runs are checked
        too."""
        net = DECAY_NETWORKS[topo]
        engine, results = _plan_and_oracle(
            net, lambda: BGIBroadcast(net.r, phase_len), seeds, block_size,
            max_steps,
        )
        _assert_same_run(engine, results)

    def test_union_retires_trials_mid_phase(self):
        net = DECAY_NETWORKS["km_layered"]
        phase_len = 3
        engine, results = _plan_and_oracle(
            net, lambda: BGIBroadcast(net.r, phase_len), [0, 1, 2], 7, 400
        )
        _assert_same_run(engine, results)
        times = engine.completion_times()
        assert len(set(times)) == 3
        assert any(time % phase_len for time in times)

    @pytest.mark.parametrize("topo", ["gnp_csr", "km_layered"])
    @pytest.mark.parametrize("seeds", [0, [0, 1, 2]])
    def test_plain_run_resolves_each_decay_run_in_one_pass(self, topo, seeds):
        """A plain run resolves each Decay run — a phase opening, or the
        continuation of a run a block boundary split — in one pass, and
        each opening shrinks the awake list to the frontier."""
        net = DECAY_NETWORKS[topo]
        block_size = 13
        engine = MacroStepEngine(net, BGIBroadcast(net.r), seed=seeds,
                                 block_size=block_size)
        passes = _record_decay_passes(engine)
        engine.run(400)
        results = simulate(net, BGIBroadcast(net.r), np.atleast_1d(seeds).tolist(),
                           engine="reference", max_steps=400)
        assert engine.all_informed
        _assert_same_run(engine, results)
        phase_len = engine.algorithm.phase_len
        assert [start for start, _ in passes] == np.cumsum(
            [0] + [executed for _, executed in passes[:-1]]
        ).tolist()
        assert sum(executed for _, executed in passes) == engine.step
        for start, executed in passes:
            last = start + executed - 1
            assert start % phase_len == 0 or start % block_size == 0
            assert last // phase_len == start // phase_len
            assert last // block_size == start // block_size

    @pytest.mark.parametrize("topo", sorted(DECAY_NETWORKS))
    @pytest.mark.parametrize("max_steps", [37, 400])
    def test_plain_run_equals_metrics_observed_run(self, topo, max_steps):
        """Metrics, timings and traces pin the run to the per-slot chain,
        whose openings go through the frontier prefix (interior nodes
        flagged under metrics, dropped otherwise) and whose chained slots
        read the opening's transmitters; the one-pass plain run must
        agree with it slot for slot."""
        net = DECAY_NETWORKS[topo]
        observations = (
            lambda: {"metrics": MetricsRegistry()},
            lambda: {"timings": Timings()},
            lambda: {"trace_level": TraceLevel.PROGRESS},
        )
        for seeds, observe in itertools.product((0, [0, 1, 2, 3]), observations):
            plain, observed = (
                MacroStepEngine(net, BGIBroadcast(net.r), seed=seeds,
                                block_size=11, **options)
                for options in ({}, observe())
            )
            for engine in (plain, observed):
                engine.run(max_steps)
            assert observed._observed and not plain._observed
            assert np.array_equal(plain.wake_steps, observed.wake_steps)
            assert plain.step == observed.step
            assert plain.completion_times() == observed.completion_times()
            assert [plain.trial_steps(t) for t in range(plain.trials)] == [
                observed.trial_steps(t) for t in range(observed.trials)
            ]

    def test_chain_survives_awake_list_compaction(self):
        """Regression: on the per-slot chain of an observed run, a phase
        start's transmitters are a view of the awake prefix, which
        retiring a trial compacts in place.  The chain must drop the
        retired trial's entries before that, or the union runs on
        corrupted candidates (7,101 slots, not 7,061, on e1's deepest
        instance).  The plain run, one pass per Decay run, retires the
        same trials at the same slots.  The trials that retire last ran
        through every earlier retirement; their wake rows are checked
        against single event-engine runs."""
        net = km_hard_layered(1024, 256, seed=17)
        seeds = list(range(16))
        engines = [
            MacroStepEngine(net, BGIBroadcast(net.r), seed=seeds, **options)
            for options in ({}, {"metrics": MetricsRegistry()})
        ]
        for engine in engines:
            engine.run(default_max_steps(net, BGIBroadcast(net.r)))
            assert engine.step == 7061
            assert engine.all_informed
        plain, observed = engines
        assert np.array_equal(plain.wake_steps, observed.wake_steps)
        steps = [plain.trial_steps(t) for t in range(plain.trials)]
        assert steps == [observed.trial_steps(t) for t in range(observed.trials)]
        last = sorted(range(plain.trials), key=steps.__getitem__)[-2:]
        results = simulate(net, BGIBroadcast(net.r), [seeds[t] for t in last],
                           engine="event")
        _assert_same_run(plain, results, trials=last)
        assert max(r.time for r in results) == 7061


def _record_prefix_builds(engine):
    """Wrap the engine's transmitter-prefix builder: record each build as
    ``(k, kept, informed, listed)`` — the prefix asked for and kept, the
    informed nodes of the running trials and the awake-list length — and
    check that a prune keeps, in order, exactly the prefix entries that
    have a sleeping neighbour and leaves the rest of the list alone."""
    builds = []
    build = engine._eligible_prefix
    indptr, indices = engine.kernel.indptr, engine.kernel.indices

    def has_sleeper(u):
        t, v = divmod(u, engine.n)
        row = indices[indptr[v]:indptr[v + 1]] + t * engine.n
        return bool((engine._wake[row] == ASLEEP).any())

    def recorded(k):
        before = engine._awake_idx[:engine._awake_count].tolist()
        prefix = build(k)
        kept = prefix[0]
        after = engine._awake_idx[:engine._awake_count].tolist()
        if kept < k:
            assert after[:kept] == [u for u in before[:k] if has_sleeper(u)]
            assert after[kept:] == before[k:]
        else:
            assert after == before
        assert prefix[1].tolist() == after[:kept]
        informed = int(engine._informed[engine._running].sum())
        builds.append((k, kept, informed, len(after)))
        return prefix

    engine._eligible_prefix = recorded
    return builds


#: Deep and thin networks for KP's frontier prefix, where most informed
#: nodes soon have no sleeping neighbour: a deep hard layered instance
#: (RadioNetwork and CSR twin), a path, a ladder of two-node complete
#: layers and a random tree.  On the path and the tree every sleeper has
#: one informed neighbour, so all trials finish together; on the others
#: they finish at different slots.
KP_NETWORKS = {
    "km_layered": km_hard_layered(80, 16, seed=3),
    "km_layered_csr": km_hard_layered_csr(80, 16, seed=3),
    "path": path(40),
    "ladder": uniform_complete_layered(61, 30, relabel_seed=2),
    "tree": random_tree(80, seed=1),
}


def _kp(net):
    return KnownRadiusKP(net.r, net.radius)


class TestFrontierPrefix:
    """KP's probability slots in a plain run prune the eligible prefix to
    the nodes with a sleeping neighbour when the prefix is rebuilt: the
    run must still match the reference engine's per-node protocols and a
    metrics-observed run, which keeps every transmitter."""

    @settings(max_examples=60, deadline=None)
    @given(
        topo=st.sampled_from(sorted(KP_NETWORKS)),
        block_size=st.integers(min_value=1, max_value=80),
        seeds=st.one_of(
            st.integers(min_value=0, max_value=63),
            st.lists(st.integers(min_value=0, max_value=63),
                     min_size=2, max_size=5),
        ),
        max_steps=st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
    )
    def test_plain_run_matches_reference_and_observed_run(
        self, topo, block_size, seeds, max_steps
    ):
        """Blocks split stages at every ``block_size``; union trials
        retire at different slots, compacting a pruned list again; short
        budgets stop mid-stage."""
        net = KP_NETWORKS[topo]
        if max_steps is None:
            max_steps = default_max_steps(net, _kp(net))
        plain, results = _plan_and_oracle(
            net, lambda: _kp(net), seeds, block_size, max_steps,
            watch=_record_prefix_builds,
        )
        _assert_same_run(plain, results)
        observed = MacroStepEngine(net, _kp(net), seed=seeds,
                                   block_size=block_size,
                                   metrics=MetricsRegistry())
        observed.run(max_steps)
        assert observed._observed and not plain._observed
        assert np.array_equal(plain.wake_steps, observed.wake_steps)
        assert plain.step == observed.step
        assert plain.completion_times() == observed.completion_times()
        assert [plain.trial_steps(t) for t in range(plain.trials)] == [
            observed.trial_steps(t) for t in range(observed.trials)
        ]

    @pytest.mark.parametrize("topo", ["km_layered", "km_layered_csr", "ladder"])
    def test_union_prunes_and_retires_trials(self, topo):
        """A full union run prunes, and its trials settle at different
        slots, each compacting the pruned list again."""
        net = KP_NETWORKS[topo]
        logs = []
        engine, results = _plan_and_oracle(
            net, lambda: _kp(net), [0, 1, 2, 3], 17,
            default_max_steps(net, _kp(net)),
            watch=lambda engine: logs.append(_record_prefix_builds(engine)),
        )
        _assert_same_run(engine, results)
        assert engine.all_informed
        assert len(set(engine.completion_times())) > 1
        (builds,) = logs
        assert any(kept < k for k, kept, _, _ in builds)

    @pytest.mark.parametrize(
        "options, prunes, flags",
        [
            ({}, True, False),
            ({"timings": Timings()}, True, False),
            ({"trace_level": TraceLevel.PROGRESS}, True, False),
            ({"metrics": MetricsRegistry()}, False, True),
            ({"trace_level": TraceLevel.FULL}, False, False),
            ({"faults": FaultPlan()}, False, False),
        ],
        ids=["plain", "timings", "progress", "metrics", "full", "faults"],
    )
    def test_which_runs_prune_and_which_flag_the_interior(self, options,
                                                          prunes, flags):
        """Runs that record only wakes and times prune like a plain run;
        metrics runs tally every transmission, so they flag the interior
        nodes instead (and leave them out of the channel); FULL traces and
        fault plans count hits at every receiver, so they do neither.
        Every mode gives the plain run's wakes."""
        net = KP_NETWORKS["km_layered"]
        max_steps = default_max_steps(net, _kp(net))
        plain = MacroStepEngine(net, _kp(net), seed=[0, 1, 2])
        plain.run(max_steps)
        engine = MacroStepEngine(net, _kp(net), seed=[0, 1, 2], **options)
        builds = _record_prefix_builds(engine)
        engine.run(max_steps)
        assert np.array_equal(engine.wake_steps, plain.wake_steps)
        assert engine.step == plain.step
        assert any(kept < k for k, kept, _, _ in builds) == prunes
        interior = engine._interior
        assert (interior is not None and bool(interior.any())) == flags
        if flags:
            # A flagged node has no sleeping neighbour at the end either.
            for u in np.flatnonzero(interior).tolist():
                t, v = divmod(u, engine.n)
                row = engine.kernel.indices[
                    engine.kernel.indptr[v]:engine.kernel.indptr[v + 1]
                ]
                assert (engine._wake[row + t * engine.n] != ASLEEP).all()

    @pytest.mark.parametrize("topo", sorted(KP_NETWORKS))
    def test_metrics_run_equals_reference_metrics(self, topo):
        """A metrics run leaves interior nodes out of the channel but
        tallies their transmissions: over the same three trials, every
        counter and histogram equals the reference engine's, for KP and
        BGI alike."""
        net = KP_NETWORKS[topo]
        for make in (lambda: _kp(net), lambda: BGIBroadcast(net.r)):
            snapshots = []
            for engine in ("macro", "reference"):
                metrics = MetricsRegistry()
                simulate(net, make(), [0, 1, 2], engine=engine, metrics=metrics)
                snapshot = metrics.to_dict()
                snapshots.append((snapshot["counters"], snapshot["histograms"]))
            assert snapshots[0] == snapshots[1]
            # A sleeper on a path or a tree has one informed neighbour.
            collided = snapshots[0][1]["collisions_per_slot"]["sum"] > 0
            assert collided == (topo not in ("path", "tree"))

    def test_awake_list_shrinks_to_the_frontier_on_a_deep_instance(self):
        """On the deep hard instance at 10^5 nodes the awake list holds the
        frontier, not every informed node, and the run keeps its slots and
        wake slots."""
        net = km_hard_layered_csr(100_000, 512, seed=0)
        engine = MacroStepEngine(net, _kp(net), seed=0)
        builds = _record_prefix_builds(engine)
        engine.run(default_max_steps(net, _kp(net)))
        assert engine.step == 6308 and engine.all_informed
        digest = hashlib.sha256(engine.wake_steps.tobytes()).hexdigest()
        assert digest == (
            "38c4a6f159c4ae78de7591bb755319f627057b48d2d60bb3b978cf5c7f292340"
        )
        assert sum(kept < k for k, kept, _, _ in builds) > 100
        _, _, informed, listed = builds[-1]
        assert informed > 15_000 and listed < informed // 50

    def test_prefix_is_left_alone_on_gnp(self):
        """On G(n, p) an eligible prefix always has mostly frontier nodes
        while the transmitter side runs, so the probe never prunes: every
        informed node stays listed."""
        n = 20_000
        net = gnp_random_csr(n, 12 / n, seed=0)
        engine = MacroStepEngine(net, _kp(net), seed=0)
        builds = _record_prefix_builds(engine)
        engine.run(default_max_steps(net, _kp(net)))
        assert engine.all_informed
        assert builds and all(kept == k for k, kept, _, _ in builds)
        assert engine._awake_count == n


#: The label-set schedules and a RadioNetwork / CSR pair holding the same
#: graph (the centralized schedule is computed on the RadioNetwork and
#: replayed on either).
_LAYERED = km_hard_layered(40, 4, seed=3)
LABEL_SET_NETWORKS = {
    "km_layered": _LAYERED,
    "km_layered_csr": km_hard_layered_csr(40, 4, seed=3),
}
LABEL_SET_SCHEDULES = {
    "round-robin": lambda r: RoundRobinBroadcast(r),
    "selective-random": lambda r: SelectiveFamilyBroadcast(r, "random", seed=2),
    "selective-kautz-singleton": lambda r: SelectiveFamilyBroadcast(
        r, "kautz-singleton"
    ),
    "centralized": lambda r: CentralizedGreedySchedule(_LAYERED),
}


def _label_set_runs(topo, schedule, seeds, block_size, loss, max_steps=300):
    """A FULL-traced macro run of a label-set schedule and the reference
    runs of its per-node protocols.  A loss plan makes the otherwise
    identical trials of a union differ, so they retire at different
    slots."""
    net = LABEL_SET_NETWORKS[topo]
    engine, results = _plan_and_oracle(
        net, lambda: LABEL_SET_SCHEDULES[schedule](net.r), seeds, block_size,
        max_steps, trace_level=TraceLevel.FULL,
        faults=FaultPlan(loss_probability=loss, seed=5) if loss else None,
    )
    _assert_same_run(engine, results)
    for t, result in enumerate(results):
        assert engine.trace_for(t).steps == result.trace.steps
        assert engine.fault_counters_for(t) == result.fault_counters
    return engine, results


class TestLabelSetPlans:
    """Round-robin, the selective families and the centralized schedule
    as label-set plans against the reference engine's per-node
    protocols: wake slots, completion, executed slots and FULL traces."""

    @settings(max_examples=60, deadline=None)
    @given(
        topo=st.sampled_from(sorted(LABEL_SET_NETWORKS)),
        schedule=st.sampled_from(sorted(LABEL_SET_SCHEDULES)),
        block_size=st.integers(min_value=1, max_value=80),
        seeds=st.one_of(
            st.integers(min_value=0, max_value=63),
            st.lists(st.integers(min_value=0, max_value=63),
                     min_size=2, max_size=4),
        ),
        loss=st.sampled_from([0.0, 0.3]),
    )
    def test_plan_matches_reference(self, topo, schedule, block_size, seeds, loss):
        """Blocks split cycles (and the centralized schedule's end) at
        every ``block_size``; the 300-slot budget also checks partial
        runs."""
        _label_set_runs(topo, schedule, seeds, block_size, loss)

    @pytest.mark.parametrize("topo", sorted(LABEL_SET_NETWORKS))
    def test_union_retires_trials_mid_cycle(self, topo):
        engine, _ = _label_set_runs(
            topo, "selective-random", [0, 1, 2, 3], 37, loss=0.3, max_steps=2_000
        )
        times = engine.completion_times()
        assert None not in times and len(set(times)) == 4
        assert all(time % engine.algorithm.cycle_length for time in times)

    def test_labels_outside_the_network_are_dropped(self):
        """Schedules over labels ``0..r`` on networks holding only some of
        them — the top of the range (contiguous labels) or every odd
        label (a sparse label set): the missing members are ignored, as
        the reference engine never asks them."""
        base = km_hard_layered(30, 3, seed=1)
        sparse = RadioNetwork.undirected(
            [2 * v for v in base.nodes],
            [(2 * u, 2 * v) for u in base.nodes for v in base.out_neighbors[u]],
        )
        for net in (base, sparse):
            r = 2 * net.r + 1
            for make in (lambda: SelectiveFamilyBroadcast(r),
                         lambda: RoundRobinBroadcast(r)):
                (reference,) = simulate(net, make(), [0], engine="reference",
                                        trace_level=TraceLevel.FULL)
                (macro,) = simulate(net, make(), [0], engine="macro",
                                    trace_level=TraceLevel.FULL)
                assert reference.completed
                assert _summary(macro) == _summary(reference)
                assert macro.trace.steps == reference.trace.steps


class TestMemoryGuard:
    """FULL traces are charged as they grow (``TraceBudget``); dense
    metrics are estimated up front (``check_memory_budget``)."""

    @staticmethod
    def _tiny_budget(monkeypatch, limit=1000):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        monkeypatch.setattr(guard, "FULL_TRACE_BYTE_LIMIT", limit)

    def test_full_trace_over_budget_raises_with_bytes_used(self, monkeypatch):
        self._tiny_budget(monkeypatch)
        budget = guard.TraceBudget()
        budget.charge(1000)
        with pytest.raises(ConfigurationError) as excinfo:
            budget.charge(8)
        message = str(excinfo.value)
        assert "1,008 bytes" in message and "1,000 bytes" in message
        assert "FULL_TRACE_BYTE_LIMIT" in message
        assert "allow_large=True" in message
        assert "REPRO_ALLOW_LARGE_MEMORY" in message

    def test_none_and_progress_traces_never_trip(self, monkeypatch):
        self._tiny_budget(monkeypatch, limit=0)
        net = gnp_random_csr(50, 0.2, seed=0)
        algo = KnownRadiusKP(net.r, net.radius)
        for level in (TraceLevel.NONE, TraceLevel.PROGRESS):
            for engine in ("reference", "event", "macro"):
                (result,) = simulate(net, algo, [0], engine=engine,
                                     trace_level=level)
                assert result.completed

    def test_allow_large_and_env_override(self, monkeypatch):
        self._tiny_budget(monkeypatch)
        net = gnp_random_csr(50, 0.2, seed=0)
        algo = KnownRadiusKP(net.r, net.radius)
        (result,) = simulate(net, algo, [0], engine="macro",
                             trace_level=TraceLevel.FULL, allow_large=True)
        assert result.completed and len(result.trace.steps) == result.time
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "1")
        simulate(net, algo, [0], engine="macro", trace_level=TraceLevel.FULL)
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "0")
        with pytest.raises(ConfigurationError):
            simulate(net, algo, [0], engine="macro", trace_level=TraceLevel.FULL)

    def test_dense_metrics_budget(self):
        with pytest.raises(ConfigurationError):
            check_memory_budget(10**6, trials=10**3, dense_metrics=True)
        check_memory_budget(10**6, trials=10, dense_metrics=True)
        check_memory_budget(10**6, trials=10**3, dense_metrics=False)

    def test_guard_reached_through_drivers(self, monkeypatch):
        self._tiny_budget(monkeypatch)
        net = gnp_random_csr(50, 0.2, seed=0)
        algo = KnownRadiusKP(net.r, net.radius)
        for engine in ("reference", "event", "macro"):
            with pytest.raises(ConfigurationError, match="FULL_TRACE_BYTE_LIMIT"):
                run_broadcast(net, algo, trace_level=TraceLevel.FULL, engine=engine)
        with pytest.raises(ConfigurationError):
            run_broadcast_macro(net, algo, trace_level=TraceLevel.FULL)
        # the documented escape hatch actually runs
        result = run_broadcast_macro(
            net, algo, trace_level=TraceLevel.FULL, allow_large=True
        )
        assert result.completed

    def test_budget_charges_what_is_recorded_not_max_steps(self, monkeypatch):
        """A huge step budget alone never trips the guard: only appended
        bytes count, and the run's stay far below the limit."""
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        net = gnp_random_csr(2_000, 8 / 2_000, seed=1)
        algo = KnownRadiusKP(net.r, net.radius)
        (result,) = simulate(net, algo, [0], engine="macro", max_steps=10**9,
                             trace_level=TraceLevel.FULL)
        assert result.completed


class TestUnionGrouping:
    """The driver splits a ``macro`` call's seeds into unions of at most
    ``UNION_NODE_LIMIT`` node copies, and the memory guard sees one
    union's trial count."""

    def test_seeds_run_in_bounded_unions(self, monkeypatch):
        net = km_hard_layered(48, 4, seed=5)
        seeds = [0, 1, 5, 7, 9]
        make = lambda: KnownRadiusKP(net.r, 4, stage_constant=4)  # noqa: E731
        monkeypatch.setattr(driver, "UNION_NODE_LIMIT", 2 * net.n + 1)
        events = []
        results = simulate(net, make(), seeds, engine="macro",
                           spans=SpanRecorder(sink=events.append))
        spans = [e["name"] for e in events if e["kind"] == "trial"]
        assert spans == ["batch[2]", "batch[2]", "batch[1]"]
        for seed, result in zip(seeds, results):
            assert result.seed == seed
            assert _summary(result) == _summary(run_broadcast(net, make(), seed=seed))

    def test_memory_guard_sees_one_union(self, monkeypatch):
        net = km_hard_layered(48, 4, seed=5)
        algo = KnownRadiusKP(net.r, 4, stage_constant=4)
        monkeypatch.setattr(guard, "DENSE_METRICS_CELL_LIMIT", 2 * net.n)
        monkeypatch.setattr(driver, "UNION_NODE_LIMIT", 2 * net.n)
        simulate(net, algo, [0, 1, 2, 3], engine="macro", metrics=MetricsRegistry())
        monkeypatch.setattr(driver, "UNION_NODE_LIMIT", 3 * net.n)
        with pytest.raises(ConfigurationError):
            simulate(net, algo, [0, 1, 2, 3], engine="macro",
                     metrics=MetricsRegistry())


class TestLargeNSpotChecks:
    """Slot-for-slot identity at sizes the conformance matrix never
    visits.  ``max_steps`` is capped so the dense side stays cheap;
    partial-run identity is the same property, checked on a prefix."""

    def test_gnp_50k_identity(self):
        n = 50_000
        net = gnp_random_csr(n, 8 / n, seed=13)
        algo = KnownRadiusKP(net.r, net.radius)
        budget = 120
        dense = _dense(net, KnownRadiusKP(net.r, net.radius), 7,
                       max_steps=budget)
        macro = run_broadcast_macro(net, algo, seed=7, max_steps=budget)
        assert _summary(macro) == _summary(dense)

    def test_layered_50k_identity(self):
        net = km_hard_layered_csr(50_000, 12, seed=5)
        budget = 200
        dense = _dense(net, KnownRadiusKP(net.r, net.radius), 2,
                       max_steps=budget)
        (macro,) = simulate(net, KnownRadiusKP(net.r, net.radius), [2],
                            engine=engine_spec("macro"), max_steps=budget)
        assert _summary(macro) == _summary(dense)

    def test_legacy_network_also_supported(self):
        # The macro engine is not CSR-only: dict-of-sets topologies run
        # through the same ChannelKernel compilation.
        net = km_hard_layered(2_000, 8, seed=9)
        dense = _dense(net, KnownRadiusKP(net.r, 8), 1)
        macro = run_broadcast_macro(net, KnownRadiusKP(net.r, 8), seed=1)
        assert _summary(macro) == _summary(dense)

    def test_gnp_50k_instrumented_identity(self):
        """Metrics, a FULL trace and a crash + jam + loss plan at once,
        against the dense oracle's run of the same plan: wake slots,
        fault tallies, every slot's full step record (transmitters,
        deliveries, collisions, woken nodes), the informed curve, and
        the whole counters and histograms dict."""
        n = 50_000
        net = gnp_random_csr(n, 8 / n, seed=13)
        budget = 120
        plan = FaultPlan(
            crashes=((1, 5), (n // 2, 40), (n - 1, 0)),
            jams=tuple((slot, 2) for slot in range(30)),
            loss_probability=0.2,
            seed=4,
        )
        metrics = MetricsRegistry()
        dense = _dense(net, KnownRadiusKP(net.r, net.radius), 7,
                       max_steps=budget, faults=plan)
        macro = run_broadcast_macro(
            net, KnownRadiusKP(net.r, net.radius), seed=7, max_steps=budget,
            faults=plan, metrics=metrics, trace_level=TraceLevel.FULL,
            allow_large=True,
        )
        assert _summary(macro) == _summary(dense)
        assert macro.fault_counters == dense.fault_counters
        assert macro.fault_counters.lost_messages > 0
        assert macro.trace.steps == dense.steps
        assert any(record.deliveries for record in dense.steps)
        assert any(record.collisions for record in dense.steps)
        assert macro.trace.informed_counts == dense.informed_counts

        expected = MetricsRegistry()
        expected.counter("engine_slots").inc(len(dense.steps))
        expected.counter("engine_transmissions").inc(int(dense.transmissions.sum()))
        expected.counter("runs_total").inc()
        if dense.completed:
            expected.counter("runs_completed").inc()
        for name, value in zip(
            ("crashed_nodes", "jammed_slots", "lost_messages", "delayed_wakes"),
            dataclasses.astuple(dense.fault_counters),
        ):
            expected.counter(f"faults_{name}").inc(value)
        expected.histogram("collisions_per_slot", COUNT_BUCKETS).observe_many(
            dense.collisions
        )
        expected.histogram("slots_to_completion", SLOT_BUCKETS).observe(dense.time)
        expected.histogram("transmissions_per_node", COUNT_BUCKETS).observe_many(
            dense.transmissions
        )
        snapshot, wanted = metrics.to_dict(), expected.to_dict()
        assert snapshot["counters"] == wanted["counters"]
        assert snapshot["histograms"] == wanted["histograms"]

    def test_last_sleeper_crash_stops_at_reference_slot(self):
        """A run whose last sleeper crashes settles there, incomplete, on
        the reference engine's slot — not at the step limit."""
        net = km_hard_layered_csr(300, 6, seed=2)
        algo = lambda: RoundRobinBroadcast(net.r)  # noqa: E731
        plain = run_broadcast_macro(net, algo(), seed=0)
        last = max(plain.wake_times, key=plain.wake_times.get)
        plan = FaultPlan(crashes=((last, plain.wake_times[last]),))
        reference = run_broadcast(net, algo(), seed=0, faults=plan,
                                  max_steps=10 * plain.time)
        (macro,) = simulate(net, algo(), [0], engine=engine_spec("macro"),
                            faults=plan, max_steps=10 * plain.time)
        assert not reference.completed
        assert reference.time < 10 * plain.time
        assert _summary(macro) == _summary(reference)
        assert macro.fault_counters == reference.fault_counters
