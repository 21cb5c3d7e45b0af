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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

import repro.sim.driver as driver
import repro.sim.guard as guard
from repro.baselines.round_robin import RoundRobinBroadcast
from repro.core.randomized import KnownRadiusKP
from repro.obs.metrics import COUNT_BUCKETS, SLOT_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanRecorder
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
from repro.sim.fast import WakeTimes
from repro.sim.faults import NEVER
from repro.sim.trace import StepRecord
from repro.sim.macro import (
    ELIGIBLE_ANY_AWAKE,
    MacroPlan,
    MacroStepEngine,
    resolve_macro_backend,
    run_broadcast_macro,
)
from repro.sim.protocol import BroadcastAlgorithm, ObliviousTransmitter
from repro.topology import (
    gnp_random_csr,
    km_hard_layered,
    km_hard_layered_csr,
)

from .conformance import engine_spec


def _summary(result):
    return (result.completed, result.time, result.informed, result.wake_times)


_EMPTY = np.empty(0, dtype=np.int64)


def _dense(net, algo, seed, max_steps=None, faults=None):
    """The dense oracle: one trial as a per-slot numpy program.

    Every node's transmit decision (``transmit_mask``) is evaluated in
    every slot, the hits are a ``bincount`` of the transmitters' CSR
    rows, and the fault pipeline (crash -> jam -> loss -> wake-delay)
    runs on full-length arrays: no plan, no eligible prefix, no union
    and no receiver side.  It shares only the coins and the CSR arrays
    with the macro engine.  ``steps`` holds one FULL-trace
    :class:`StepRecord` per executed slot, with the reference engine's
    definitions: deliveries to every live, non-transmitting node that
    hears exactly one sender and is not jammed, lost or wake-delayed;
    collisions at live, non-transmitting nodes with two or more
    senders.  ``collisions`` holds the per-slot count the
    ``collisions_per_slot`` histogram observes (dead receivers
    included), ``informed_counts`` the informed count after each slot
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
    if hasattr(algo, "reset_run"):
        algo.reset_run(n)
    tallies = np.zeros(4, dtype=np.int64)  # crashed, jammed, lost, delayed
    transmissions = np.zeros(n, dtype=np.int64)
    sender = np.zeros(n, dtype=np.int64)
    steps, collisions, informed_counts = [], [], []

    def sorted_labels(where):
        return tuple(sorted(labels[where].tolist()))

    for step in range(max_steps):
        awake = wake != ASLEEP
        if (awake | (crash <= step)).all():
            break
        tallies[0] += np.count_nonzero(crash == step)
        tallies[1] += len(jams.get(step, ()))
        alive = crash > step
        mask = algo.transmit_mask(step, labels, wake, net.r, coins) & awake & alive
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
        collisions.append(int(np.count_nonzero((hits >= 2) & ~mask)))
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

    def transmit_mask(self, step, labels, wake_steps, r, coins):
        p = self.PROBS[step % len(self.PROBS)]
        return (wake_steps != ASLEEP) & coins.below(step, p)

    def macro_plan(self, start: int, count: int, r: int) -> MacroPlan:
        steps = start + np.arange(count)
        return MacroPlan(
            start=start,
            probs=np.asarray(self.PROBS)[steps % len(self.PROBS)],
            elig=np.full(count, ELIGIBLE_ANY_AWAKE, dtype=np.int64),
            single=np.full(count, -1, dtype=np.int64),
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


class TestMemoryGuard:
    def test_full_trace_over_limit_raises_with_estimate(self):
        with pytest.raises(ConfigurationError) as excinfo:
            check_memory_budget(10**6, 10**5, TraceLevel.FULL)
        message = str(excinfo.value)
        assert "bytes" in message
        assert "allow_large=True" in message
        assert "REPRO_ALLOW_LARGE_MEMORY" in message

    def test_none_and_progress_traces_never_trip(self):
        check_memory_budget(10**7, 10**7, TraceLevel.NONE)
        check_memory_budget(10**7, 10**7, TraceLevel.PROGRESS)

    def test_allow_large_and_env_override(self, monkeypatch):
        check_memory_budget(10**6, 10**5, TraceLevel.FULL, allow_large=True)
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "1")
        check_memory_budget(10**6, 10**5, TraceLevel.FULL)
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "0")
        with pytest.raises(ConfigurationError):
            check_memory_budget(10**6, 10**5, TraceLevel.FULL)

    def test_dense_metrics_budget(self):
        with pytest.raises(ConfigurationError):
            check_memory_budget(10**6, 100, trials=10**3, dense_metrics=True)
        check_memory_budget(10**6, 100, trials=10, dense_metrics=True)

    def test_guard_reached_through_drivers(self, monkeypatch):
        monkeypatch.setattr(guard, "FULL_TRACE_CELL_LIMIT", 10)
        net = gnp_random_csr(50, 0.2, seed=0)
        algo = KnownRadiusKP(net.r, net.radius)
        with pytest.raises(ConfigurationError):
            run_broadcast(net, algo, trace_level=TraceLevel.FULL, engine="macro")
        with pytest.raises(ConfigurationError):
            run_broadcast_macro(net, algo, trace_level=TraceLevel.FULL)
        # the documented escape hatch actually runs
        result = run_broadcast_macro(
            net, algo, trace_level=TraceLevel.FULL, allow_large=True
        )
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
