"""Macro-step engine: block-size invariance, the memory guard, and
large-n spot checks against the dense batched engine.

The full cross-engine matrix (including faults, traces and metrics for
the instrumented macro path) lives in ``test_conformance.py``; this
module covers what that matrix holds fixed — the macro-step width ``K``,
CSR-native topologies at sizes the matrix never visits, plain and
instrumented — plus the :mod:`repro.sim.guard` estimates.  The oracle is
a single-trial ``batched_fast`` run: a dense ``O(E)``-per-slot array
program that shares no resolution code with the macro engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.guard as guard
from repro.baselines.round_robin import RoundRobinBroadcast
from repro.core.randomized import KnownRadiusKP
from repro.obs.metrics import MetricsRegistry
from repro.sim import (
    ASLEEP,
    ConfigurationError,
    FaultPlan,
    TraceLevel,
    check_memory_budget,
    default_max_steps,
    run_broadcast,
    run_broadcast_batch,
    simulate,
)
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
    return (result.completed, result.time, result.informed,
            result.wake_times, result.layer_times)


def _dense(net, algo, seed, **kwargs):
    """The dense oracle: one trial on the batched array engine."""
    (result,) = run_broadcast_batch(net, algo, seeds=[seed],
                                    engine="batched_fast", **kwargs)
    return result


def _run_engine(net, algo, seed, block_size):
    """A full run at block size ``block_size``, plus whether any slot was
    resolved from the sleepers' side (the gather is built lazily there)."""
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
        assert engine.completion_time == baseline.time
        assert engine.informed_count == baseline.informed
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


class TestReceiverSide:
    """Complete runs that spend their late slots on the sleepers' side of
    the channel: eligible-entry lists, their reuse across slots, lazy
    compaction of the sleeper gather, all the way to the last wake."""

    @pytest.mark.parametrize(
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
    def test_full_run_matches_dense(self, make_net, sleeper_side):
        net = make_net()
        dense = _dense(net, KnownRadiusKP(net.r, net.radius), 3)
        assert dense.completed
        for block_size in (29, 128):
            engine, used_rx = _run_engine(
                net, KnownRadiusKP(net.r, net.radius), 3, block_size
            )
            assert used_rx == sleeper_side
            assert engine.completion_time == dense.time
            assert engine.wake_times() == dense.wake_times

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
        assert engine.completion_time == reference.time
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
        against the dense engine's single-trial run of the same plan."""
        n = 50_000
        net = gnp_random_csr(n, 8 / n, seed=13)
        budget = 120
        plan = FaultPlan(
            crashes=((1, 5), (n // 2, 40), (n - 1, 0)),
            jams=tuple((slot, 2) for slot in range(30)),
            loss_probability=0.2,
            seed=4,
        )
        kwargs = dict(max_steps=budget, faults=plan,
                      trace_level=TraceLevel.FULL, allow_large=True)
        dense_metrics, macro_metrics = MetricsRegistry(), MetricsRegistry()
        dense = _dense(net, KnownRadiusKP(net.r, net.radius), 7,
                       metrics=dense_metrics, **kwargs)
        macro = run_broadcast_macro(net, KnownRadiusKP(net.r, net.radius),
                                    seed=7, metrics=macro_metrics, **kwargs)
        assert _summary(macro) == _summary(dense)
        assert macro.fault_counters == dense.fault_counters
        assert macro.fault_counters.lost_messages > 0
        assert macro.trace.steps == dense.trace.steps
        assert macro.trace.informed_counts == dense.trace.informed_counts
        dense_dict, macro_dict = dense_metrics.to_dict(), macro_metrics.to_dict()
        assert macro_dict["counters"] == dense_dict["counters"]
        assert macro_dict["histograms"] == dense_dict["histograms"]

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
