"""Engine instrumentation: zero-overhead defaults, metric parity, timings.

Two invariants matter: (1) instrumentation must never change what an
engine computes — results with metrics on are bit-identical to results
with metrics off; (2) the three engines must agree on every counter and
histogram for the same (network, algorithm, seed), just as they agree on
the results themselves.  The single-run array engine is ``macro``.
"""

from __future__ import annotations

import pytest

from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import KnownRadiusKP
from repro.obs.metrics import MetricsRegistry
from repro.obs.timings import Timings
from repro.sim import run_broadcast
from repro.sim.fast import run_broadcast_batch
from repro.sim.serialization import result_from_dict, result_to_dict
from repro.sim.trace import TraceLevel
from repro.topology import gnp_connected, gnp_random_csr, path, uniform_complete_layered

SEED = 13


def _net():
    return gnp_connected(30, 0.2, seed=4)


def _result_key(result):
    return (result.completed, result.time, result.wake_times, result.layer_times)


class TestResultsUnchanged:
    """Metrics on == metrics off, per engine."""

    def test_reference_engine(self):
        net = _net()
        algorithm = BGIBroadcast(net.r)
        plain = run_broadcast(net, algorithm, seed=SEED)
        instrumented = run_broadcast(net, algorithm, seed=SEED,
                                     metrics=MetricsRegistry())
        assert _result_key(instrumented) == _result_key(plain)
        assert plain.timings is None
        assert instrumented.timings is not None

    def test_fast_engine(self):
        """The single-run array engine, ``macro``."""
        net = _net()
        algorithm = BGIBroadcast(net.r)
        plain = run_broadcast(net, algorithm, seed=SEED, engine="macro")
        instrumented = run_broadcast(net, algorithm, seed=SEED,
                                     metrics=MetricsRegistry(), engine="macro")
        assert _result_key(instrumented) == _result_key(plain)

    def test_batched_engine(self):
        net = _net()
        algorithm = BGIBroadcast(net.r)
        seeds = [1, 2, 3]
        plain = run_broadcast_batch(net, algorithm, seeds=seeds)
        instrumented = run_broadcast_batch(net, algorithm, seeds=seeds,
                                           metrics=MetricsRegistry())
        assert [_result_key(r) for r in instrumented] == [
            _result_key(r) for r in plain
        ]


class TestCounterParity:
    """All three engines tally the same counters and histograms."""

    @pytest.mark.parametrize("make_net", [
        pytest.param(lambda: path(15), id="path"),
        pytest.param(lambda: uniform_complete_layered(32, 4), id="layered"),
        pytest.param(_net, id="gnp"),
    ])
    def test_single_run_parity(self, make_net):
        net = make_net()
        algorithm = RoundRobinBroadcast(net.r)
        ref, macro = MetricsRegistry(), MetricsRegistry()
        run_broadcast(net, algorithm, seed=SEED, metrics=ref)
        run_broadcast(net, algorithm, seed=SEED, metrics=macro, engine="macro")
        assert macro.to_dict() == ref.to_dict()

    def test_batched_matches_serial_reference(self):
        net = _net()
        algorithm = BGIBroadcast(net.r)
        seeds = [5, 6, 7]
        serial, batched = MetricsRegistry(), MetricsRegistry()
        for seed in seeds:
            run_broadcast(net, algorithm, seed=seed, metrics=serial)
        run_broadcast_batch(net, algorithm, seeds=seeds, metrics=batched)
        # Counters and histograms must tally identically even though the
        # batched engine buffers its collision observations and flushes
        # them once per run (histograms are order-invariant).
        batched_dict, serial_dict = batched.to_dict(), serial.to_dict()
        assert batched_dict["counters"] == serial_dict["counters"]
        assert batched_dict["histograms"] == serial_dict["histograms"]
        # The batch-only liveness gauge exists on the batched side alone;
        # it reads 0 once every trial has settled.
        assert serial_dict["gauges"] == {}
        assert batched_dict["gauges"] == {"batch_active_trials": 0}

    def test_expected_counters_present(self):
        net = path(10)
        algorithm = RoundRobinBroadcast(net.r)
        metrics = MetricsRegistry()
        result = run_broadcast(net, algorithm, seed=0, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert counters["runs_total"] == 1
        assert counters["runs_completed"] == 1
        assert counters["engine_slots"] == result.time
        assert counters["engine_transmissions"] >= net.n - 1
        histograms = metrics.to_dict()["histograms"]
        assert histograms["slots_to_completion"]["count"] == 1
        assert histograms["slots_to_completion"]["max"] == result.time
        # One transmissions-per-node observation per node.
        assert histograms["transmissions_per_node"]["count"] == net.n
        assert histograms["collisions_per_slot"]["count"] == result.time


class TestProfilingIdentity:
    """cProfile wrapping must observe, never perturb (repro profile)."""

    def test_profiled_single_run_matches_plain(self):
        from repro.obs.profile import profile_call

        net = _net()
        algorithm = BGIBroadcast(net.r)
        plain = run_broadcast(net, algorithm, seed=SEED, engine="macro")
        profiled, stats = profile_call(
            lambda: run_broadcast(net, algorithm, seed=SEED, engine="macro")
        )
        assert _result_key(profiled) == _result_key(plain)
        assert stats.total_calls > 0

    def test_profiled_instrumented_batch_matches_plain(self):
        from repro.obs.profile import profile_call

        net = _net()
        algorithm = BGIBroadcast(net.r)
        seeds = [1, 2, 3]
        plain_registry, profiled_registry = MetricsRegistry(), MetricsRegistry()
        plain = run_broadcast_batch(net, algorithm, seeds=seeds,
                                    metrics=plain_registry)
        profiled, _ = profile_call(
            lambda: run_broadcast_batch(net, algorithm, seeds=seeds,
                                        metrics=profiled_registry)
        )
        assert [_result_key(r) for r in profiled] == [
            _result_key(r) for r in plain
        ]
        # The metric tallies survive profiling unchanged too.
        assert profiled_registry.to_dict() == plain_registry.to_dict()


class TestBatchedFlush:
    """The batched engine buffers collision observations until flush."""

    def _engine(self):
        from repro.sim.fast import BatchedFastEngine

        net = _net()
        registry = MetricsRegistry()
        return BatchedFastEngine(net, BGIBroadcast(net.r), seeds=[5, 6],
                                 metrics=registry), registry

    def test_manual_stepping_requires_flush(self):
        engine, registry = self._engine()
        for _ in range(4):
            engine.run_step()
        histogram = registry.histograms["collisions_per_slot"]
        assert histogram.total == 0  # buffered, not yet observed
        engine.flush_metrics()
        assert histogram.total == 8  # 4 slots x 2 active trials

    def test_flush_is_idempotent(self):
        engine, registry = self._engine()
        for _ in range(3):
            engine.run_step()
        engine.flush_metrics()
        snapshot = registry.to_dict()
        engine.flush_metrics()
        assert registry.to_dict() == snapshot

    def test_run_flushes_and_zeroes_the_gauge(self):
        engine, registry = self._engine()
        engine.run(max_steps=10_000)
        assert engine.all_settled
        assert registry.gauges["batch_active_trials"].value == 0
        slots = registry.counters["engine_slots"].value
        assert registry.histograms["collisions_per_slot"].total == slots


class TestTimings:
    def test_reference_engine_stage_names(self):
        net = path(8)
        metrics = MetricsRegistry()
        result = run_broadcast(net, RoundRobinBroadcast(net.r), seed=0,
                               metrics=metrics)
        stages = set(result.timings.stages)
        assert {"engine.actions", "engine.channel", "engine.step"} <= stages
        assert result.timings.count("engine.step") == result.time

    def test_fast_engine_stage_names(self):
        """The single-run array engine, ``macro``: one ``engine.step`` per
        executed slot, as on the reference engine."""
        net = path(8)
        result = run_broadcast(net, RoundRobinBroadcast(net.r), seed=0,
                               metrics=MetricsRegistry(), engine="macro")
        stages = set(result.timings.stages)
        assert {"engine.coins", "engine.channel", "engine.step"} <= stages
        assert result.timings.count("engine.step") == result.time

    def test_macro_timings_count_every_slot(self):
        # Timings and PROGRESS traces keep receiver-side resolution on CSR
        # topologies; every executed slot, silent or not, still ticks
        # engine.step and lands in the trace.
        net = gnp_random_csr(400, 10 / 400, seed=2)
        timings = Timings()
        result = run_broadcast(net, KnownRadiusKP(net.r, net.radius), seed=3,
                               timings=timings, trace_level=TraceLevel.PROGRESS,
                               engine="macro")
        reference = run_broadcast(net, KnownRadiusKP(net.r, net.radius), seed=3,
                                  trace_level=TraceLevel.PROGRESS)
        assert _result_key(result) == _result_key(reference)
        assert result.trace.informed_counts == reference.trace.informed_counts
        assert result.trace.wake_times == reference.trace.wake_times
        assert timings.count("engine.step") == result.time
        assert timings.count("engine.coins") == result.time

    def test_batch_shares_one_timings_object(self):
        net = path(8)
        results = run_broadcast_batch(net, RoundRobinBroadcast(net.r),
                                      seeds=[0, 1], metrics=MetricsRegistry())
        assert results[0].timings is results[1].timings

    def test_explicit_timings_without_metrics(self):
        net = path(8)
        timings = Timings()
        result = run_broadcast(net, RoundRobinBroadcast(net.r), seed=0,
                               timings=timings)
        assert result.timings is timings
        assert timings.count("engine.step") == result.time


class TestSerialization:
    def test_uninstrumented_result_has_no_timings_key(self):
        net = path(6)
        result = run_broadcast(net, RoundRobinBroadcast(net.r), seed=0)
        assert "timings" not in result_to_dict(result)

    def test_timings_round_trip(self):
        net = path(6)
        result = run_broadcast(net, RoundRobinBroadcast(net.r), seed=0,
                               metrics=MetricsRegistry())
        data = result_to_dict(result)
        assert "timings" in data
        clone = result_from_dict(data)
        assert clone.timings.to_dict() == result.timings.to_dict()
        assert _result_key(clone) == _result_key(result)
