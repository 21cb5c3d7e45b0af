"""The engine registry and the one driver on top of it.

Three engines execute the same synchronous radio semantics (the
conformance suite holds them to bit-identical results); they differ only
in execution strategy and in what they can run.  :data:`ENGINES` names
them and records the capabilities the driver checks; :func:`simulate`
runs any of them by name::

    from repro.sim import simulate
    results = simulate(network, algorithm, seeds=[0, 1, 2], engine="auto")

Every public driver (:func:`~repro.sim.run.run_broadcast`,
:func:`~repro.sim.run.repeat_broadcast`,
:func:`~repro.sim.run.run_broadcast_batch`,
:func:`~repro.sim.macro.run_broadcast_macro`) is a thin alias over
:func:`simulate`, so the step limit, the memory guard, span wrapping,
result assembly and the execution-class collapse each happen in exactly
one place.

**Execution-class collapse.**  A seed reaches an execution through
exactly two doors: the per-node RNGs
(:func:`~repro.sim.coins.derive_node_rng`) and the per-trial
message-loss stream (:func:`~repro.sim.faults.derive_fault_seed`).  When
the algorithm is deterministic and the fault plan has no loss component
(:func:`seed_independent`), every seed of a call gives the same
execution, so :func:`simulate` runs the first seed once, on whichever
engine was asked for, and returns one copy of that result per seed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry, SLOT_BUCKETS
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .batched_event import BatchedEventEngine
from .engine import SynchronousEngine
from .errors import BroadcastIncompleteError, ConfigurationError
from .faults import FaultPlan
from .guard import check_memory_budget, large_memory_allowed
from .macro import ASLEEP, MacroStepEngine, WakeTimes
from .protocol import VectorizedAlgorithm, _check_vectorized
from .run import BroadcastResult, default_max_steps
from .trace import TraceLevel

__all__ = [
    "ENGINES",
    "EngineSpec",
    "UNION_NODE_LIMIT",
    "seed_independent",
    "simulate",
]

#: Node copies per ``macro`` union: a call's seeds run in unions of
#: ``max(1, UNION_NODE_LIMIT // n)`` trials, so from n = 2**16 on every
#: seed runs alone.  KP on G(n, 12/n), one 16-seed union against 16
#: one-seed runs (2-vCPU x86-64 VM, best of 5): 3.3x as fast at
#: n = 1024 and 1.9x at 4096, a tie at 16384 (2**18 copies) and 0.74x
#: at 65536 (2**20 copies), where the union's per-slot bincounts and
#: gathers over all its copies outweigh the per-run overhead it saves.
#: At 2**16 copies (n = 16384, 4 seeds) the union still ran 1.27x.
UNION_NODE_LIMIT = 1 << 16


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine and the capabilities :func:`simulate` checks.

    Attributes:
        name: Registry key (the ``engine=`` argument of every driver).
        engine_cls: The engine class (or a ``partial`` of it binding
            engine-specific parameters, such as the macro engine's block
            size).  Serial engines are constructed as
            ``engine_cls(network, algorithm, seed=..., ...)``, batch
            engines as ``engine_cls(network, algorithm, seeds, ...)``.
        oblivious_only: Runs only
            :class:`~repro.sim.protocol.VectorizedAlgorithm` schedules.
        batch: Runs many seeds in one engine instance (one ``batch[T]``
            span per instance) — all of them, or for ``macro`` unions of
            up to :data:`UNION_NODE_LIMIT` node copies; serial engines
            run one instance per seed.
        collision_detection: Supports the collision-detection variant.
        needs_adjacency: Reads per-node neighbour maps, so CSR-native
            topologies are converted with ``to_radio_network()`` first.
    """

    name: str
    engine_cls: Callable[..., object]
    oblivious_only: bool = False
    batch: bool = False
    collision_detection: bool = False
    needs_adjacency: bool = False


#: Every engine in the repo, by name.
ENGINES: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec("reference", SynchronousEngine, collision_detection=True,
                   needs_adjacency=True),
        EngineSpec("event", BatchedEventEngine, batch=True,
                   collision_detection=True, needs_adjacency=True),
        EngineSpec("macro", MacroStepEngine, oblivious_only=True, batch=True),
    )
}


def seed_independent(algorithm, faults: FaultPlan | None) -> bool:
    """Whether every seed gives ``algorithm`` the same execution under
    ``faults``: the algorithm declares itself ``deterministic`` (its
    protocols never consult their RNG; an algorithm without the
    attribute counts as randomized) and the plan loses no messages (loss
    is the only fault stream keyed by the trial seed)."""
    return bool(getattr(algorithm, "deterministic", False)) and (
        faults is None or faults.loss_probability == 0.0
    )


def _resolve_engine(engine: str | EngineSpec, algorithm) -> EngineSpec:
    """Registry lookup; ``"auto"`` picks the batch engine that can run
    ``algorithm`` — macro unions for oblivious schedules, the event
    engine for everything else."""
    if isinstance(engine, EngineSpec):
        return engine
    if engine == "auto":
        engine = (
            "macro" if isinstance(algorithm, VectorizedAlgorithm) else "event"
        )
    spec = ENGINES.get(engine)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'auto' or one of "
            f"{', '.join(repr(name) for name in ENGINES)}"
        )
    return spec


def simulate(
    network,
    algorithm,
    seeds: Sequence[int],
    engine: str | EngineSpec = "auto",
    max_steps: int | None = None,
    trace_level: TraceLevel = TraceLevel.NONE,
    require_completion: bool = False,
    collision_detection: bool = False,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    allow_large: bool = False,
) -> list[BroadcastResult]:
    """Run one broadcast per seed on a registered engine.

    Result ``i`` is the execution with master seed ``seeds[i]``; it is
    identical on every engine that can run ``algorithm`` (asserted by the
    conformance suite), so ``engine`` only chooses the execution strategy.
    When :func:`seed_independent` holds, the first seed runs once and its
    result is returned once per seed, each copy carrying its own seed
    (the copies share the wake-time mapping and the trace); ``metrics``
    then receives that run's tallies with multiplicity ``len(seeds)``,
    exactly what one run per seed would have recorded.

    Args:
        network: Topology — a :class:`~repro.sim.network.RadioNetwork` or
            a CSR-native :class:`~repro.topology.csr.CSRNetwork` (converted
            for the engines that need per-node adjacency).
        algorithm: The broadcasting algorithm; oblivious-only engines
            require a :class:`~repro.sim.protocol.VectorizedAlgorithm`.
        seeds: Per-trial master seeds, at least one.
        engine: A name in :data:`ENGINES`, or ``"auto"``: ``macro`` for
            vectorisable algorithms, ``event`` otherwise.  An
            :class:`EngineSpec` is accepted too (a registry entry whose
            ``engine_cls`` binds engine-specific parameters).
        max_steps: Step limit per trial, non-negative.  Defaults to
            :func:`~repro.sim.run.default_max_steps`.
        trace_level: Channel detail to record (identical records on every
            engine).
        require_completion: Raise
            :class:`~repro.sim.errors.BroadcastIncompleteError` carrying
            the first incomplete result instead of returning it.
        collision_detection: The collision-detection model variant.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` applied to
            every trial (the loss stream is keyed per trial seed).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving the engines' per-slot counters and one per-run
            summary per trial.
        timings: Optional :class:`~repro.obs.timings.Timings` shared by
            every trial; defaults to a fresh one when ``metrics`` or
            ``spans`` is given.
        spans: Optional :class:`~repro.obs.spans.SpanRecorder`: one
            ``trial[seed]`` span per serial run, one ``batch[T]`` span per
            batch engine instance, each with synthetic ``engine.*`` stage
            children.
        allow_large: Skip the memory guards: the dense-metrics estimate
            (:func:`~repro.sim.guard.check_memory_budget`) and the FULL
            trace's byte budget (:class:`~repro.sim.guard.TraceBudget`).

    Returns:
        One :class:`~repro.sim.run.BroadcastResult` per seed, in order.
    """
    spec = _resolve_engine(engine, algorithm)
    if spec.oblivious_only:
        _check_vectorized(algorithm)
    if collision_detection and not spec.collision_detection:
        raise ConfigurationError(
            f"engine {spec.name!r} does not support collision detection"
        )
    if spec.needs_adjacency and hasattr(network, "to_radio_network"):
        network = network.to_radio_network()
    if max_steps is None:
        max_steps = default_max_steps(network, algorithm)
    if max_steps < 0:
        raise ConfigurationError(f"max_steps must be non-negative, got {max_steps}")
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ConfigurationError("need at least one trial seed")
    if len(seeds) > 1 and seed_independent(algorithm, faults):
        private = MetricsRegistry() if metrics is not None else None
        (result,) = simulate(
            network, algorithm, seeds[:1], engine=spec, max_steps=max_steps,
            trace_level=trace_level, require_completion=require_completion,
            collision_detection=collision_detection, faults=faults,
            metrics=private, timings=timings, spans=spans,
            allow_large=allow_large,
        )
        if metrics is not None:
            metrics.merge(private, weight=len(seeds))
        return [replace(result, seed=seed) for seed in seeds]
    groups = _seed_groups(spec, network.n, seeds)
    check_memory_budget(
        network.n, trials=max(map(len, groups)),
        dense_metrics=metrics is not None, allow_large=allow_large,
    )
    if timings is None and (metrics is not None or spans is not None):
        timings = Timings()
    kwargs = dict(faults=faults, metrics=metrics, timings=timings,
                  trace_level=trace_level)
    if spec.collision_detection:
        kwargs["collision_detection"] = collision_detection
    results: list[BroadcastResult] = []
    # The FULL-trace byte budget is charged inside the engines, as they run.
    with large_memory_allowed(allow_large):
        for run_seeds in groups:
            if spec.batch:
                engine_obj = spec.engine_cls(network, algorithm, run_seeds, **kwargs)
                span_name = f"batch[{len(run_seeds)}]"
                span_attrs = {"trials": len(run_seeds)}
            else:
                engine_obj = spec.engine_cls(
                    network, algorithm, seed=run_seeds[0], **kwargs
                )
                span_name = f"trial[{run_seeds[0]}]"
                span_attrs = {"seed": run_seeds[0]}
            with (
                spans.trial_span(
                    span_name, timings, **span_attrs,
                    algorithm=algorithm.name, n=network.n,
                )
                if spans is not None
                else nullcontext()
            ) as span:
                engine_obj.run(max_steps)
                if span is not None:
                    span.attrs["completed"] = engine_obj.all_informed
            view = engine_obj if spec.batch else _SingleRun(engine_obj)
            for result in _assemble_results(network, algorithm, view, run_seeds,
                                            timings, metrics):
                if require_completion and not result.completed:
                    raise BroadcastIncompleteError(
                        f"{algorithm.name} informed {result.informed}/{network.n} "
                        f"nodes within {max_steps} steps (seed {result.seed})",
                        result=result,
                    )
                results.append(result)
    return results


def _seed_groups(spec: EngineSpec, n: int, seeds: list[int]) -> list[list[int]]:
    """The seeds of each engine instance: one per serial run, all of them
    for the event engine, and unions of at most :data:`UNION_NODE_LIMIT`
    node copies (at least one seed) for the oblivious array engine."""
    if not spec.batch:
        return [[seed] for seed in seeds]
    if not spec.oblivious_only:
        return [seeds]
    per_union = max(1, UNION_NODE_LIMIT // n)
    return [seeds[i:i + per_union] for i in range(0, len(seeds), per_union)]


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------


class _SingleRun:
    """The reference engine's single run seen through the batch engines'
    per-trial accessors, so :func:`_assemble_results` speaks one
    vocabulary."""

    def __init__(self, engine):
        self._engine = engine

    def completion_times(self) -> list[int | None]:
        return [self._engine.completion_time]

    def trial_steps(self, trial: int) -> int:
        return self._engine.step

    def wake_times(self, trial: int) -> Mapping[int, int]:
        return dict(self._engine.wake_times)

    def trace_for(self, trial: int):
        return self._engine.trace

    def fault_counters_for(self, trial: int):
        counters = getattr(self._engine, "fault_counters", None)
        return counters.snapshot() if counters is not None else None

    def transmission_counts(self, trial: int):
        return self._engine.transmission_counts()


def _assemble_results(network, algorithm, engine, seeds, timings, metrics):
    """One :class:`BroadcastResult` per trial of a finished engine, with
    the per-run summary metrics recorded as each is built."""
    times = engine.completion_times()
    results = []
    tx_counts = []
    for t, seed in enumerate(seeds):
        wake_times = engine.wake_times(t)
        completed = times[t] is not None
        result = BroadcastResult(
            completed=completed,
            time=times[t] if completed else engine.trial_steps(t),
            informed=len(wake_times),
            n=network.n,
            radius=network.radius,
            algorithm=algorithm.name,
            seed=seed,
            wake_times=wake_times,
            layer_times=_layer_times_for(network, wake_times),
            trace=engine.trace_for(t),
            fault_counters=engine.fault_counters_for(t),
            timings=timings,
        )
        if metrics is not None:
            _record_result_metrics(metrics, result)
            counts = engine.transmission_counts(t)
            if counts is not None:
                tx_counts.append(counts)
        results.append(result)
    if tx_counts:
        # One observation per node and run, all runs at once (a histogram
        # does not depend on observation order).
        metrics.histogram("transmissions_per_node", COUNT_BUCKETS).observe_many(
            np.concatenate(tx_counts)
        )
    return results


def _layer_times_for(network, wake_times) -> tuple[int | None, ...]:
    """For each BFS layer, the slot by which all of it was informed
    (``None``: not fully informed).

    The per-node engines' dicts walk ``network.layers()``.  The array
    engines' :class:`~repro.sim.macro.WakeTimes` are read as arrays: per
    layer through the flat depth array when the network carries one
    (CSR-native topologies; node order == label order), else through
    the layers' label positions.
    """
    if not isinstance(wake_times, WakeTimes):
        return tuple(
            max(wake_times[v] for v in layer)
            if all(v in wake_times for v in layer)
            else None
            for layer in network.layers()
        )
    wake_steps = wake_times.wake_steps
    depths_fn = getattr(network, "depths_array", None)
    if depths_fn is None:
        # A layer's latest slot is ASLEEP exactly when one of it sleeps.
        layers = network.layers()
        lengths = np.array([len(layer) for layer in layers])
        slots = wake_steps[np.searchsorted(wake_times.labels, np.concatenate(layers))]
        latest = np.maximum.reduceat(slots, np.cumsum(lengths) - lengths)
        return tuple(None if t == ASLEEP else t for t in latest.tolist())
    depths = depths_fn()
    num_layers = int(depths.max()) + 1
    totals = np.bincount(depths, minlength=num_layers)
    informed = wake_steps != ASLEEP
    informed_depths = depths[informed]
    settled = np.bincount(informed_depths, minlength=num_layers)
    latest = np.full(num_layers, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(latest, informed_depths, wake_steps[informed])
    return tuple(
        int(latest[j]) if settled[j] == totals[j] else None
        for j in range(num_layers)
    )


def _record_result_metrics(metrics: MetricsRegistry, result: BroadcastResult) -> None:
    """Driver-level metric observations for one finished run.

    The per-slot engine counters (``engine_*``) are incremented by the
    engines themselves; this records the per-*run* summary metrics the
    canonical registry exposes (names documented in
    ``docs/OBSERVABILITY.md``), except ``transmissions_per_node``, which
    :func:`_assemble_results` observes for all of an engine's runs at once.
    """
    metrics.counter("runs_total").inc()
    if result.completed:
        metrics.counter("runs_completed").inc()
    metrics.histogram("slots_to_completion", SLOT_BUCKETS).observe(result.time)
    counters = result.fault_counters
    if counters is not None:
        metrics.counter("faults_crashed_nodes").inc(counters.crashed_nodes)
        metrics.counter("faults_jammed_slots").inc(counters.jammed_slots)
        metrics.counter("faults_lost_messages").inc(counters.lost_messages)
        metrics.counter("faults_delayed_wakes").inc(counters.delayed_wakes)
