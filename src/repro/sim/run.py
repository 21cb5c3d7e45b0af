"""High-level drivers: run one broadcast, or many for Monte-Carlo estimates.

These are the functions most users call::

    from repro import run_broadcast
    result = run_broadcast(network, algorithm, seed=7)
    print(result.time)

Each is a thin alias over :func:`~repro.sim.driver.simulate`:
:func:`run_broadcast` runs one seed, :func:`run_broadcast_batch` the
seeds it is given, and :func:`repeat_broadcast` the seeds
``base_seed + i``, or only the first of them when every seed gives the
same execution (:func:`~repro.sim.driver.seed_independent`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings

# Seed-derivation helpers: defined in repro.sim.coins (run.py sits above
# the engines in the import graph) and re-exported here as the canonical
# public location.  Every engine derives per-node randomness through these
# two functions; tests pin the exact streams.
from .coins import derive_node_rng, derive_trial_seeds
from .errors import ConfigurationError
from .faults import FaultCounters, FaultPlan
from .network import RadioNetwork
from .protocol import BroadcastAlgorithm
from .trace import Trace, TraceLevel

__all__ = [
    "BroadcastResult",
    "default_max_steps",
    "run_broadcast",
    "repeat_broadcast",
    "run_broadcast_batch",
    "derive_node_rng",
    "derive_trial_seeds",
]


def default_max_steps(network: RadioNetwork, algorithm: object) -> int:
    """The step-limit rule shared by every driver and engine.

    Prefers the algorithm's own ``max_steps_hint`` when it exists *and*
    returns one; falls back to ``64 * n * (log2(n) + 1)`` — comfortably
    above every upper bound proved in the paper.  ``getattr`` tolerance
    matters: duck-typed algorithms (e.g. objects implementing only the
    vectorised interface) need not subclass
    :class:`~repro.sim.protocol.BroadcastAlgorithm`, and the reference
    and fast paths must agree on the default either way.
    """
    hint = getattr(algorithm, "max_steps_hint", None)
    max_steps = hint(network.n, network.r) if hint is not None else None
    if max_steps is None:
        max_steps = 64 * network.n * (network.n.bit_length() + 1)
    return max_steps


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of a single broadcast execution.

    Attributes:
        completed: Whether every node was informed within the step limit.
        time: Broadcasting time in slots (the paper's measure), or the
            number of executed slots if incomplete.
        informed: How many nodes held the source message at the end.
        n: Network size.
        radius: The network's radius D.
        algorithm: Name of the algorithm that ran.
        seed: Seed used for this run.
        wake_times: label -> slot at which the node was informed
            (source: -1), for informed nodes only.  A read-only
            ``Mapping``: a ``dict`` from the per-node engines, a
            :class:`~repro.sim.macro.WakeTimes` (the labels and a copy of
            the wake row, no per-node Python objects) from the array
            engines.  Both compare equal whenever they hold the same
            pairs.
        layer_times: For each BFS layer j, the slot by which the whole
            layer was informed (index 0 is the source layer, always -1);
            ``None`` entries mark layers not fully informed.
        trace: Channel trace at the requested level of detail.
        fault_counters: What the fault plan did to this run
            (:class:`~repro.sim.faults.FaultCounters`); ``None`` when the
            run executed without a plan.
        timings: Wall-clock stage timings (:class:`~repro.obs.timings.Timings`)
            when the run was instrumented; ``None`` otherwise.  Results
            from one batched execution share a single ``Timings`` object —
            the batch ran as one array program, so its stage costs are
            joint, not per-trial.
    """

    completed: bool
    time: int
    informed: int
    n: int
    radius: int
    algorithm: str
    seed: int
    wake_times: Mapping[int, int] = field(repr=False, default_factory=dict)
    layer_times: tuple[int | None, ...] = field(repr=False, default=())
    trace: Trace = field(repr=False, default_factory=Trace)
    fault_counters: FaultCounters | None = field(repr=False, default=None)
    timings: Timings | None = field(repr=False, default=None)

    @property
    def slowdown_vs_radius(self) -> float:
        """Ratio of broadcasting time to the trivial lower bound D."""
        return self.time / max(1, self.radius)


def run_broadcast(
    network: RadioNetwork,
    algorithm: BroadcastAlgorithm,
    seed: int = 0,
    max_steps: int | None = None,
    trace_level: TraceLevel = TraceLevel.NONE,
    require_completion: bool = False,
    collision_detection: bool = False,
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
    engine: str = "reference",
    allow_large: bool = False,
) -> BroadcastResult:
    """Execute one broadcast and measure its time.

    A thin alias over :func:`~repro.sim.driver.simulate` with one seed;
    every argument means what it means there.  ``engine`` is any
    registered name (:data:`~repro.sim.driver.ENGINES`): ``"reference"``
    (the per-node :class:`~repro.sim.engine.SynchronousEngine`, the
    default), ``"event"`` (skips provably silent slots using protocols'
    :meth:`~repro.sim.protocol.Protocol.quiet_until` hints; the same
    engine that runs a call's many seeds), or, for
    oblivious algorithms, ``"macro"`` (the sparse macro-step engine).  All
    produce bit-identical results.

    Returns:
        A :class:`BroadcastResult`.
    """
    from .driver import simulate

    (result,) = simulate(
        network, algorithm, [seed], engine=engine, max_steps=max_steps,
        trace_level=trace_level, require_completion=require_completion,
        collision_detection=collision_detection, faults=faults,
        metrics=metrics, timings=timings, spans=spans, allow_large=allow_large,
    )
    return result


def repeat_broadcast(
    network: RadioNetwork,
    algorithm: BroadcastAlgorithm,
    runs: int,
    base_seed: int = 0,
    max_steps: int | None = None,
    require_completion: bool = True,
    engine: str = "auto",
    faults: FaultPlan | None = None,
    metrics: MetricsRegistry | None = None,
    timings: Timings | None = None,
    spans: SpanRecorder | None = None,
) -> list[BroadcastResult]:
    """Run the same broadcast ``runs`` times with seeds ``base_seed + i``.

    Used to estimate expected broadcasting time (Corollary 1) and its
    spread.  When every seed gives the same execution — a deterministic
    algorithm under a loss-free plan
    (:func:`~repro.sim.driver.seed_independent`) — only the first seed
    runs and one result is returned.

    A thin alias over :func:`~repro.sim.driver.simulate` with seeds
    ``derive_trial_seeds(base_seed, runs)``.  The default ``engine="auto"``
    runs the trials as batches: oblivious algorithms (anything
    implementing :class:`~repro.sim.protocol.VectorizedAlgorithm`) as macro
    unions of network copies, every other algorithm on the ``event``
    engine (:class:`~repro.sim.batched_event.BatchedEventEngine`).
    Any registered engine name forces that engine (e.g. ``"reference"``
    to benchmark the batch paths against the serial per-node engine);
    per-trial results are identical either way.
    """
    from .driver import seed_independent, simulate

    if runs < 1:
        raise ConfigurationError(f"runs must be positive, got {runs}")
    if seed_independent(algorithm, faults):
        runs = 1
    return simulate(
        network, algorithm, derive_trial_seeds(base_seed, runs), engine=engine,
        max_steps=max_steps, require_completion=require_completion,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
    )


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
    allow_large: bool = False,
) -> list[BroadcastResult]:
    """Run many Monte-Carlo trials of one broadcast as a single batch.

    A thin alias over :func:`~repro.sim.driver.simulate`: result ``i``
    is *identical* (per-node wake slots and fault counters included) to
    the serial run with seed ``seeds[i]`` — batching is purely an
    execution strategy, not a semantic variant.  ``engine="auto"`` (the
    default) picks ``"macro"`` (unions of trials on
    :class:`~repro.sim.macro.MacroStepEngine`, oblivious algorithms only)
    when the algorithm is vectorisable and ``"event"``
    (:class:`~repro.sim.batched_event.BatchedEventEngine`, any protocol;
    collision detection too) otherwise.

    ``seeds`` gives the per-trial master seeds explicitly; alternatively
    ``trials`` derives ``derive_trial_seeds(base_seed, trials)``
    (``base_seed + i``, the :func:`repeat_broadcast` convention).  Every
    other argument means what it means on
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
        allow_large=allow_large,
    )
