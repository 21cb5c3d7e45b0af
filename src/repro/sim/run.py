"""High-level drivers: run one broadcast, or many for Monte-Carlo estimates.

These are the functions most users call::

    from repro import run_broadcast
    result = run_broadcast(network, algorithm, seed=7)
    print(result.time)
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

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
            :class:`~repro.sim.fast.WakeTimes` (the labels and a copy of
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
    spread.  Deterministic algorithms are detected and run only once — all
    repetitions would be identical.  (Under a lossy fault plan even a
    deterministic algorithm's trials differ — the loss stream is keyed by
    the trial seed — so the collapse only applies when loss is off.)

    A thin alias over :func:`~repro.sim.driver.simulate` with seeds
    ``derive_trial_seeds(base_seed, runs)``.  The default ``engine="auto"``
    runs the trials as batches: oblivious algorithms (anything
    implementing :class:`~repro.sim.fast.VectorizedAlgorithm`) as macro
    unions of network copies, every other algorithm on the ``event``
    engine (:class:`~repro.sim.batched_event.BatchedEventEngine`).
    Any registered engine name forces that engine (e.g. ``"reference"``
    to benchmark the batch paths against the serial per-node engine);
    per-trial results are identical either way.
    """
    from .driver import simulate

    if runs < 1:
        raise ConfigurationError(f"runs must be positive, got {runs}")
    if algorithm.deterministic and (faults is None or faults.loss_probability == 0.0):
        runs = 1
    return simulate(
        network, algorithm, derive_trial_seeds(base_seed, runs), engine=engine,
        max_steps=max_steps, require_completion=require_completion,
        faults=faults, metrics=metrics, timings=timings, spans=spans,
    )
