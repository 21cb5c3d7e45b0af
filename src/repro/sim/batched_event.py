"""The ``event`` engine: adaptive trials as independent execution classes.

:class:`~repro.sim.event.EventDrivenEngine` makes one adaptive run cheap
by polling only the nodes whose ``quiet_until`` promise expired and
fast-forwarding provably silent slots.  This engine runs a call's seeds
on it: the trials are grouped into execution classes, and each class's
representative engine runs its own event loop to the step budget, one
class after another in class order.

Trial ``i`` is **slot-for-slot identical** to a reference run with seed
``seeds[i]`` — grouping is an execution strategy, never a semantic
variant (the conformance harness in ``tests/sim/conformance.py`` pins
this across the full engine x algorithm x topology x fault-plan matrix).

Two structural facts make the call cheaper than one engine per seed:

1. **Execution-class collapse.**  Trials differ only through their seeds,
   and a seed reaches an execution through exactly two doors: the
   per-node RNGs (:func:`~repro.sim.coins.derive_node_rng`) and the
   per-trial message-loss stream
   (:func:`~repro.sim.faults.derive_fault_seed`).  When the algorithm is
   :attr:`~repro.sim.protocol.BroadcastAlgorithm.deterministic` (never
   consults its RNG) and the fault plan has no loss component, *every*
   trial is provably the same execution — one representative run serves
   the whole call, with per-trial results replicated in O(1) and the
   metric tallies merged with multiplicity
   (:meth:`~repro.obs.metrics.MetricsRegistry.merge` with ``weight``).
   Otherwise trials are grouped by seed value: equal seeds are still
   provably identical, distinct seeds get genuinely independent runs.
   This mirrors the long-standing collapse in
   :func:`~repro.sim.run.repeat_broadcast` — same rule, same soundness
   argument — but keeps per-trial traces and counters available.

2. **Shared topology compilation.**  All classes resolve the channel
   through one :class:`~repro.sim.channel.ChannelKernel` (CSR arrays are
   compiled once per call); classes run one after another, so the
   kernel's scratch buffers are never shared concurrently.

Select via ``engine="event"`` on any driver (or let ``engine="auto"``
pick it for non-vectorisable algorithms); ``docs/PERFORMANCE.md`` covers
the cost model.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.timings import Timings
from .channel import ChannelKernel
from .errors import ConfigurationError, ProtocolViolationError
from .event import EventDrivenEngine
from .faults import FaultCounters, FaultPlan
from .network import RadioNetwork
from .protocol import BroadcastAlgorithm
from .trace import Trace, TraceLevel

__all__ = ["BatchedEventEngine"]


class _ExecutionClass:
    """One representative :class:`EventDrivenEngine` plus the trials it serves."""

    __slots__ = ("engine", "members", "metrics")

    def __init__(
        self,
        engine: EventDrivenEngine,
        members: list[int],
        metrics: MetricsRegistry | None,
    ):
        self.engine = engine
        self.members = members
        self.metrics = metrics


class BatchedEventEngine:
    """Run ``T`` adaptive trials as independent execution classes.

    Args:
        network: Topology (directed or undirected).
        algorithm: Any :class:`~repro.sim.protocol.BroadcastAlgorithm`
            (its protocol factory must be stateless, which every
            algorithm in the repo is — per-run state lives on the
            protocol instances the factory creates).
        seeds: One master seed per trial.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` applied to
            every trial; crashes, jams, and delays are identical across
            trials, the loss stream is keyed per trial seed — exactly the
            :class:`~repro.sim.macro.MacroStepEngine` union convention.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            Each execution class records into a private registry; after
            :meth:`run` the private registries are merged in with
            multiplicity = class size, so the shared registry holds
            exactly what ``T`` serial runs would have recorded in
            aggregate.
        timings: Optional :class:`~repro.obs.timings.Timings`, shared by
            every class (stage costs are joint across trials).
        trace_level: Channel detail to record; collapsed trials share
            their class's trace object (the executions are identical, so
            the records are too).
        collision_detection: Run the CD model variant in every trial.
    """

    def __init__(
        self,
        network: RadioNetwork,
        algorithm: BroadcastAlgorithm,
        seeds: Sequence[int],
        faults: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        timings: Timings | None = None,
        trace_level: TraceLevel = TraceLevel.NONE,
        collision_detection: bool = False,
    ):
        if len(seeds) < 1:
            raise ConfigurationError("need at least one trial seed")
        self.network = network
        self.algorithm = algorithm
        self.seeds = [int(s) for s in seeds]
        self.faults = faults
        self.metrics = metrics
        self._kernel = ChannelKernel(network)
        self._metrics_flushed = False
        self._classes: list[_ExecutionClass] = []
        for rep_seed, members in self._group_trials().items():
            private = MetricsRegistry() if metrics is not None else None
            engine = EventDrivenEngine(
                network,
                algorithm,
                seed=rep_seed,
                trace_level=trace_level,
                collision_detection=collision_detection,
                faults=faults,
                metrics=private,
                timings=timings,
                kernel=self._kernel,
            )
            self._classes.append(_ExecutionClass(engine, members, private))
        #: trial index -> its execution class (shared for collapsed trials).
        self._class_of: dict[int, _ExecutionClass] = {
            t: cls for cls in self._classes for t in cls.members
        }

    def _group_trials(self) -> dict[int, list[int]]:
        """Partition trial indices into provably-identical execution classes.

        Returns ``representative seed -> member trial indices``, in order
        of each class's lowest trial index.  The collapse-all rule
        requires ``algorithm.deterministic`` (the protocol never consults
        its RNG) and a loss-free plan (loss is the only fault stream keyed
        by the trial seed); it is the same condition
        :func:`~repro.sim.run.repeat_broadcast` has always used to run
        deterministic algorithms once.  Failing that, trials with equal
        seeds are still byte-identical executions and share a class.
        """
        deterministic = bool(getattr(self.algorithm, "deterministic", False))
        lossless = self.faults is None or self.faults.loss_probability == 0.0
        if deterministic and lossless:
            return {self.seeds[0]: list(range(len(self.seeds)))}
        groups: dict[int, list[int]] = {}
        for trial, seed in enumerate(self.seeds):
            groups.setdefault(seed, []).append(trial)
        return groups

    @property
    def execution_classes(self) -> int:
        """How many representative runs the call actually executes."""
        return len(self._classes)

    @property
    def all_informed(self) -> bool:
        return all(cls.engine.all_informed for cls in self._classes)

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run every class's own event loop to the budget, in class order.

        A :class:`~repro.sim.errors.ProtocolViolationError` aborts only
        its own class; the remaining classes still run, and the error of
        the lowest aborted trial index is re-raised — the same error a
        serial seed-order loop would have surfaced first.

        Returns the largest per-class slot count (compressed slots count:
        they *were* simulated, in one jump).  Each class's own run
        rejects a negative budget.
        """
        executed = 0
        errors: list[ProtocolViolationError] = []
        for cls in self._classes:
            try:
                slots = cls.engine.run(max_steps, stop_when_informed)
            except ProtocolViolationError as exc:
                errors.append(exc)
                continue
            executed = max(executed, slots)
        self._flush_metrics()
        if errors:
            raise errors[0]  # classes run in order of their lowest trial
        return executed

    def _flush_metrics(self) -> None:
        """Merge each class's private registry into the shared one, once.

        Counters and histogram tallies are folded in with multiplicity =
        class size, so the shared registry equals the aggregate of ``T``
        serial runs exactly.
        """
        if self.metrics is None or self._metrics_flushed:
            return
        self._metrics_flushed = True
        for cls in self._classes:
            self.metrics.merge(cls.metrics, weight=len(cls.members))

    # ------------------------------------------------------------------
    # Per-trial accessors (the driver's view), all O(1) per trial.

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before settling or the limit —
        the serial run's final ``engine.step``."""
        return self._class_of[trial].engine.step

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        return [
            self._class_of[t].engine.completion_time
            for t in range(len(self.seeds))
        ]

    def wake_times(self, trial: int) -> dict[int, int]:
        """Map informed labels of one trial to their wake slots."""
        return dict(self._class_of[trial].engine.wake_times)

    def trace_for(self, trial: int) -> Trace:
        """The trial's channel trace (collapsed trials share one object —
        their executions, hence their records, are identical)."""
        return self._class_of[trial].engine.trace

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its serial values."""
        counters = self._class_of[trial].engine.fault_counters
        return counters.snapshot() if counters is not None else None

    def transmission_counts(self, trial: int) -> list[int] | None:
        """Per-node transmission tallies of one trial (label order);
        ``None`` when the call ran uninstrumented."""
        return self._class_of[trial].engine.transmission_counts()
