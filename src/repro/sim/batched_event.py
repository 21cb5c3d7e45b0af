"""Batched event-driven engine: Monte-Carlo trials with slot compression.

:class:`~repro.sim.event.EventDrivenEngine` makes one adaptive run cheap
by polling only the nodes whose ``quiet_until`` promise expired and
fast-forwarding provably silent slots; :class:`~repro.sim.macro.
MacroStepEngine` makes many *oblivious* trials cheap by running them as
one union of network copies.  This engine combines the two ideas for the
adaptive protocols the array engines cannot run: a batch of trials
advances on one shared clock, every trial keeps its own promise heap, and
whenever *all* trials are quiet the whole batch jumps to the minimum next
promise expiry (capped at :meth:`~repro.sim.faults.FaultPlan.event_slots`
boundaries and the step budget) in a single vectorised fast-forward,
synthesizing the skipped slots into metrics, traces, and step hooks
exactly as slot-by-slot execution would have.

Trial ``i`` of a batch is **slot-for-slot identical** to a serial
``EventDrivenEngine`` run with seed ``seeds[i]`` — batching is an
execution strategy, never a semantic variant (the conformance harness in
``tests/sim/conformance.py`` pins this across the full engine x algorithm
x topology x fault-plan matrix).

Two structural facts make the batch fast rather than merely T serial
loops glued together:

1. **Execution-class collapse.**  Trials differ only through their seeds,
   and a seed reaches an execution through exactly two doors: the
   per-node RNGs (:func:`~repro.sim.coins.derive_node_rng`) and the
   per-trial message-loss stream
   (:func:`~repro.sim.faults.derive_fault_seed`).  When the algorithm is
   :attr:`~repro.sim.protocol.BroadcastAlgorithm.deterministic` (never
   consults its RNG) and the fault plan has no loss component, *every*
   trial is provably the same execution — one representative run serves
   the whole batch, with per-trial results replicated in O(1) and the
   metric tallies merged with multiplicity
   (:meth:`~repro.obs.metrics.MetricsRegistry.merge` with ``weight``).
   Otherwise trials are grouped by seed value: equal seeds are still
   provably identical, distinct seeds get genuinely independent runs.
   This mirrors the long-standing collapse in
   :func:`~repro.sim.run.repeat_broadcast` — same rule, same soundness
   argument — but keeps per-trial traces, hooks, and counters available.

2. **Shared topology compilation.**  All classes resolve the channel
   through one :class:`~repro.sim.channel.ChannelKernel` (CSR arrays are
   compiled once per batch); classes are stepped sequentially within a
   slot, so the kernel's scratch buffers are never shared concurrently.

Select via ``run_broadcast_batch(..., engine="batched_event")`` (or let
``engine="auto"`` pick it for non-vectorisable algorithms);
``docs/PERFORMANCE.md`` covers the cost model, including the worst case
when desynchronised classes deny the batch-wide jump.
"""

from __future__ import annotations

from typing import Callable, Sequence

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

StepHook = Callable[[int, tuple[int, ...]], None]


class _ExecutionClass:
    """One representative :class:`EventDrivenEngine` plus the trials it serves."""

    __slots__ = ("engine", "members", "metrics", "error")

    def __init__(
        self,
        engine: EventDrivenEngine,
        members: list[int],
        metrics: MetricsRegistry | None,
    ):
        self.engine = engine
        self.members = members
        self.metrics = metrics
        self.error: ProtocolViolationError | None = None


def _fan_out_hook(
    members: Sequence[int], step_hooks: Sequence[StepHook | None]
) -> StepHook | None:
    """One engine-side hook that replays the slot to every member trial's
    hook, in trial order — for executed and synthesized slots alike."""
    hooks = [step_hooks[t] for t in members if step_hooks[t] is not None]
    if not hooks:
        return None

    def hook(step: int, transmitters: tuple[int, ...]) -> None:
        for member_hook in hooks:
            member_hook(step, transmitters)

    return hook


class BatchedEventEngine:
    """Run ``T`` adaptive Monte-Carlo trials on one shared, compressed clock.

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
            the run the private registries are merged in with
            multiplicity = class size, so the shared registry holds
            exactly what ``T`` serial event-engine runs would have
            recorded in aggregate (call :meth:`flush_metrics`, or use
            :meth:`run`, which does).
        timings: Optional :class:`~repro.obs.timings.Timings`, shared by
            the whole batch (stage costs are joint across trials).
        trace_level: Channel detail to record; collapsed trials share
            their class's trace object (the executions are identical, so
            the records are too).
        collision_detection: Run the CD model variant in every trial.
        step_hooks: Optional per-trial ``(step, transmitters)`` callbacks,
            one entry per trial (``None`` entries allowed).  Trial ``i``'s
            hook sees exactly the stream a serial run would produce,
            synthesized slots included.
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
        step_hooks: Sequence[StepHook | None] | None = None,
    ):
        if len(seeds) < 1:
            raise ConfigurationError("need at least one trial seed")
        self.network = network
        self.algorithm = algorithm
        self.seeds = [int(s) for s in seeds]
        self.trials = len(self.seeds)
        if step_hooks is not None and len(step_hooks) != self.trials:
            raise ConfigurationError(
                f"step_hooks has {len(step_hooks)} entries for "
                f"{self.trials} trials"
            )
        self.faults = faults
        self.metrics = metrics
        self.timings = timings
        self._kernel = ChannelKernel(network)
        self._metrics_flushed = False
        self._classes: list[_ExecutionClass] = []
        for rep_seed, members in self._group_trials().items():
            private = MetricsRegistry() if metrics is not None else None
            hook = (
                _fan_out_hook(members, step_hooks)
                if step_hooks is not None
                else None
            )
            engine = EventDrivenEngine(
                network,
                algorithm,
                seed=rep_seed,
                trace_level=trace_level,
                step_hook=hook,
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

        Returns ``representative seed -> member trial indices``.  The
        collapse-all rule requires ``algorithm.deterministic`` (the
        protocol never consults its RNG) and a loss-free plan (loss is
        the only fault stream keyed by the trial seed); it is the same
        condition :func:`~repro.sim.run.repeat_broadcast` has always used
        to run deterministic algorithms once.  Failing that, trials with
        equal seeds are still byte-identical executions and share a class.
        """
        deterministic = bool(getattr(self.algorithm, "deterministic", False))
        lossless = self.faults is None or self.faults.loss_probability == 0.0
        if deterministic and lossless:
            return {self.seeds[0]: list(range(self.trials))}
        groups: dict[int, list[int]] = {}
        for trial, seed in enumerate(self.seeds):
            groups.setdefault(seed, []).append(trial)
        return groups

    # ------------------------------------------------------------------
    # Batch-level state.

    @property
    def execution_classes(self) -> int:
        """How many representative runs the batch actually executes."""
        return len(self._classes)

    @property
    def trials_settled(self) -> list[bool]:
        """Per-trial: no further wake possible (informed or dead asleep)."""
        return [self._class_of[t].engine.all_settled for t in range(self.trials)]

    @property
    def all_settled(self) -> bool:
        return all(cls.engine.all_settled for cls in self._classes)

    @property
    def all_informed(self) -> bool:
        return all(cls.engine.all_informed for cls in self._classes)

    def informed_counts(self) -> list[int]:
        return [
            self._class_of[t].engine.informed_count for t in range(self.trials)
        ]

    # ------------------------------------------------------------------

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Advance every unsettled trial on the shared clock.

        Per iteration each live class reports its next event slot — the
        earliest promise expiry from its heap, capped at the next
        scheduled fault slot.  If the minimum over classes lies in the
        future, **all** live classes fast-forward there in one jump
        (``_skip_silent`` synthesizes the skipped slots per trial);
        otherwise due classes execute the slot and quiet ones synthesize
        it, keeping every live engine on the same clock.  Settled classes
        freeze exactly where their serial runs would have stopped.  Once a
        single class is live there is no clock left to share: that
        class's own :meth:`EventDrivenEngine.run` finishes the budget.

        A :class:`~repro.sim.errors.ProtocolViolationError` aborts only
        its own class; the remaining classes run to completion, and the
        error of the lowest aborted trial index is re-raised — the same
        error a serial seed-order loop would have surfaced first.

        Returns the number of shared-clock slots executed (synthesized
        slots count: they *were* simulated, in one jump).
        """
        if max_steps < 0:
            raise ConfigurationError(
                f"max_steps must be non-negative, got {max_steps}"
            )
        executed = 0
        while executed < max_steps:
            live = [
                cls
                for cls in self._classes
                if cls.error is None
                and not (stop_when_informed and cls.engine.all_settled)
            ]
            if not live:
                break
            if len(live) == 1:
                # One class left (every deterministic batch, and the tail
                # of a randomized one): its own event loop runs the rest
                # of the budget under the same stop rule, with no
                # shared clock to keep aligned.
                cls = live[0]
                try:
                    executed += cls.engine.run(max_steps - executed, stop_when_informed)
                except ProtocolViolationError as exc:
                    cls.error = exc
                break
            # Invariant: live engines share one clock — they all started at
            # slot 0 and advance in lock-step below; only settled or
            # aborted classes fall behind, frozen at their stopping slot.
            step = live[0].engine.step
            target = step + (max_steps - executed)
            next_events = []
            for cls in live:
                engine = cls.engine
                upcoming = engine._next_poll_slot()
                if engine._fault_events:
                    fault_slot = engine._next_fault_slot(step)
                    if fault_slot < upcoming:
                        upcoming = fault_slot
                next_events.append(upcoming)
                if upcoming < target:
                    target = upcoming
            if target > step:
                # Batch-wide fast-forward: every live trial is quiet until
                # ``target`` (and no fault event lands before it), so the
                # whole batch jumps in one step.
                jump = target - step
                for cls in live:
                    cls.engine._skip_silent(jump)
                executed += jump
                continue
            for cls, upcoming in zip(live, next_events):
                if upcoming > step:
                    # This class is quiet this slot but another one is not;
                    # synthesize the slot to keep the shared clock aligned.
                    # Chunked single-slot skips produce byte-identical
                    # instrumentation to one large jump.
                    cls.engine._skip_silent(1)
                    continue
                try:
                    cls.engine.run_step()
                except ProtocolViolationError as exc:
                    cls.error = exc
            executed += 1
        self.flush_metrics()
        first_failed = min(
            (cls for cls in self._classes if cls.error is not None),
            key=lambda cls: cls.members[0],
            default=None,
        )
        if first_failed is not None:
            raise first_failed.error
        return executed

    def flush_metrics(self) -> None:
        """Merge each class's private registry into the shared one.

        Counters and histogram tallies are folded in with multiplicity =
        class size, so the shared registry equals the aggregate of ``T``
        serial event-engine runs exactly.  One-shot (the class registries
        are consumed); :meth:`run` calls it, manual steppers must call it
        before snapshotting.  Also sets ``batch_active_trials`` to the
        current unsettled count.
        """
        if self.metrics is None or self._metrics_flushed:
            return
        self._metrics_flushed = True
        for cls in self._classes:
            self.metrics.merge(cls.metrics, weight=len(cls.members))
        self.metrics.gauge("batch_active_trials").set(
            sum(
                len(cls.members)
                for cls in self._classes
                if not cls.engine.all_settled
            )
        )

    # ------------------------------------------------------------------
    # Per-trial accessors (the driver's view), all O(1) per trial.

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before settling or the limit —
        the serial run's final ``engine.step``."""
        return self._class_of[trial].engine.step

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        return [
            self._class_of[t].engine.completion_time for t in range(self.trials)
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
        ``None`` when the batch ran uninstrumented."""
        return self._class_of[trial].engine.transmission_counts()

    def error_for(self, trial: int) -> ProtocolViolationError | None:
        """The violation that aborted this trial's class, if any."""
        return self._class_of[trial].error
