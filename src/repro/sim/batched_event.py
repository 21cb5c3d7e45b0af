"""The ``event`` engine: a call's seeds as one event-driven run each.

:class:`~repro.sim.event.EventDrivenEngine` makes one adaptive run cheap
by polling only the nodes whose ``quiet_until`` promise expired and
fast-forwarding provably silent slots.  This engine runs a call's seeds
on it, one :class:`~repro.sim.event.EventDrivenEngine` per seed, one
after another in seed order.  Trial ``i`` is **slot-for-slot identical**
to a reference run with seed ``seeds[i]`` (the conformance harness in
``tests/sim/conformance.py`` pins this across the full engine x
algorithm x topology x fault-plan matrix).

The runs share one :class:`~repro.sim.channel.ChannelKernel`, so the
topology's CSR arrays are compiled once per call; the runs never
overlap, so the kernel's scratch buffers are never shared concurrently.
A call whose seeds all give the same execution (a deterministic
algorithm, no message loss) reaches this engine with one seed: the
collapse lives in :func:`~repro.sim.driver.simulate`, for every engine.

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


class BatchedEventEngine:
    """Run ``T`` adaptive trials, one event-driven engine per seed.

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
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            shared by every trial, as it is by serial runs.
        timings: Optional :class:`~repro.obs.timings.Timings`, shared by
            every trial (stage costs are joint across trials).
        trace_level: Channel detail to record, per trial.
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
        kernel = ChannelKernel(network)
        self._engines = [
            EventDrivenEngine(
                network,
                algorithm,
                seed=int(seed),
                trace_level=trace_level,
                collision_detection=collision_detection,
                faults=faults,
                metrics=metrics,
                timings=timings,
                kernel=kernel,
            )
            for seed in seeds
        ]

    @property
    def all_informed(self) -> bool:
        return all(engine.all_informed for engine in self._engines)

    def run(self, max_steps: int, stop_when_informed: bool = True) -> int:
        """Run every trial's own event loop to the budget, in seed order.

        A :class:`~repro.sim.errors.ProtocolViolationError` aborts only
        its own trial; the later trials still run, and the first trial's
        violation is re-raised — the error a serial seed-order loop
        would have surfaced.

        Returns the largest per-trial slot count (compressed slots count:
        they *were* simulated, in one jump).  Each trial's own run
        rejects a negative budget.
        """
        executed = 0
        error: ProtocolViolationError | None = None
        for engine in self._engines:
            try:
                executed = max(executed, engine.run(max_steps, stop_when_informed))
            except ProtocolViolationError as exc:
                error = error or exc
        if error is not None:
            raise error
        return executed

    # ------------------------------------------------------------------
    # Per-trial accessors (the driver's view), all O(1) per trial.

    def trial_steps(self, trial: int) -> int:
        """Slots trial ``trial`` executed before settling or the limit —
        the serial run's final ``engine.step``."""
        return self._engines[trial].step

    def completion_times(self) -> list[int | None]:
        """Per-trial broadcasting times; ``None`` for incomplete trials."""
        return [engine.completion_time for engine in self._engines]

    def wake_times(self, trial: int) -> dict[int, int]:
        """Map informed labels of one trial to their wake slots."""
        return dict(self._engines[trial].wake_times)

    def trace_for(self, trial: int) -> Trace:
        """The trial's channel trace."""
        return self._engines[trial].trace

    def fault_counters_for(self, trial: int) -> FaultCounters | None:
        """Fault tallies of one trial, identical to its serial values."""
        counters = self._engines[trial].fault_counters
        return counters.snapshot() if counters is not None else None

    def transmission_counts(self, trial: int) -> list[int] | None:
        """Per-node transmission tallies of one trial (label order);
        ``None`` when the call ran uninstrumented."""
        return self._engines[trial].transmission_counts()
