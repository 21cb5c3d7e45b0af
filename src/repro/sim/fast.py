"""The array engines' shared interface for *oblivious* algorithms.

Both randomized algorithms studied in the paper — the Kowalski–Pelc stage
algorithm and BGI Decay — as well as the round-robin and selective-family
deterministic baselines are *oblivious*: a node's decision to transmit in
slot ``t`` depends only on ``(t, label, wake slot, coin flips)``, never on
received message contents.  Such algorithms run on the macro-step engine
(:class:`~repro.sim.macro.MacroStepEngine`), one trial or a union of many,
which makes the large parameter sweeps of EXPERIMENTS.md feasible in pure
Python.

This module holds what that engine and its callers share: the vectorised
interface (:class:`VectorizedAlgorithm`), the read-only wake-slot mapping
its results carry (:class:`WakeTimes`), and :func:`run_broadcast_batch`,
the Monte-Carlo driver alias.

*Adaptive* algorithms — the paper's token algorithms, whose decisions do
depend on message contents — cannot be vectorised this way, but they have
their own fast path: the event-driven engine in :mod:`repro.sim.event`,
driven by ``Protocol.quiet_until`` idle hints.  Every engine resolves the
channel from the same precompiled topology,
:class:`repro.sim.channel.ChannelKernel`.

Semantics are identical to :class:`repro.sim.engine.SynchronousEngine`
(verified per-node, per-slot by ``tests/sim/test_conformance.py``):
exactly-one reception, half-duplex, no spontaneous transmissions, nodes
woken in slot ``t`` first act in ``t + 1``, and — because transmission
coins are slot-indexed and derived from the same
:mod:`repro.sim.coins` helpers all engines share — the *same coin flips*
for the same ``(seed, label, step)``.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, ValuesView
from typing import Protocol as TypingProtocol, Sequence, runtime_checkable

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.timings import Timings
from .coins import CoinSource, derive_trial_seeds
from .errors import ConfigurationError
from .faults import FaultPlan
from .network import RadioNetwork
from .run import BroadcastResult
from .trace import TraceLevel

__all__ = [
    "VectorizedAlgorithm",
    "run_broadcast_batch",
    "ASLEEP",
    "WakeTimes",
]

#: Sentinel wake step for nodes that are not informed yet.
ASLEEP: int = np.iinfo(np.int64).max


@runtime_checkable
class VectorizedAlgorithm(TypingProtocol):
    """Structural interface for algorithms runnable on the vector engines.

    Implementors also subclass
    :class:`~repro.sim.protocol.BroadcastAlgorithm` so the same object runs
    on either engine.
    """

    name: str
    deterministic: bool

    def transmit_mask(
        self,
        step: int,
        labels: np.ndarray,
        wake_steps: np.ndarray,
        r: int,
        coins: CoinSource,
    ) -> np.ndarray:
        """Transmit decisions for slot ``step``.

        Args:
            step: Global slot number.
            labels: ``int64`` array of node labels (fixed across steps),
                always of shape ``(n,)``.
            wake_steps: ``int64`` array; ``ASLEEP`` for uninformed nodes.
                Shape ``(n,)`` for a single run, ``(trials, n)`` for a
                union of trials on
                :class:`~repro.sim.macro.MacroStepEngine`.
                Implementations may ignore sleepers — the engine masks
                them out — but must not let them influence other nodes.
            r: Public label bound.
            coins: Slot-indexed coin flips; ``coins.uniform(step)`` has
                the same shape as ``wake_steps``, and
                ``coins.below(step, p)`` is the transmit test
                ``uniform(step) < p`` without the float conversion.
                Deterministic schedules never touch it.

        Returns:
            Boolean array broadcastable to ``wake_steps.shape``: True where
            the node transmits.
        """
        ...  # pragma: no cover - protocol definition


class WakeTimes(Mapping):
    """``label -> wake slot`` of the informed nodes of one array-engine run.

    A read-only mapping over the run's labels (increasing) and its own
    copy of the wake row, so handing a result over costs one array copy
    instead of an ``n``-entry dict.  It behaves like the dict the
    per-node engines return: iteration in label order, ``len`` equal to
    the informed count, ``get`` / ``in`` answering "not informed" for
    sleepers, equality with any mapping (two instances compare as
    arrays), and pickling.  Wholesale reads are cheapest through
    ``items()`` / ``values()`` or the arrays below; ``dict(m)`` and
    ``{**m}`` pay one lookup per key.

    Attributes:
        labels: ``int64`` node labels in increasing order.
        wake_steps: ``int64`` wake slot per label; ``ASLEEP`` for
            sleepers.
    """

    __slots__ = ("labels", "wake_steps", "_count")

    def __init__(self, labels: np.ndarray, wake_steps: np.ndarray):
        self.labels = labels
        self.wake_steps = np.array(wake_steps, dtype=np.int64)
        self.wake_steps.flags.writeable = False
        self._count = int(np.count_nonzero(self.wake_steps != ASLEEP))

    def _informed(self) -> tuple[np.ndarray, np.ndarray]:
        """Labels and wake slots of the informed nodes, in label order."""
        if self._count == len(self.labels):
            return self.labels, self.wake_steps
        informed = self.wake_steps != ASLEEP
        return self.labels[informed], self.wake_steps[informed]

    def __getitem__(self, label) -> int:
        try:
            key = operator.index(label)
        except TypeError:
            raise KeyError(label) from None
        labels, n = self.labels, len(self.labels)
        # Labels increase; where label == position (every CSR-native
        # topology) the binary search is skipped.
        if 0 <= key < n and labels.item(key) == key:
            i = key
        else:
            i = int(np.searchsorted(labels, key))
        if i < n and labels.item(i) == key:
            slot = self.wake_steps.item(i)
            if slot != ASLEEP:
                return slot
        raise KeyError(label)

    def __iter__(self):
        return iter(self._informed()[0].tolist())

    def __len__(self) -> int:
        return self._count

    def items(self):
        return _WakeItems(self)

    def values(self):
        return _WakeValues(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, WakeTimes):
            mine, theirs = self._informed(), other._informed()
            return all(map(np.array_equal, mine, theirs))
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != self._count:
            return False
        return dict(self.items()) == (
            other if isinstance(other, dict) else dict(other.items())
        )

    def __repr__(self) -> str:
        return f"WakeTimes({dict(self.items())!r})"

    def __reduce__(self):
        return WakeTimes, (self.labels, self.wake_steps)


class _WakeItems(ItemsView):
    def __iter__(self):
        labels, slots = self._mapping._informed()
        return zip(labels.tolist(), slots.tolist())


class _WakeValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._informed()[1].tolist())


def _check_vectorized(algorithm) -> None:
    if not isinstance(algorithm, VectorizedAlgorithm):
        raise ConfigurationError(
            f"{algorithm!r} does not implement the vectorised interface"
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
    (``base_seed + i``, the :func:`~repro.sim.run.repeat_broadcast`
    convention).  Every other argument means what it means on
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
