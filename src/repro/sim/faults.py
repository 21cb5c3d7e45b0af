"""Declarative, seed-deterministic fault injection.

The paper's lower bound (Section 3) is built on an adversary that jams
the channel; related work (Czumaj–Davies randomized broadcasting without
network knowledge, crash-prone radio models) studies how algorithms
degrade when the network misbehaves.  This module gives the simulator a
single declarative description of such misbehaviour — a
:class:`FaultPlan` — that **all three engines** apply with identical
semantics, so the differential suite can assert bit-identical faulty
executions across the reference, fast, and batched paths.

Four fault families are supported:

* **Node crashes** — ``(label, slot)``: from slot ``slot`` onward the
  node is dead; it never transmits, receives, or observes again.  A
  sleeping node that crashes can never be informed.
* **Channel jamming** — ``(slot, receiver)``: in that slot the receiver
  hears noise, indistinguishable from silence, regardless of how many
  in-neighbours transmit.  This is the adversary of the Section 3 lower
  bound made operational.
* **Message loss** — every would-be delivery (exactly one transmitting
  in-neighbour at a live, non-transmitting node that is not jammed) is
  dropped independently with probability ``loss_probability``.  The loss
  coin of ``(receiver, slot)`` is the counter-based hash of
  :mod:`repro.sim.coins` keyed by :func:`derive_fault_seed`, so scalar
  and vectorised engines flip the *same* coins.
* **Wake-up delays** — ``(label, slot)``: the node ignores every message
  received strictly before ``slot`` (an adversarially delayed wake-up).
  The source, awake before slot 0, is unaffected.

Ordering within one slot (also specified in ``docs/MODEL.md``):
crash -> transmit -> channel resolution -> jam -> loss -> wake-delay ->
deliver/wake.  A delivery suppressed at one stage is not re-counted at a
later one.

Determinism: the plan carries its own ``seed``; the per-run loss stream
is keyed by ``derive_fault_seed(plan.seed, run_seed)``, so Monte-Carlo
trials see independent loss realisations while every engine reproduces
the same execution for the same ``(plan, run seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .coins import CoinSource, coin_uniform, node_key
from .errors import ConfigurationError
from .network import RadioNetwork

__all__ = [
    "FaultPlan",
    "FaultCounters",
    "CompiledFaults",
    "derive_fault_seed",
    "compile_faults",
]

#: Sentinel crash slot for nodes that never crash (mirrors fast.ASLEEP).
NEVER: int = np.iinfo(np.int64).max


def derive_fault_seed(plan_seed: int, run_seed: int) -> int:
    """Loss-stream seed for one run: a 64-bit mix of plan and run seeds.

    Mixing the run seed in gives every Monte-Carlo trial its own loss
    realisation; using :func:`repro.sim.coins.node_key` keeps the
    derivation inside the shared splitmix machinery, so the scalar
    (:func:`~repro.sim.coins.coin_uniform`) and vectorised
    (:class:`~repro.sim.coins.CoinSource`) loss coins agree bit for bit.
    """
    return node_key(plan_seed, run_seed)


def _normalize_pairs(pairs: Any, what: str) -> tuple[tuple[int, int], ...]:
    out = []
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{what} entries must be (int, int) pairs, got {pair!r}"
            ) from None
        out.append((int(a), int(b)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every fault injected into one execution.

    All fields are normalised to sorted tuples at construction, so plans
    are hashable, order-insensitive, and byte-stable under
    :meth:`to_dict` — which is what lets sweep points carry a plan into
    their content-hashed cache keys.

    Attributes:
        crashes: ``(label, slot)`` pairs; the node is dead from ``slot``.
        jams: ``(slot, receiver)`` pairs; the receiver hears noise in
            that slot.
        loss_probability: Independent per-delivery drop probability.
        wake_delays: ``(label, slot)`` pairs; the node ignores messages
            received before ``slot``.
        seed: Fault-stream seed for the probabilistic loss coins.
    """

    crashes: tuple[tuple[int, int], ...] = ()
    jams: tuple[tuple[int, int], ...] = ()
    loss_probability: float = 0.0
    wake_delays: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", _normalize_pairs(self.crashes, "crashes"))
        object.__setattr__(self, "jams", _normalize_pairs(self.jams, "jams"))
        object.__setattr__(
            self, "wake_delays", _normalize_pairs(self.wake_delays, "wake_delays")
        )
        object.__setattr__(self, "loss_probability", float(self.loss_probability))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        for what, pairs, key_pos in (
            ("crashes", self.crashes, 0),
            ("wake_delays", self.wake_delays, 0),
        ):
            labels = [pair[key_pos] for pair in pairs]
            if len(labels) != len(set(labels)):
                raise ConfigurationError(f"duplicate labels in {what}: {labels}")
        if len(self.jams) != len(set(self.jams)):
            raise ConfigurationError("duplicate (slot, receiver) entries in jams")
        for what, pairs, slot_pos in (
            ("crashes", self.crashes, 1),
            ("jams", self.jams, 0),
            ("wake_delays", self.wake_delays, 1),
        ):
            for pair in pairs:
                if pair[slot_pos] < 0:
                    raise ConfigurationError(
                        f"negative slot in {what} entry {pair}"
                    )

    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing (inert plans are no-ops)."""
        return (
            not self.crashes
            and not self.jams
            and not self.wake_delays
            and self.loss_probability == 0.0
        )

    def event_slots(self) -> tuple[int, ...]:
        """Sorted slots at which some *scheduled* fault event lands.

        Covers crash slots, jammed slots, and wake-delay expiry slots —
        the discrete events whose slot boundaries the event-driven
        engine must not compress across (see
        :class:`~repro.sim.event.EventDrivenEngine`).  Probabilistic
        loss has no schedule: it only acts on actual deliveries, which
        by definition never happen inside a compressed silent window.
        """
        slots = {slot for _, slot in self.crashes}
        slots.update(slot for slot, _ in self.jams)
        slots.update(slot for _, slot in self.wake_delays)
        return tuple(sorted(slots))

    def validate_for(self, network: RadioNetwork) -> None:
        """Check every referenced label exists in ``network``."""
        for what, labels in (
            ("crashes", (label for label, _ in self.crashes)),
            ("jams", (receiver for _, receiver in self.jams)),
            ("wake_delays", (label for label, _ in self.wake_delays)),
        ):
            for label in labels:
                if label not in network:
                    raise ConfigurationError(
                        f"fault plan {what} references label {label}, "
                        f"which is not in the network"
                    )

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe, byte-stable form (the ``--faults`` file format)."""
        return {
            "crashes": [list(pair) for pair in self.crashes],
            "jams": [list(pair) for pair in self.jams],
            "loss_probability": self.loss_probability,
            "wake_delays": [list(pair) for pair in self.wake_delays],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from a JSON document; rejects unknown fields."""
        known = {"crashes", "jams", "loss_probability", "wake_delays", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan fields: {sorted(unknown)}"
            )
        return cls(
            crashes=tuple(tuple(p) for p in payload.get("crashes", ())),
            jams=tuple(tuple(p) for p in payload.get("jams", ())),
            loss_probability=payload.get("loss_probability", 0.0),
            wake_delays=tuple(tuple(p) for p in payload.get("wake_delays", ())),
            seed=payload.get("seed", 0),
        )


@dataclass
class FaultCounters:
    """What the faults actually did to one execution.

    Attributes:
        crashed_nodes: Crashes whose slot was reached during the run.
        jammed_slots: ``(slot, receiver)`` jam events applied (their slot
            executed), whether or not they suppressed a delivery.
        lost_messages: Deliveries dropped by the loss coin.
        delayed_wakes: Would-be wake-ups ignored because the receiver's
            wake delay had not elapsed.
    """

    crashed_nodes: int = 0
    jammed_slots: int = 0
    lost_messages: int = 0
    delayed_wakes: int = 0

    def snapshot(self) -> "FaultCounters":
        """Immutable-by-convention copy for storing on a result."""
        return replace(self)

    def to_dict(self) -> dict:
        return {
            "crashed_nodes": self.crashed_nodes,
            "jammed_slots": self.jammed_slots,
            "lost_messages": self.lost_messages,
            "delayed_wakes": self.delayed_wakes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "FaultCounters":
        return cls(**{str(k): int(v) for k, v in payload.items()})


def scalar_loss_coin(fault_seed: int, receiver: int, step: int) -> float:
    """The loss coin the reference engine flips for one delivery.

    Bit-identical to ``CoinSource.for_run(fault_seed, labels).uniform(step)``
    at the receiver's position — the parity the differential suite pins.
    """
    return coin_uniform(fault_seed, receiver, step)


@dataclass
class CompiledFaults:
    """A :class:`FaultPlan` lowered onto one engine's node indexing.

    Shared by :class:`~repro.sim.macro.MacroStepEngine` (coin keys of
    shape ``(n,)``) and :class:`~repro.sim.fast.BatchedFastEngine`
    (``(T, n)``, one loss stream per trial).

    Attributes:
        crash_slots: ``(n,)`` int64; :data:`NEVER` where the node never
            crashes.
        deaf_until: ``(n,)`` int64; 0 where the node has no wake delay.
        jam_indices: slot -> engine indices jammed in that slot.
        crash_counts: slot -> number of crashes activating in that slot.
        loss_probability: Per-delivery drop probability.
        loss_coins: Slot-indexed loss coins, or ``None`` when lossless.
    """

    crash_slots: np.ndarray
    deaf_until: np.ndarray
    jam_indices: dict[int, np.ndarray] = field(default_factory=dict)
    crash_counts: dict[int, int] = field(default_factory=dict)
    loss_probability: float = 0.0
    loss_coins: CoinSource | None = None
    has_crashes: bool = False
    has_delays: bool = False


def compile_faults(
    plan: FaultPlan,
    network: RadioNetwork,
    index: Mapping[int, int],
    labels: np.ndarray,
    fault_seeds: Sequence[int],
) -> CompiledFaults:
    """Lower ``plan`` onto an engine's index space.

    Args:
        plan: The declarative plan (validated against ``network`` here).
        network: The topology the engine runs on.
        index: label -> engine array index.
        labels: The engine's label array (coin keys are per *label*).
        fault_seeds: One derived fault seed per trial
            (:func:`derive_fault_seed`); a single-element sequence yields
            ``(n,)`` coins, more yield ``(trials, n)``.
    """
    plan.validate_for(network)
    n = network.n
    crash_slots = np.full(n, NEVER, dtype=np.int64)
    crash_counts: dict[int, int] = {}
    for label, slot in plan.crashes:
        crash_slots[index[label]] = slot
        crash_counts[slot] = crash_counts.get(slot, 0) + 1
    deaf_until = np.zeros(n, dtype=np.int64)
    for label, slot in plan.wake_delays:
        deaf_until[index[label]] = slot
    jam_indices: dict[int, list[int]] = {}
    for slot, receiver in plan.jams:
        jam_indices.setdefault(slot, []).append(index[receiver])
    loss_coins = None
    if plan.loss_probability > 0.0:
        if len(fault_seeds) == 1:
            loss_coins = CoinSource.for_run(fault_seeds[0], labels)
        else:
            loss_coins = CoinSource.for_batch(list(fault_seeds), labels)
    return CompiledFaults(
        crash_slots=crash_slots,
        deaf_until=deaf_until,
        jam_indices={
            slot: np.array(sorted(idx), dtype=np.intp)
            for slot, idx in jam_indices.items()
        },
        crash_counts=crash_counts,
        loss_probability=plan.loss_probability,
        loss_coins=loss_coins,
        has_crashes=bool(plan.crashes),
        has_delays=bool(plan.wake_delays),
    )
