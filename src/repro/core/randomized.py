"""The optimal randomized broadcasting algorithm (Section 2).

Structure, following the paper exactly:

* ``Procedure Stage(D, i)`` — ``log(r/D) + 2`` slots: first transmit with
  probabilities ``1, 1/2, ..., D/r`` (one per slot), then one extra slot
  with the universal-sequence probability ``p_i``.  The sweep informs nodes
  with at most ``r/D`` informed in-neighbours with constant probability
  (Lemma 2); the extra slot handles nodes with *many* informed
  in-neighbours (Lemmas 3-4) — this is the paper's key novelty over BGI.
* ``Procedure Randomized-Broadcasting(D)`` — the source transmits once,
  then ``4660 D`` stages run; a node performs stage ``i`` iff it was
  informed before the stage began.
* ``Algorithm Optimal-Randomized-Broadcasting`` — doubling over
  ``D = 2, 4, ..., r`` removes the assumption that D is known.

Both a per-node :class:`~repro.sim.protocol.Protocol` (reference engine)
and a vectorised schedule (array engines) are provided; they implement the
same probability timetable.

Fidelity knobs
--------------

``stage_constant`` defaults to the paper's 4660.  The constant only caps
how many stages a phase runs — per-slot probabilities never depend on it —
so measuring time-to-completion with a known radius is constant-free.  The
paper's fallback to BGI for ``D <= 32 r^(2/3)`` exists for the *analysis*;
``use_paper_fallback=True`` reproduces it, while the default keeps the
stage mechanism at every D (the universal sequence is built in clamped
practical mode there, see :mod:`repro.combinatorics.universal`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..combinatorics.universal import UniversalSequence, build_universal_sequence
from ..sim.errors import ConfigurationError
from ..sim.macro import ELIGIBLE_ANY_AWAKE, MacroPlan
from ..sim.protocol import BroadcastAlgorithm, ObliviousTransmitter, Protocol

__all__ = [
    "next_power_of_two",
    "StageTimetable",
    "KnownRadiusKP",
    "OptimalRandomizedBroadcasting",
]


def next_power_of_two(x: int) -> int:
    """Smallest power of two >= x (the paper replaces r by 2^ceil(log r))."""
    if x < 1:
        raise ConfigurationError(f"need a positive integer, got {x}")
    return 1 << (x - 1).bit_length()


@dataclass(frozen=True)
class StageTimetable:
    """Probability timetable of one ``Randomized-Broadcasting(D)`` phase.

    Slot 0 of the phase is the source's solo transmission; after it come
    ``num_stages`` stages of ``stage_len`` slots each.

    Attributes:
        r2: Label bound rounded up to a power of two.
        d2: The phase's radius guess D (power of two).
        stage_len: ``log(r2/d2) + 2`` slots per stage.
        num_stages: How many stages the phase runs.
        universal: The universal sequence supplying the ``p_i`` values.
    """

    r2: int
    d2: int
    stage_len: int
    num_stages: int
    universal: UniversalSequence | None

    @classmethod
    def build(
        cls, r: int, d_guess: int, stage_constant: int, extra_step: str = "universal"
    ) -> "StageTimetable":
        """Create the timetable for ``Randomized-Broadcasting(d_guess)``.

        ``r`` is rounded up to a power of two (at least 4, so the universal
        exponent ranges are non-degenerate) and the radius guess is clamped
        into ``[2, r2]`` — the doubling algorithm never probes below D = 2.

        ``extra_step`` selects the stage shape (ablation E9):
        ``"universal"`` is the paper's stage (probability sweep plus one
        universal-sequence slot); ``"none"`` drops the extra slot, leaving
        the bare shortened-Decay sweep the paper argues is insufficient for
        nodes with many informed in-neighbours.
        """
        if extra_step not in ("universal", "none"):
            raise ConfigurationError(f"unknown extra_step {extra_step!r}")
        r2 = max(4, next_power_of_two(r))
        d2 = max(2, next_power_of_two(d_guess))
        if d2 > r2:
            d2 = r2
        log_ratio = (r2 // d2).bit_length() - 1  # log2(r2/d2)
        universal = (
            build_universal_sequence(r2, d2, strict=False)
            if extra_step == "universal"
            else None
        )
        return cls(
            r2=r2,
            d2=d2,
            stage_len=log_ratio + (2 if universal is not None else 1),
            num_stages=stage_constant * d2,
            universal=universal,
        )

    @property
    def duration(self) -> int:
        """Total slots in the phase (source slot + all stages)."""
        return 1 + self.num_stages * self.stage_len

    def slot(self, offset: int) -> tuple[float, int] | None:
        """Decode one slot of the phase.

        Args:
            offset: Slot index within the phase, ``0 <= offset < duration``.

        Returns:
            ``None`` for slot 0 (only the source transmits), else a pair
            ``(probability, eligibility_offset)``: nodes informed strictly
            before ``eligibility_offset`` (the first slot of the current
            stage, phase-relative) transmit with ``probability``.
        """
        if offset == 0:
            return None
        stage_index = (offset - 1) // self.stage_len  # 0-based stage number
        position = (offset - 1) % self.stage_len
        stage_start = 1 + stage_index * self.stage_len
        if self.universal is not None and position == self.stage_len - 1:
            probability = self.universal.probability(stage_index + 1)
        else:
            probability = 2.0 ** (-position)
        return probability, stage_start


class _StageProtocol(ObliviousTransmitter):
    """Reference-engine protocol executing a sequence of phase timetables."""

    def __init__(
        self,
        label: int,
        r: int,
        rng: random.Random,
        phases: list[StageTimetable],
        phase_starts: list[int],
    ) -> None:
        super().__init__(label, r, rng)
        self._phases = phases
        self._phase_starts = phase_starts

    def wants_to_transmit(self, step: int) -> bool:
        located = _locate_phase(self._phase_starts, step)
        if located is None:
            return False
        phase_index, offset = located
        timetable = self._phases[phase_index]
        decoded = timetable.slot(offset)
        if decoded is None:
            return self.label == 0
        probability, stage_start = decoded
        phase_start = self._phase_starts[phase_index]
        # "if node v received the source message before Stage(D, i)": the
        # stage starts at global slot phase_start + stage_start, so a node
        # is eligible iff it woke in an earlier slot.  A node woken during
        # a stage waits for the next one (Lemma 2 relies on this).
        if self.wake_step is None or self.wake_step >= phase_start + stage_start:
            return False
        if probability >= 1.0:
            return True
        return self.coin(step) < probability


def _locate_phase(phase_starts: list[int], step: int) -> tuple[int, int] | None:
    """Map a global step to ``(phase index, offset within phase)``."""
    if not phase_starts or step < phase_starts[0]:
        return None
    import bisect

    index = bisect.bisect_right(phase_starts, step) - 1
    return index, step - phase_starts[index]


class _PhasedAlgorithm(BroadcastAlgorithm):
    """Shared machinery: a schedule made of consecutive phase timetables."""

    deterministic = False

    def __init__(self, phases: list[StageTimetable]):
        self._phases = phases
        starts: list[int] = []
        cursor = 0
        for timetable in phases:
            starts.append(cursor)
            cursor += timetable.duration
        self._phase_starts = starts
        self._total_duration = cursor
        # Stage names for forensics: a None for slots before the first
        # phase, then per phase its source slot and one stage's slots,
        # with each phase's start slot, first index and stage length.
        names: list[str | None] = [None]
        bases, stage_lens = [], []
        for timetable in phases:
            prefix = f"D={timetable.d2}:" if len(phases) > 1 else ""
            stage = [
                f"{prefix}sweep[p=2^-{position}]"
                for position in range(timetable.stage_len)
            ]
            if timetable.universal is not None:
                stage[-1] = f"{prefix}universal"
            bases.append(len(names))
            stage_lens.append(timetable.stage_len)
            names += [f"{prefix}source", *stage]
        self._stage_table = (
            np.array(names, dtype=object), np.array(starts),
            np.array(bases), np.array(stage_lens),
        )

    # -- reference engine -------------------------------------------------

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _StageProtocol(label, r, rng, self._phases, self._phase_starts)

    # -- array engines ------------------------------------------------------

    def macro_plan(self, start: int, count: int, r: int):
        """Decode ``count`` slots at once for the macro-step engine.

        Each slot is decoded by exactly the same ``_locate_phase`` +
        ``StageTimetable.slot`` pair as :class:`_StageProtocol`, so the
        plan is the batched form of the per-node decisions by
        construction (the conformance suite asserts it stays that way).
        """
        probs = np.full(count, -1.0, dtype=np.float64)
        elig = np.full(count, ELIGIBLE_ANY_AWAKE, dtype=np.int64)
        source = np.zeros(count, dtype=bool)
        for j in range(count):
            located = _locate_phase(self._phase_starts, start + j)
            if located is None:
                continue  # before the schedule: silence
            phase_index, offset = located
            decoded = self._phases[phase_index].slot(offset)
            if decoded is None:
                source[j] = True  # the source's solo slot: label set {0}
                continue
            probability, stage_start = decoded
            probs[j] = probability
            elig[j] = self._phase_starts[phase_index] + stage_start
        return MacroPlan(
            start=start, probs=probs, elig=elig,
            members=np.zeros(np.count_nonzero(source), dtype=np.int64),
            bounds=np.concatenate(([0], np.cumsum(source))),
        )

    def max_steps_hint(self, n: int, r: int) -> int | None:
        return self._total_duration

    # -- forensics ---------------------------------------------------------

    def stage_hints(self, steps, trace=None) -> list[str | None]:
        """Charge each slot to its phase stage — the source slot, a sweep
        slot (by probability scale) or the universal-sequence slot — by
        one lookup in the phases' name table."""
        if not self._phases:
            return [None] * len(steps)
        names, starts, bases, stage_lens = self._stage_table
        phase = starts.searchsorted(steps, side="right") - 1
        known = phase >= 0
        phase = np.maximum(phase, 0)
        offset = steps - starts[phase]
        position = np.where(offset == 0, 0, 1 + (offset - 1) % stage_lens[phase])
        return names[np.where(known, bases[phase] + position, 0)].tolist()


class KnownRadiusKP(_PhasedAlgorithm):
    """``Procedure Randomized-Broadcasting(D)`` with D known a priori.

    This is the constant-free object to benchmark: its per-slot
    probabilities depend only on ``(r, D)``, so measured completion times
    expose the ``O(D log(n/D) + log^2 n)`` behaviour of Theorem 1 without
    the pessimistic stage-count constant.

    Args:
        r: Label bound the nodes know.
        d_known: The radius D given to the procedure.
        stage_constant: Stage-count multiplier (paper: 4660).  Only bounds
            the schedule length.
        extra_step: ``"universal"`` (the paper's stage) or ``"none"``
            (ablation: bare shortened sweep, no universal slot — E9).
    """

    def __init__(
        self,
        r: int,
        d_known: int,
        stage_constant: int = 4660,
        extra_step: str = "universal",
    ):
        if d_known < 1:
            raise ConfigurationError(f"D must be positive, got {d_known}")
        timetable = StageTimetable.build(r, d_known, stage_constant, extra_step)
        super().__init__([timetable])
        suffix = "" if extra_step == "universal" else ", no-universal"
        self.name = f"kp-known-D(D={d_known}{suffix})"
        self.d_known = d_known
        self.stage_constant = stage_constant
        self.extra_step = extra_step


class OptimalRandomizedBroadcasting(_PhasedAlgorithm):
    """``Algorithm Optimal-Randomized-Broadcasting`` (doubling over D).

    Runs ``Randomized-Broadcasting(2^i)`` for ``i = 1, ..., log r`` in
    sequence.  With the paper's ``stage_constant=4660`` each phase runs its
    full pessimistic length before the next starts; Theorem 1 guarantees
    completion within phase ``ceil(log D)`` with probability ``1 - 1/r``.

    Args:
        r: Label bound the nodes know.
        stage_constant: Stage-count multiplier per phase (paper: 4660).
            Smaller values shorten the doubling overhead at the cost of a
            larger per-phase failure probability; E2 measures this
            trade-off.
        max_d: Optional cap on the largest phase D (defaults to r).
    """

    def __init__(self, r: int, stage_constant: int = 4660, max_d: int | None = None):
        r2 = next_power_of_two(r)
        top = r2 if max_d is None else min(r2, next_power_of_two(max_d))
        phases = []
        d_guess = 2
        # At least one phase: r = 1 (or max_d = 1) rounds below D = 2.
        while d_guess <= max(2, top):
            phases.append(StageTimetable.build(r2, d_guess, stage_constant))
            d_guess *= 2
        super().__init__(phases)
        self.name = f"kp-optimal(c={stage_constant})"
        self.stage_constant = stage_constant
