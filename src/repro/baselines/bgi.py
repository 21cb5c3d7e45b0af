"""BGI randomized broadcast (Bar-Yehuda, Goldreich, Itai 1992).

The best previously known randomized algorithm, running in expected time
``O(D log n + log^2 n)`` — the baseline Theorem 1 improves on.

Mechanism (procedure *Decay*): time is divided into phases of
``2 ceil(log2 n)`` slots.  At the start of each phase every node informed
*before* the phase begins starts a Decay run: it transmits in the first
slot and keeps transmitting while fair coin flips come up heads, so it is
active in slot ``l`` of the phase with probability ``2^-l``.  For an
uninformed node with at least one informed neighbour, each phase delivers
a message with constant probability.

The paper's Section 2 contrasts this with its stage design: Decay's phase
sweeps all ``log n`` probability scales, while a Kowalski–Pelc stage sweeps
only ``log(n/D)`` scales plus a single universal-sequence slot — that is
the entire source of the ``D log n`` vs ``D log(n/D)`` separation (E1/E9).
"""

from __future__ import annotations

import random

import numpy as np

from ..sim.errors import ConfigurationError
from ..sim.protocol import BroadcastAlgorithm, ObliviousTransmitter, Protocol

__all__ = ["BGIBroadcast", "default_phase_length"]


def default_phase_length(r: int) -> int:
    """BGI's phase length ``2 ceil(log2 n)`` with ``n`` replaced by ``r + 1``.

    In the ad hoc model nodes know only the label bound ``r`` (linear in
    ``n``), so the classic ``2 ceil(log Delta)`` is instantiated with the
    only bound available.
    """
    return 2 * max(1, (r + 1 - 1).bit_length())


class _DecayProtocol(ObliviousTransmitter):
    """Per-node Decay state machine for the per-node engines.

    Its idle hint is exact: outside an unbroken Decay run the node is
    quiet until the next phase start, so the event engines poll each
    informed node once per phase plus once per slot of its own run.
    """

    def __init__(self, label: int, r: int, rng: random.Random, phase_len: int):
        super().__init__(label, r, rng)
        self._phase_len = phase_len
        self._active_phase = -1  # phase currently being decayed in
        self._active = False

    def wants_to_transmit(self, step: int) -> bool:
        phase, offset = divmod(step, self._phase_len)
        phase_start = phase * self._phase_len
        if self.wake_step is None or self.wake_step >= phase_start:
            return False  # informed mid-phase: wait for the next phase
        if offset == 0:
            self._active_phase = phase
            self._active = True
            return True
        if self._active_phase != phase or not self._active:
            return False
        # Continue while the coin keeps coming up heads.
        self._active = self.coin(step) < 0.5
        return self._active

    def quiet_until(self, step: int) -> int:
        phase, offset = divmod(step, self._phase_len)
        next_phase = step - offset + self._phase_len
        if offset == 0:
            # Every node informed before the phase opens it.
            eligible = self.wake_step is not None and self.wake_step < step
            return step if eligible else next_phase
        if self._active_phase != phase or not self._active:
            return next_phase  # no run in this phase, or it already ended
        # Slot-indexed coins are pure, so the hint may flip one ahead of
        # the poll; a sequential fallback stream (no ``coin``) may not be
        # advanced here.
        coin = getattr(self.rng, "coin", None)
        if coin is None:
            return step
        if coin(step) < 0.5:
            return step  # the run continues: transmits now
        # The run ends at ``step``.  Record it exactly as wants_to_transmit
        # would: the engine skips this slot, and a delivery later in the
        # phase re-queries the hint, which must not see the run as live.
        self._active = False
        return next_phase


class BGIBroadcast(BroadcastAlgorithm):
    """BGI Decay broadcast, runnable on both engines.

    Args:
        r: Label bound.
        phase_len: Slots per Decay phase; defaults to ``2 ceil(log2(r+1))``.
            E9 uses shortened phases to show why Decay cannot simply be
            truncated (the paper's Section 2 remark).
    """

    deterministic = False

    def __init__(self, r: int, phase_len: int | None = None):
        if phase_len is None:
            phase_len = default_phase_length(r)
        if phase_len < 1:
            raise ConfigurationError(f"phase_len must be positive, got {phase_len}")
        self.phase_len = phase_len
        self.name = f"bgi-decay(L={phase_len})"
        # Array-engine per-run state (reset by the engine via reset_run).
        self._active_mask: np.ndarray | None = None
        self._active_phase: int = -1

    # -- reference engine -------------------------------------------------

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _DecayProtocol(label, r, rng, self.phase_len)

    # -- array engines ------------------------------------------------------

    def reset_run(self, shape: int | tuple[int, int]) -> None:
        """Called by the array engine before a run.

        ``shape`` is the shape of the engine's wake array: ``(n,)`` for
        one :class:`~repro.sim.macro.MacroStepEngine` run, ``(trials, n)``
        for a union of trials.
        """
        self._active_mask = np.zeros(shape, dtype=bool)
        self._active_phase = -1

    def transmit_mask(
        self,
        step: int,
        labels: np.ndarray,
        wake_steps: np.ndarray,
        r: int,
        coins,
    ) -> np.ndarray:
        phase, offset = divmod(step, self.phase_len)
        phase_start = phase * self.phase_len
        eligible = wake_steps < phase_start
        if self._active_mask is None or self._active_mask.shape != wake_steps.shape:
            self._active_mask = np.zeros(wake_steps.shape, dtype=bool)
        if offset == 0:
            self._active_phase = phase
            self._active_mask = eligible.copy()
        elif self._active_phase == phase:
            # Slot-indexed coins: ANDing into already-inactive rows is a
            # no-op, so this matches the per-node stateful Decay exactly.
            self._active_mask &= coins.below(step, 0.5)
        else:  # run started mid-phase (step offset != 0): stay silent
            self._active_mask[:] = False
        return self._active_mask.copy()

    def max_steps_hint(self, n: int, r: int) -> int | None:
        # Expected time is O(D log n + log^2 n) <= O(n log n); leave slack.
        log_n = max(1, n.bit_length())
        return 64 * (n + log_n * log_n) * log_n

    # -- forensics ---------------------------------------------------------

    def stage_hint(self, step: int, trace=None) -> str | None:
        """Charge a slot to its Decay probability scale ``2^-offset``."""
        return f"decay[p=2^-{step % self.phase_len}]"
