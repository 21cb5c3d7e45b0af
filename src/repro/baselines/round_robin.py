"""Round-robin broadcast: the simplest deterministic algorithm.

Each informed node transmits exactly when the global slot number equals
its label modulo ``r + 1``, so transmissions never collide and the
information front advances at least one layer per ``r + 1`` slots — time
``O(nD)`` (the paper cites this in Section 4.2 as the partner for
interleaving: round-robin wins for very small D, Select-and-Send for large
D, and running both interleaved costs ``O(n min(D, log n))``).

Round-robin is also the canonical victim for the Section 3 adversary: it
is deterministic and oblivious, so E3 jams it with the constructed network
``G_A``.
"""

from __future__ import annotations

import random

import numpy as np

from ..sim.macro import label_set_plan
from ..sim.protocol import BroadcastAlgorithm, ObliviousTransmitter, Protocol

__all__ = ["RoundRobinBroadcast"]


class _RoundRobinProtocol(ObliviousTransmitter):
    def __init__(self, label: int, r: int, rng: random.Random, period: int):
        super().__init__(label, r, rng)
        self._period = period

    def wants_to_transmit(self, step: int) -> bool:
        return step % self._period == self.label

    def quiet_until(self, step: int) -> int:
        """The node's next own slot: ``t >= step`` with ``t % period == label``."""
        return step + (self.label - step) % self._period


class RoundRobinBroadcast(BroadcastAlgorithm):
    """Deterministic round-robin schedule over labels ``0..r``.

    Args:
        r: Label bound; the schedule period is ``r + 1``.
    """

    deterministic = True

    def __init__(self, r: int):
        self.period = r + 1
        self.name = f"round-robin(r={r})"

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _RoundRobinProtocol(label, r, rng, self.period)

    def macro_plan(self, start: int, count: int, r: int):
        """Macro-step form: slot ``t`` is the label set ``{t mod period}``."""
        steps = start + np.arange(count, dtype=np.int64)
        return label_set_plan(start, steps % self.period, np.arange(count + 1))

    def max_steps_hint(self, n: int, r: int) -> int | None:
        # One layer per period, at most n - 1 layers.
        return self.period * n + self.period
