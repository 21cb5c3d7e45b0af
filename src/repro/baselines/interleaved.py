"""Interleaving two broadcasting algorithms (Section 4.2, final remark).

"Observe that repeated use of the round-robin scheme gives a broadcasting
algorithm working in time O(nD) which is faster than O(n log n) for very
small D.  Interleaving both algorithms, we get broadcasting in time
O(n min(D, log n))."

The interleaver runs algorithm A on even slots and algorithm B on odd
slots.  Each sub-protocol sees its own contiguous clock (global slot
``2t + offset`` maps to local slot ``t``), and a node informed through
either stream wakes both sub-protocols, so whichever algorithm is faster
on the given topology finishes the broadcast — at twice its solo time
plus one slot.
"""

from __future__ import annotations

import random
from typing import Any

from ..core.echo import EchoReply
from ..sim.messages import Message
from ..sim.protocol import QUIET_FOREVER, BroadcastAlgorithm, Protocol

__all__ = ["InterleavedBroadcast"]


class _InterleavedProtocol(Protocol):
    """Multiplexes two sub-protocols onto alternating slots."""

    def __init__(
        self,
        label: int,
        r: int,
        rng: random.Random,
        even: Protocol,
        odd: Protocol,
    ):
        super().__init__(label, r, rng)
        self._subs = (even, odd)

    def on_wake(self, step: int, message: Message | None) -> None:
        for offset, sub in enumerate(self._subs):
            local, belongs = self._localize(step, offset)
            if message is None:  # the source wakes both streams natively
                sub.wake_step = -1
                sub.on_wake(-1, None)
            elif belongs:
                sub.wake_step = local
                sub.on_wake(local, message)
            else:
                # Woken through the other stream: the sub-protocol becomes
                # informed via a neutral informational payload (it carries
                # the source message; EchoReply is the no-op carrier both
                # token protocols and oblivious protocols ignore).
                sub.wake_step = local
                sub.on_wake(local, Message(message.sender, EchoReply(message.sender)))

    def next_action(self, step: int) -> Any | None:
        return self._subs[step & 1].next_action(step >> 1)

    def observe(self, step: int, message: Message | None) -> bool | None:
        # The other stream is untouched, so the sub-protocol's no-op
        # promise is this node's.
        return self._subs[step & 1].observe(step >> 1, message)

    def quiet_until(self, step: int) -> int:
        """Earliest global slot either sub-protocol needs, from their own hints.

        Each sub is asked at its first local slot whose global slot
        ``2 local + offset`` is at or after ``step``, and its answer is
        mapped back the same way.  A sub's promise covers its own slots
        only, which is all it ever acts or observes in.
        """
        even, odd = self._subs
        local = (step + 1) >> 1
        quiet = even.quiet_until(local)
        if quiet < local:
            quiet = local
        bound = 2 * quiet if quiet < QUIET_FOREVER else QUIET_FOREVER
        if bound == step:
            return step  # the even stream acts now: nothing comes earlier
        local = step >> 1
        quiet = odd.quiet_until(local)
        if quiet < local:
            quiet = local
        if quiet < QUIET_FOREVER and 2 * quiet + 1 < bound:
            bound = 2 * quiet + 1
        return bound

    @staticmethod
    def _localize(step: int, offset: int) -> tuple[int, bool]:
        """Local slot for the sub-stream and whether ``step`` belongs to it.

        A node woken at global slot ``t`` can first act at ``t + 1``; the
        sub-clock wake position is chosen so the sub-protocol may act in
        its next local slot and not earlier.
        """
        belongs = step % 2 == offset
        local = step // 2 if belongs else (step - 1) // 2
        return local, belongs


class InterleavedBroadcast(BroadcastAlgorithm):
    """Runs ``even`` on even slots and ``odd`` on odd slots.

    The classic instantiation — round-robin + Select-and-Send — yields the
    paper's ``O(n min(D, log n))`` bound and is what E6 measures.
    """

    def __init__(self, even: BroadcastAlgorithm, odd: BroadcastAlgorithm):
        self.even = even
        self.odd = odd
        self.deterministic = even.deterministic and odd.deterministic
        self.name = f"interleave[{even.name} | {odd.name}]"

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _InterleavedProtocol(
            label,
            r,
            rng,
            self.even.create(label, r, rng),
            self.odd.create(label, r, rng),
        )

    def max_steps_hint(self, n: int, r: int) -> int | None:
        hints = [
            sub.max_steps_hint(n, r) for sub in (self.even, self.odd)
        ]
        known = [h for h in hints if h is not None]
        if not known:
            return None
        return 2 * min(known) + 2
