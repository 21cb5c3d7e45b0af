"""``Select-and-Send``: deterministic broadcasting in O(n log n) (Section 4.2).

A token performs a DFS of the network.  Whenever the token sits at a node
``v``, the node (1) transmits the source message — waking all neighbours —
and (2) finds one *unvisited* neighbour to hand the token to, using the
Echo/Binary-Selection machinery of Section 4.1 with its DFS parent as the
distinguished node.  If no unvisited neighbour remains, the token returns
to the parent.  The algorithm is globally sequential: in every slot either
the token holder transmits an order, or the holder's neighbours execute
the Echo slots that order opened — so the channel is always coordinated
despite having no collision detection.

Timeline conventions (all slots relative to the order that opens them):

* order at slot ``b`` (``TokenAnnounce`` or ``EchoProbe``);
* Echo slot 1 at ``b + 1`` — the probed set ``A`` transmits;
* Echo slot 2 at ``b + 2`` — ``A`` plus the distinguished parent transmit;
* the holder's next order at ``b + 3``.

Startup (the paper's part 1): the source transmits an order at slot 0;
its neighbour with label ``i`` replies in slot ``2 i``; on the first reply
(necessarily the lowest-labelled neighbour ``j``) the source broadcasts a
stop-and-take-token order in the next slot.

Deviations from the paper's prose: none in behaviour.  Each time the token
*returns* to a node the full routine (announce + Echo) is re-run, exactly
as "If the token is at node v" prescribes.
"""

from __future__ import annotations

import random
from typing import Any

from ..sim.errors import ProtocolViolationError
from ..sim.messages import Message
from ..sim.protocol import BroadcastAlgorithm, Protocol
from .echo import (
    EchoOutcome,
    EchoProbe,
    EchoReply,
    HereIAm,
    InitOrder,
    InitStop,
    Probe,
    QuietEchoSchedule,
    Selected,
    SelectionDriver,
    StopAll,
    TokenAnnounce,
    TokenPass,
    classify_echo,
    startup_stages,
)

__all__ = ["SelectAndSend"]


class _SelectAndSendProtocol(QuietEchoSchedule, Protocol):
    """Per-node state machine for Select-and-Send.

    Slots where this node acts are fully determined by ``scheduled`` and
    the holder's Echo window, so :class:`QuietEchoSchedule` provides the
    exact idle hint the event-driven engine compresses on.
    """

    def __init__(self, label: int, r: int, rng: random.Random):
        super().__init__(label, r, rng)
        self.scheduled: dict[int, Any] = {}
        #: This node's Echo reply; payloads are immutable, so one serves
        #: every Echo slot it answers in.
        self._reply = EchoReply(label)
        self.visited = False  # has this node ever held the token?
        self.parent: int | None = None
        self.holding = False
        self.stopped = False
        # Holder-side Echo bookkeeping: (kind, base_slot) while waiting for
        # the two Echo observation slots of the last order.
        self._awaiting: tuple[str, int] | None = None
        self._echo_first: int | None = None
        self._driver: SelectionDriver | None = None
        # Source-side init bookkeeping.
        self._init_waiting = False
        self._init_reply_slot: int | None = None

    # -- engine hooks ------------------------------------------------------

    def on_wake(self, step: int, message: Message | None) -> None:
        if message is None:  # the source, woken before its start slot
            self.visited = True
            self._init_waiting = True
            self.scheduled[0] = InitOrder()
        else:
            self._handle(step, message)

    def next_action(self, step: int) -> Any | None:
        if self.stopped:
            return None
        return self.scheduled.pop(step, None)

    def observe(self, step: int, message: Message | None) -> bool | None:
        """Consume one slot's outcome; ``False`` when it changed nothing
        (the :meth:`~repro.sim.protocol.Protocol.observe` no-op promise),
        so the event engine keeps this node's idle hint."""
        if self.holding and self._awaiting is not None:
            kind, base = self._awaiting
            if step == base + 1:
                self._echo_first = _reply_label(message)
                return None
            if step == base + 2:
                second = _reply_label(message)
                self._decide(kind, base, self._echo_first, second)
                return None
        if message is None or type(message.payload) is EchoReply:
            return False  # silence, or a reply that only informs
        return self._handle(step, message)

    # -- message dispatch ----------------------------------------------------

    def _handle(self, step: int, message: Message) -> bool | None:
        """Act on a delivered message; ``False`` when it was a no-op."""
        payload = message.payload
        # The four payloads of the DFS traversal are all but every
        # delivery, so they dispatch on the exact type first.
        kind = type(payload)
        if kind is EchoReply:
            return False  # it only informs: it carries the source message
        if kind is EchoProbe:
            return self._respond_to_echo(
                payload.base_slot, payload.parent, payload.lo, payload.hi
            )
        if kind is TokenAnnounce:
            return self._respond_to_echo(payload.base_slot, payload.parent, 1, self.r)
        if kind is TokenPass:
            if self.label != payload.to:
                return False
            if not self.visited:
                self.visited = True
                self.parent = payload.from_label
            self._announce(step + 1)
        elif isinstance(payload, InitOrder):
            # Reserve slot 2 * label for the self-announcement.
            self._init_reply_slot = 2 * self.label
            self.scheduled[self._init_reply_slot] = HereIAm(self.label)
        elif isinstance(payload, HereIAm):
            if self.label == 0 and self._init_waiting:
                self._init_waiting = False
                self.parent = payload.label  # the source's distinguished node
                self.scheduled[step + 1] = InitStop(token_to=payload.label)
        elif isinstance(payload, InitStop):
            if self._init_reply_slot is not None:
                self.scheduled.pop(self._init_reply_slot, None)
                self._init_reply_slot = None
            if self.label == payload.token_to:
                self.visited = True
                self.parent = 0
                self._announce(step + 1)
        elif isinstance(payload, StopAll):
            self.stopped = True
            self.scheduled.clear()
        else:
            raise ProtocolViolationError(
                f"node {self.label}: unexpected payload {payload!r}"
            )
        return None

    def _respond_to_echo(
        self, base: int, parent: int, lo: int, hi: int
    ) -> bool | None:
        """Schedule this node's part in the Echo pair opened at ``base``;
        ``False`` when it has none."""
        if not self.visited and lo <= self.label <= hi:
            self.scheduled[base + 1] = self.scheduled[base + 2] = self._reply
        elif self.label == parent:
            self.scheduled[base + 2] = self._reply
        else:
            return False
        return None

    # -- holder side ---------------------------------------------------------

    def _announce(self, slot: int) -> None:
        """Take the token: announce (wakes neighbours) and open a full Echo."""
        self.holding = True
        assert self.parent is not None
        self.scheduled[slot] = TokenAnnounce(
            holder=self.label, parent=self.parent, base_slot=slot
        )
        self._awaiting = ("announce", slot)
        self._echo_first = None

    def _decide(self, kind: str, base: int, first: int | None, second: int | None) -> None:
        """Consume one Echo outcome and emit the next order at ``base + 3``."""
        outcome, label = classify_echo(first, second)
        self._awaiting = None
        self._echo_first = None
        if kind == "announce":
            if outcome is EchoOutcome.SINGLE:
                self._pass_token(base + 3, label, returning=False)
            elif outcome is EchoOutcome.EMPTY:
                if self.label == 0:
                    self.scheduled[base + 3] = StopAll()
                    self.holding = False
                    self.stopped = False  # transmit StopAll first, then rest
                else:
                    self._pass_token(base + 3, self.parent, returning=True)
            else:  # MANY: start doubling + binary selection
                self._driver = SelectionDriver(self.r)
                self._emit_probe(base + 3, self._driver.current_probe)
        else:  # probe segment
            assert self._driver is not None
            step = self._driver.feed(outcome, label)
            if isinstance(step, Selected):
                self._driver = None
                self._pass_token(base + 3, step.label, returning=False)
            else:
                self._emit_probe(base + 3, step)

    def _emit_probe(self, slot: int, probe: Probe) -> None:
        assert self.parent is not None
        self.scheduled[slot] = EchoProbe(
            holder=self.label,
            parent=self.parent,
            lo=probe.lo,
            hi=probe.hi,
            base_slot=slot,
        )
        self._awaiting = ("probe", slot)

    def _pass_token(self, slot: int, to: int, returning: bool) -> None:
        self.scheduled[slot] = TokenPass(to=to, from_label=self.label, returning=returning)
        self.holding = False
        self._driver = None


def _reply_label(message: Message | None) -> int | None:
    """Extract the responder label from an Echo observation slot."""
    if message is None:
        return None
    payload = message.payload
    if isinstance(payload, EchoReply):
        return payload.label
    raise ProtocolViolationError(
        f"non-EchoReply payload {payload!r} observed in an Echo slot"
    )


class SelectAndSend(BroadcastAlgorithm):
    """Deterministic O(n log n) broadcast by DFS token + Binary-Selection.

    Theorem 3: completes broadcasting on any n-node network in
    ``O(n log n)`` slots.  Part 1 costs ``O(r)``; each of the ``O(n)``
    token moves costs ``O(log n)`` Echo segments of 3 slots each.
    """

    deterministic = True

    def __init__(self) -> None:
        self.name = "select-and-send"

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _SelectAndSendProtocol(label, r, rng)

    def max_steps_hint(self, n: int, r: int) -> int | None:
        log_r = max(1, (r + 1).bit_length())
        return 2 * r + 8 + 2 * n * (6 * log_r + 30)

    def stage_hints(self, steps, trace=None) -> list[str | None]:
        """Split a recorded run at the source's ``InitStop`` (its second
        transmission): Part 1 round-robin vs the DFS token traversal."""
        return startup_stages(steps, trace, "dfs-traversal")
