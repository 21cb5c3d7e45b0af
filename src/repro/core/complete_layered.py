"""``Algorithm Complete-Layered``: O(n + D log n) broadcast (Section 4.3).

For *complete layered* networks — where adjacent pairs are exactly those in
consecutive BFS layers — the paper shows broadcasting in ``O(n + D log n)``
even without spontaneous transmissions.  This refutes the claim of
Clementi, Monti and Silvestri that their directed ``Omega(n log D)`` lower
bound extends to undirected networks: for every unbounded ``D in o(n)``
this algorithm is faster than that claimed bound (experiment E5).

Mechanism: a single *leader* per layer.  Phase 1 elects the layer-1 leader
``v_1`` exactly like Select-and-Send's startup.  In phase ``k + 1`` leader
``v_k`` transmits the source message — waking the whole of layer ``k + 1``
at once, this is where completeness of the layers is used — and then
selects the next leader ``v_(k+1)`` among the newly woken nodes with the
Echo/Binary-Selection machinery, using the previous leader ``v_(k-1)`` as
the distinguished node.  Each phase costs ``O(log n)`` slots, and there
are ``D`` phases after the ``O(n)`` startup.

Membership rule: a node takes part in leader selection iff its *first*
message came from the current leader.  In a complete layered network the
only node of layer ``k`` that ever transmits alone is ``v_k`` itself (any
other selection slot collides at every layer-``(k+1)`` node, since those
neighbour all of layer ``k``), so this rule captures exactly layer
``k + 1`` — the set the paper calls ``S``.

The pass message that names ``v_(k+1)`` doubles as the paper's final
"order all neighbours in the previous layer to stop": previous-layer nodes
hear it and never qualify as responders again, so no separate stop slot is
needed (behaviourally identical, one slot cheaper per phase).
"""

from __future__ import annotations

import random
from typing import Any

from ..sim.errors import ProtocolViolationError
from ..sim.messages import COLLISION_MARKER, CollisionMarker, Message
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

__all__ = ["CompleteLayeredBroadcast"]


class _CompleteLayeredProtocol(QuietEchoSchedule, Protocol):
    """Per-node state machine for the layered leader chain.

    :class:`QuietEchoSchedule` supplies the idle hint; it needs no
    CD-specific handling because ``_awaiting`` is cleared exactly when
    the observation window ends (after one slot under ``native_cd``,
    two otherwise).
    """

    def __init__(self, label: int, r: int, rng: random.Random, native_cd: bool = False):
        super().__init__(label, r, rng)
        self.native_cd = native_cd
        self.scheduled: dict[int, Any] = {}
        self.first_sender: int | None = None
        self.was_leader = False
        self.parent: int | None = None  # the previous layer's leader
        self.holding = False
        self.stopped = False
        self._awaiting: tuple[str, int] | None = None
        self._echo_first: int | None = None
        self._driver: SelectionDriver | None = None
        self._init_waiting = False
        self._init_reply_slot: int | None = None

    # -- engine hooks ------------------------------------------------------

    def on_wake(self, step: int, message: Message | None) -> None:
        if message is None:  # the source
            self.was_leader = True
            self._init_waiting = True
            self.scheduled[0] = InitOrder()
        else:
            self.first_sender = message.sender
            self._handle(step, message)

    def next_action(self, step: int) -> Any | None:
        if self.stopped:
            return None
        return self.scheduled.pop(step, None)

    def observe(self, step: int, message: Message | None) -> bool | None:
        """Consume one slot's outcome; ``False`` when it changed nothing
        (the :meth:`~repro.sim.protocol.Protocol.observe` no-op promise)."""
        if self.holding and self._awaiting is not None:
            kind, base = self._awaiting
            if self.native_cd:
                if step == base + 1:
                    # One slot suffices: silence / single / collision are
                    # directly distinguishable under collision detection.
                    if isinstance(message, CollisionMarker) or message is COLLISION_MARKER:
                        self._conclude(kind, base, EchoOutcome.MANY, None)
                    elif message is None:
                        self._conclude(kind, base, EchoOutcome.EMPTY, None)
                    else:
                        self._conclude(
                            kind, base, EchoOutcome.SINGLE, _reply_label(message)
                        )
                    return None
            else:
                if step == base + 1:
                    self._echo_first = _reply_label(message)
                    return None
                if step == base + 2:
                    second = _reply_label(message)
                    outcome, label = classify_echo(self._echo_first, second)
                    self._conclude(kind, base, outcome, label)
                    return None
        if message is None or isinstance(message, CollisionMarker):
            return False
        return self._handle(step, message)

    # -- message dispatch ----------------------------------------------------

    def _handle(self, step: int, message: Message) -> bool | None:
        """Act on a delivered message; ``False`` when it was a no-op."""
        payload = message.payload
        if isinstance(payload, InitOrder):
            self._init_reply_slot = 2 * self.label
            self.scheduled[self._init_reply_slot] = HereIAm(self.label)
        elif isinstance(payload, HereIAm):
            if self.label == 0 and self._init_waiting:
                self._init_waiting = False
                self.scheduled[step + 1] = InitStop(token_to=payload.label)
        elif isinstance(payload, InitStop):
            if self._init_reply_slot is not None:
                self.scheduled.pop(self._init_reply_slot, None)
                self._init_reply_slot = None
            if self.label == payload.token_to:
                self.was_leader = True
                self.parent = 0
                self._announce(step + 1)
        elif isinstance(payload, TokenAnnounce):
            return self._respond(
                payload.holder, payload.parent, payload.base_slot, 1, self.r
            )
        elif isinstance(payload, EchoProbe):
            return self._respond(
                payload.holder, payload.parent, payload.base_slot, payload.lo, payload.hi
            )
        elif isinstance(payload, TokenPass):
            if self.label != payload.to or self.was_leader:
                return False
            self.was_leader = True
            self.parent = payload.from_label
            self._announce(step + 1)
        elif isinstance(payload, StopAll):
            self.stopped = True
            self.scheduled.clear()
        elif isinstance(payload, EchoReply):
            return False  # informational: carries the source message to the next layer
        else:
            raise ProtocolViolationError(
                f"node {self.label}: unexpected payload {payload!r}"
            )
        return None

    def _respond(
        self, holder: int, parent: int, base: int, lo: int, hi: int
    ) -> bool | None:
        """Take part in the Echo pair iff woken by the current leader;
        ``False`` when this node has no part in it.

        Under native collision detection the second slot (and the
        distinguished parent) are unnecessary: the leader reads the
        outcome straight off slot ``base + 1``.
        """
        if (
            not self.was_leader
            and self.first_sender == holder
            and lo <= self.label <= hi
        ):
            self.scheduled[base + 1] = EchoReply(self.label)
            if not self.native_cd:
                self.scheduled[base + 2] = EchoReply(self.label)
        elif self.label == parent and not self.native_cd:
            self.scheduled[base + 2] = EchoReply(self.label)
        else:
            return False
        return None

    # -- leader side ---------------------------------------------------------

    def _announce(self, slot: int) -> None:
        self.holding = True
        assert self.parent is not None
        self.scheduled[slot] = TokenAnnounce(
            holder=self.label, parent=self.parent, base_slot=slot
        )
        self._awaiting = ("announce", slot)
        self._echo_first = None

    def _conclude(self, kind: str, base: int, outcome: EchoOutcome, label: int | None) -> None:
        """Act on one probe outcome; the next order goes out right after
        the probe's observation window (1 slot with CD, 2 without)."""
        self._awaiting = None
        self._echo_first = None
        next_slot = base + (2 if self.native_cd else 3)
        if outcome is EchoOutcome.SINGLE:
            self._pass_leadership(next_slot, label)
            return
        if kind == "announce":
            if outcome is EchoOutcome.EMPTY:
                # No next layer: this leader sits in layer D.  Order every
                # neighbour to stop and stop as well (paper's termination).
                self.scheduled[next_slot] = StopAll()
                self.holding = False
            else:
                self._driver = SelectionDriver(self.r)
                self._emit_probe(next_slot, self._driver.current_probe)
        else:
            assert self._driver is not None
            step = self._driver.feed(outcome, label)
            if isinstance(step, Selected):
                self._driver = None
                self._pass_leadership(next_slot, step.label)
            else:
                self._emit_probe(next_slot, step)

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

    def _pass_leadership(self, slot: int, to: int) -> None:
        self.scheduled[slot] = TokenPass(to=to, from_label=self.label)
        self.holding = False
        self._driver = None


def _reply_label(message: Message | None) -> int | None:
    if message is None:
        return None
    payload = message.payload
    if isinstance(payload, EchoReply):
        return payload.label
    raise ProtocolViolationError(
        f"non-EchoReply payload {payload!r} observed in an Echo slot"
    )


class CompleteLayeredBroadcast(BroadcastAlgorithm):
    """Leader-chain broadcast for complete layered networks (Theorem 4).

    Correct on complete layered networks only — that is the class the
    theorem addresses.  On other topologies the membership rule can select
    leaders that do not wake everything; callers wanting a universal
    algorithm should use :class:`~repro.core.select_and_send.SelectAndSend`.
    """

    deterministic = True

    def __init__(self, native_cd: bool = False) -> None:
        """Args:
            native_cd: Run under the collision-detection model variant —
                each probe costs one slot instead of an Echo pair, and no
                distinguished parent is needed.  The engine must be run
                with ``collision_detection=True``.  This is the Section
                4.1 ablation: it measures exactly what simulating
                collision detection costs.
        """
        self.native_cd = native_cd
        self.name = "complete-layered" + ("+cd" if native_cd else "")

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _CompleteLayeredProtocol(label, r, rng, native_cd=self.native_cd)

    def max_steps_hint(self, n: int, r: int) -> int | None:
        log_r = max(1, (r + 1).bit_length())
        return 2 * r + 8 + (n + 2) * (6 * log_r + 30)

    def stage_hints(self, steps, trace=None) -> list[str | None]:
        """Split a recorded run at the source's ``InitStop`` (its second
        transmission): Part 1 startup vs the leader-chain phases."""
        return startup_stages(steps, trace, "leader-chain")
