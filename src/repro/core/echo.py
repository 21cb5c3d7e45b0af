"""Simulated collision detection: Echo and Binary-Selection (Section 4.1).

The radio model has no collision detection — a node cannot distinguish two
simultaneous transmitters from silence.  Kowalski & Pelc simulate it with
the two-slot procedure ``Echo(w, A)`` run by a node ``v`` with a
distinguished, already-known neighbour ``w`` not in ``A``:

* slot 1: every node in ``A`` transmits;
* slot 2: every node in ``A`` and also ``w`` transmit.

Three observable outcomes at ``v``:

=========  =========  ======================================
slot 1     slot 2     conclusion
=========  =========  ======================================
message    silence    ``|A| == 1`` (and v learns the label)
silence    message    ``A`` is empty (w was heard alone)
silence    silence    ``|A| >= 2`` (both slots collided)
=========  =========  ======================================

On top of Echo, ``Binary-Selection`` finds one element of an unknown set
``S`` of labels in ``O(log m)`` Echo segments: doubling probes
``S & [1..2^k]`` until non-empty, then binary search inside the last
doubling interval.  This module provides the *decision logic* as a pure
state machine (:class:`SelectionDriver`) shared by Select-and-Send
(Section 4.2) and Complete-Layered (Section 4.3), plus the message payload
types those protocols put on the air.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..sim.errors import ProtocolViolationError
from ..sim.protocol import QUIET_FOREVER

__all__ = [
    "EchoOutcome",
    "Probe",
    "Selected",
    "Empty",
    "SelectionDriver",
    "QuietEchoSchedule",
    "classify_echo",
    # Payloads shared by the deterministic token algorithms.
    "InitOrder",
    "HereIAm",
    "InitStop",
    "TokenAnnounce",
    "EchoProbe",
    "EchoReply",
    "TokenPass",
    "StopAll",
    "startup_boundary",
]


class EchoOutcome(enum.Enum):
    """What ``v`` concludes from one Echo segment."""

    EMPTY = "empty"
    SINGLE = "single"
    MANY = "many"


def classify_echo(first: int | None, second: int | None) -> tuple[EchoOutcome, int | None]:
    """Decode the two observation slots of ``Echo(w, A)``.

    Args:
        first: Label received in slot 1 (None for silence/collision).
        second: Label received in slot 2.

    Returns:
        ``(outcome, label)`` — the label of the unique element when the
        outcome is SINGLE, else ``None``.
    """
    if first is not None:
        return EchoOutcome.SINGLE, first
    if second is not None:
        return EchoOutcome.EMPTY, None
    return EchoOutcome.MANY, None


# ----------------------------------------------------------------------
# Selection state machine
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Probe:
    """Next action: run Echo on ``S & [lo..hi]``."""

    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class Selected:
    """Selection finished: ``label`` is the unique element found."""

    label: int


@dataclass(frozen=True, slots=True)
class Empty:
    """The whole ground set turned out to be empty (only possible when the
    initial full-set probe was skipped)."""


class SelectionDriver:
    """Pure decision logic of ``Binary-Selection`` with doubling.

    The caller runs the radio side (Echo segments) and feeds outcomes in;
    the driver answers with the next probe range or the selected label.
    Keeping this logic radio-free lets tests exercise it exhaustively
    against arbitrary hidden sets.

    The driver assumes the hidden set ``S`` is a fixed non-empty subset of
    ``{1, ..., r}`` (label 0 — the source — is always visited, hence never
    selectable) and that outcomes are truthful; an impossible outcome
    sequence raises :class:`ProtocolViolationError`.

    Args:
        r: Upper bound on labels.
        known_many: Set True when a prior full-set Echo already proved
            ``|S| >= 2`` (both token algorithms know this before selecting).
    """

    def __init__(self, r: int, known_many: bool = True):
        if r < 1:
            raise ProtocolViolationError(f"label bound must be positive, got {r}")
        self.r = r
        self._phase = "doubling"
        self._k = 1
        self._lo = 1  # binary phase: interval [lo..hi] holding >= 2 elements
        self._hi = r
        self._probe = Probe(1, min(2, r))
        self._done: Selected | None = None
        self._known_many = known_many

    @property
    def current_probe(self) -> Probe:
        """The range the caller should Echo next."""
        if self._done is not None:
            raise ProtocolViolationError("selection already finished")
        return self._probe

    @property
    def finished(self) -> Selected | None:
        return self._done

    def feed(self, outcome: EchoOutcome, label: int | None = None) -> Probe | Selected:
        """Consume one Echo outcome for :attr:`current_probe`.

        Returns:
            The next :class:`Probe` to run, or :class:`Selected` when done.
        """
        if self._done is not None:
            raise ProtocolViolationError("selection already finished")
        if outcome is EchoOutcome.SINGLE:
            if label is None:
                raise ProtocolViolationError("SINGLE outcome must carry the label")
            self._done = Selected(label)
            return self._done

        if self._phase == "doubling":
            if outcome is EchoOutcome.EMPTY:
                if self._probe.hi >= self.r:
                    raise ProtocolViolationError(
                        "S & [1..r] empty although the set was known non-empty"
                    )
                self._k += 1
                self._probe = Probe(1, min(1 << self._k, self.r))
                return self._probe
            # MANY inside [1..2^k].  The previous doubling probe (if any)
            # was empty, so all elements lie in (2^(k-1), 2^k]; binary
            # search that interval, which holds at least two elements.
            self._phase = "binary"
            self._lo = 1 if self._k == 1 else (1 << (self._k - 1)) + 1
            self._hi = self._probe.hi
            return self._next_binary_probe()

        # Binary phase: the probe was the left half [lo..mid] of [lo..hi].
        if outcome is EchoOutcome.MANY:
            self._hi = self._probe.hi
        else:  # EMPTY: everything sits in the right half
            self._lo = self._probe.hi + 1
            if self._lo > self._hi:
                raise ProtocolViolationError(
                    "binary selection interval emptied; Echo outcomes inconsistent"
                )
        return self._next_binary_probe()

    def _next_binary_probe(self) -> Probe:
        """Probe the left half of ``[lo..hi]`` (paper: ``{x..(y+x-1)/2}``).

        The interval always holds >= 2 set elements, so ``lo < hi`` and the
        left half is a strict sub-interval: halving terminates with a
        SINGLE outcome after at most ``log2`` width steps.
        """
        if self._lo >= self._hi:
            raise ProtocolViolationError(
                "binary selection interval degenerate; Echo outcomes inconsistent"
            )
        mid = (self._lo + self._hi - 1) // 2
        self._probe = Probe(self._lo, mid)
        return self._probe

    def segments_used_bound(self) -> int:
        """Upper bound on Echo segments one full selection can take."""
        log_r = max(1, (self.r).bit_length())
        return 2 * (log_r + 2)


def simulate_selection(driver: SelectionDriver, hidden: set[int]) -> Selected:
    """Run a driver against a known hidden set (test/diagnostic helper).

    Emulates perfect Echo outcomes for each probe and returns the selected
    label.  Mirrors exactly what the radio protocols do, minus the radio.
    """
    if not hidden:
        raise ProtocolViolationError("hidden set must be non-empty")
    probe = driver.current_probe
    while True:
        members = [x for x in hidden if probe.lo <= x <= probe.hi]
        if len(members) == 1:
            outcome, label = EchoOutcome.SINGLE, members[0]
        elif not members:
            outcome, label = EchoOutcome.EMPTY, None
        else:
            outcome, label = EchoOutcome.MANY, None
        step = driver.feed(outcome, label)
        if isinstance(step, Selected):
            return step
        probe = step


# ----------------------------------------------------------------------
# Idle hint shared by the Echo-timeline protocols
# ----------------------------------------------------------------------


class QuietEchoSchedule:
    """`quiet_until` implementation for the Echo-timeline token protocols.

    Both deterministic token algorithms (Select-and-Send and
    Complete-Layered) drive the channel through exactly two mechanisms:

    * a slot-keyed ``scheduled`` dict of pending transmissions (orders,
      Echo replies, token passes), popped by ``next_action``; and
    * a holder-side observation window ``_awaiting = (kind, base_slot)``
      open from the order at ``base_slot`` until the outcome is decided
      — the only span where *silence is information* (an Echo outcome).

    Outside those, the protocols are purely reactive: ``observe`` ignores
    silence and collision markers, so the earliest slot needing attention
    is the earliest scheduled transmission — or the first observation
    slot ``base_slot + 1`` while a window is open (the window closes when
    ``_awaiting`` is cleared, after 2 Echo slots, or 1 under native
    collision detection).  A stopped node is terminally quiet.  Message
    deliveries re-activate a node regardless of any promise — the
    event-driven :class:`~repro.sim.event.EventDrivenEngine` (which the
    ``event`` engine runs once per seed) re-queries this hint after
    every delivery that ``observe`` does not report a no-op, which is
    what makes returning :data:`~repro.sim.protocol.QUIET_FOREVER` safe
    (contract: ``docs/MODEL.md``).

    The hint is hot — the event engine re-polls every busy node after
    each of its slots — so the common case (a transmission scheduled for
    the current slot) short-circuits before the scheduled-dict scan.
    """

    def quiet_until(self, step: int) -> int:
        if self.stopped:
            return QUIET_FOREVER  # terminal: never transmits again
        if step in self.scheduled:
            return step  # transmitting now: no earlier bound can matter
        awaiting = self._awaiting
        bound = QUIET_FOREVER
        if awaiting is not None:
            first = awaiting[1] + 1  # first Echo observation slot
            if step >= first:
                return step  # inside the window: silence is information
            bound = first
        for slot in self.scheduled:
            if step <= slot < bound:
                bound = slot
        return bound


# ----------------------------------------------------------------------
# Payloads for the token-based deterministic algorithms
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InitOrder:
    """Source's startup order, sent in slot 0: neighbour with label ``i``
    replies in slot ``2 i``."""


@dataclass(frozen=True, slots=True)
class HereIAm:
    """A source neighbour announcing itself in its reserved slot."""

    label: int


@dataclass(frozen=True, slots=True)
class InitStop:
    """Source ends the reply phase and hands the token to ``token_to``."""

    token_to: int


@dataclass(frozen=True, slots=True)
class TokenAnnounce:
    """Token holder (re)announces itself and opens a full-set Echo.

    Slots ``base_slot + 1`` / ``base_slot + 2`` are the Echo pair over the
    holder's unvisited neighbours with the holder's parent as the
    distinguished node.
    """

    holder: int
    parent: int
    base_slot: int


@dataclass(frozen=True, slots=True)
class EchoProbe:
    """One Binary-Selection segment: Echo over labels in ``[lo..hi]``."""

    holder: int
    parent: int
    lo: int
    hi: int
    base_slot: int


@dataclass(frozen=True, slots=True)
class EchoReply:
    """An Echo responder transmitting its label."""

    label: int


@dataclass(frozen=True, slots=True)
class TokenPass:
    """Hand the token from ``from_label`` to ``to``.

    ``returning`` marks a pass back to the DFS parent (the receiver keeps
    its original parent in that case).
    """

    to: int
    from_label: int
    returning: bool = False


@dataclass(frozen=True, slots=True)
class StopAll:
    """DFS complete: the source observed an empty unvisited set."""


def startup_boundary(trace) -> int | None:
    """First slot of the post-startup phase of a token algorithm's run.

    Both deterministic token algorithms share Part 1: the initiator
    transmits ``InitOrder`` (its first transmission), collects ``HereIAm``
    replies, and ends the round-robin with ``InitStop`` — its *second*
    transmission.  Everything after that slot is traversal (DFS token or
    leader chain).  This reads only the recorded trace's transmitter
    column, so stage attribution is a pure function of the trace and
    therefore identical across engines whenever the traces are.

    Args:
        trace: A :class:`~repro.sim.trace.Trace` at ``TraceLevel.FULL``.

    Returns:
        The first traversal slot, or ``None`` when the trace is not FULL,
        has no initially-informed root, or never left startup.
    """
    from ..sim.trace import TraceLevel

    if trace is None or trace.level is not TraceLevel.FULL:
        return None
    roots = trace.initially_informed()
    if len(roots) != 1:
        return None
    cols = trace.columns()
    sent = np.flatnonzero(cols.transmitters == roots[0])
    if sent.size < 2:
        return None
    # The slot owning transmitter entry ``sent[1]``.
    slot = int(np.searchsorted(cols.tx_ptr, sent[1], side="right")) - 1
    return int(cols.steps[slot]) + 1


def startup_stages(steps, trace, later: str) -> list[str | None]:
    """Stage names of a token algorithm's slots ``steps`` (an ``int64``
    array): ``"startup"`` before :func:`startup_boundary`, ``later`` from
    it on (all ``"startup"`` when the run never left startup), ``None``
    for every slot when the trace is not ``FULL``."""
    boundary = startup_boundary(trace)
    if boundary is None:
        from ..sim.trace import TraceLevel

        full = trace is not None and trace.level is TraceLevel.FULL
        return ["startup" if full else None] * len(steps)
    return np.where(steps < boundary, "startup", later).tolist()
