"""Protocol and algorithm abstractions.

A *protocol* is the per-node program.  The paper's model is uniform: every
node runs the same program, parameterised only by its own label and the
label bound ``r`` (Section 1.3).  An *algorithm* is the factory that
instantiates the protocol at every node.

Lifecycle enforced by the engine
--------------------------------

1.  A node starts *asleep*.  Asleep nodes never transmit (the model forbids
    spontaneous transmissions) and observe nothing — in the paper's terms
    their history is the empty history, and the action function is 0 on the
    empty history.
2.  When the node first receives a message (or, for the source, at step 0
    before the first slot) the engine calls :meth:`Protocol.on_wake`.
3.  In every subsequent slot the engine calls :meth:`Protocol.next_action`;
    returning a payload means *transmit*, returning ``None`` means *listen*.
4.  After the slot resolves, the engine calls :meth:`Protocol.observe` with
    the received message, or ``None`` for silence **or** collision (the two
    are indistinguishable) **or** if the node itself transmitted
    (half-duplex: a transmitter hears nothing).  It may return ``False``
    to report that the outcome changed nothing the node's hooks read
    (see :meth:`Protocol.observe`).

Because a protocol's behaviour is a pure function of
``(label, r, wake observation, subsequent observations)`` for deterministic
algorithms, the lower-bound adversary of Section 3 can extract the paper's
action function pi(v, H) simply by feeding abstract histories through a
protocol instance (see :mod:`repro.adversary.histories`).

Oblivious algorithms
--------------------

A protocol is *oblivious* when its decision to transmit in slot ``t``
depends only on ``(t, label, wake slot, coin flips)``, never on received
message contents: both randomized algorithms studied in the paper
(Kowalski–Pelc stages and BGI Decay) and the round-robin,
selective-family and centralized schedules.  Such algorithms also
implement :class:`VectorizedAlgorithm`, one ``macro_plan`` hook that
describes their schedule in :class:`~repro.sim.macro.MacroPlan` blocks,
and so run on the macro engine.  *Adaptive* algorithms — the paper's
token algorithms — run on the per-node engines, whose fast path is the
event-driven engine driven by :meth:`Protocol.quiet_until` hints.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Protocol as TypingProtocol, runtime_checkable

from .errors import ConfigurationError
from .messages import SOURCE_PAYLOAD, Message

__all__ = [
    "Protocol",
    "BroadcastAlgorithm",
    "ObliviousTransmitter",
    "QUIET_FOREVER",
    "VectorizedAlgorithm",
]

#: Sentinel return value for :meth:`Protocol.quiet_until`: the node will
#: stay quiet until some future message re-activates it.  Far above any
#: reachable slot number yet small enough that ``slot + QUIET_FOREVER``
#: arithmetic cannot overflow 64-bit integers.
QUIET_FOREVER: int = 1 << 62


class Protocol(ABC):
    """Per-node program.  Subclasses implement the node's behaviour.

    Attributes:
        label: This node's label (the only identity it knows).
        r: The public upper bound on labels; ``r`` is linear in ``n``.
        rng: Private randomness source, deterministic per (run seed, label).
            Deterministic protocols must not touch it.
        wake_step: Step at which the node woke, or ``None`` while asleep.
            Set by the engine; ``-1`` for the source (awake before step 0).
    """

    def __init__(self, label: int, r: int, rng: random.Random) -> None:
        self.label = label
        self.r = r
        self.rng = rng
        self.wake_step: int | None = None

    @abstractmethod
    def on_wake(self, step: int, message: Message | None) -> None:
        """Called once, when the node becomes informed.

        Args:
            step: The slot in which the first message arrived; ``-1`` for
                the source, which is informed before the execution starts.
            message: The waking message, or ``None`` for the source.
        """

    @abstractmethod
    def next_action(self, step: int) -> Any | None:
        """Decide this slot's action.

        Returns:
            The payload to transmit, or ``None`` to listen.  The engine
            wraps payloads into :class:`~repro.sim.messages.Message` tagged
            with this node's label.
        """

    def observe(self, step: int, message: Message | None) -> bool | None:
        """Receive the outcome of slot ``step``.

        ``message`` is ``None`` when the node transmitted itself, when no
        in-neighbour transmitted, or when two or more did (collision) — the
        model makes these cases indistinguishable.  Protocols that only act
        on their own clock may ignore this hook.

        Returning ``False`` is a second, opt-in promise: the observation
        changed nothing that :meth:`next_action`, :meth:`quiet_until` or a
        later ``observe`` reads, so a quiet promise the node made before
        still holds and the event-driven engine need not re-query it after
        this delivery.  Any other return value (``None``, the default of a
        plain ``def``) makes no such promise.  This base implementation
        ignores every observation, so it returns ``False``.
        """
        return False

    def quiet_until(self, step: int) -> int:
        """Idle hint: the first slot at or after ``step`` needing attention.

        Returning ``s > step`` is a *promise* covering every slot ``t`` in
        ``[step, s)``: the node would return ``None`` from
        :meth:`next_action` at ``t``, and observing silence (or the
        collision marker) at ``t`` would not change its behaviour.  The
        promise says nothing about slots ``>= s`` and is void as soon as a
        message is delivered to the node — the event-driven engine
        re-queries the hint after every delivery, unless :meth:`observe`
        returned ``False`` for it (the delivery changed nothing the hint
        reads, so the promise stands).  Returning ``step``
        itself (the default) makes no promise at all: the node is polled
        every slot, exactly as on the reference engine.

        Returning :data:`QUIET_FOREVER` means "quiet until spoken to".
        The hint is consulted only by
        :class:`~repro.sim.event.EventDrivenEngine`; the reference
        engine ignores it, which is what the differential suite uses to
        prove hints sound.  The full contract is specified in
        ``docs/MODEL.md``.
        """
        return step

    # ------------------------------------------------------------------

    def coin(self, step: int) -> float:
        """Slot-indexed transmission coin in ``[0, 1)`` for slot ``step``.

        Randomized *transmission decisions* must draw through this hook
        rather than ``self.rng.random()``: the coin of ``(seed, label,
        step)`` is a pure hash (see :mod:`repro.sim.coins`), so the
        vectorised engines can evaluate the very same flips as arrays and
        batched execution stays bit-identical to the reference engine.
        ``self.rng`` remains available for free-form randomness that has no
        vectorised counterpart.
        """
        coin = getattr(self.rng, "coin", None)
        if coin is not None:
            return coin(step)
        # Plain random.Random (protocol constructed outside an engine):
        # fall back to the sequential stream — same distribution, no
        # cross-engine equality guarantee.
        return self.rng.random()

    @property
    def awake(self) -> bool:
        """Whether the node has been informed yet."""
        return self.wake_step is not None


class BroadcastAlgorithm(ABC):
    """Factory for per-node protocols; represents one broadcasting algorithm.

    Attributes:
        name: Short human-readable identifier used in results and tables.
        deterministic: True when the protocol never consults its RNG.  The
            lower-bound adversary (Section 3) only applies to deterministic
            algorithms.
    """

    name: str = "abstract"
    deterministic: bool = False

    @abstractmethod
    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        """Instantiate the protocol for the node with the given label."""

    def max_steps_hint(self, n: int, r: int) -> int | None:
        """Optional cap on how long a run of this algorithm can be useful.

        Drivers use this to choose a default step limit; ``None`` means the
        caller must supply one.
        """
        return None

    def stage_hints(self, steps, trace=None) -> list[str | None]:
        """Name the schedule stage each slot in ``steps`` belongs to.

        Purely *post-hoc*: the forensics layer
        (:mod:`repro.obs.forensics`) calls this once per recorded run to
        charge each slot to the stage that spent it (Decay phases, KP
        stage sweeps, token-traversal phases).  Engines never call it, so
        the hook costs nothing at execution time, and because it is a
        pure function of ``(algorithm configuration, steps, trace)`` —
        never of engine internals — stage attribution is identical across
        engines whenever the traces are.

        Args:
            steps: Global slot numbers (0-based), an ``int64`` array.
            trace: The run's :class:`~repro.sim.trace.Trace` at
                ``TraceLevel.FULL``, for algorithms whose stage boundaries
                depend on the execution (the token algorithms).  Oblivious
                schedules ignore it.

        Returns:
            One short stage label per slot, or ``None`` where the
            algorithm has no stage structure (the default) or cannot
            attribute the slot.
        """
        return [None] * len(steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ObliviousTransmitter(Protocol):
    """Base class for *oblivious* protocols.

    An oblivious protocol's transmission decisions depend only on the global
    step number, its label, and its wake step — never on message contents or
    on what it heard after waking.  Both randomized algorithms in the paper
    (Kowalski–Pelc stages and BGI Decay) and the deterministic baselines
    (round-robin, selective families, the centralized schedule) are
    oblivious: each also describes its schedule as
    :class:`~repro.sim.macro.MacroPlan` blocks, which the macro engine
    executes over numpy arrays.  These per-node protocols are the
    fidelity oracle for those plans.

    Subclasses implement :meth:`wants_to_transmit`; the source message is
    the only payload ever sent.
    """

    def on_wake(self, step: int, message: Message | None) -> None:
        """Oblivious protocols keep no message state; nothing to record."""

    @abstractmethod
    def wants_to_transmit(self, step: int) -> bool:
        """Whether to transmit the source message in slot ``step``."""

    def next_action(self, step: int) -> Any | None:
        return SOURCE_PAYLOAD if self.wants_to_transmit(step) else None


@runtime_checkable
class VectorizedAlgorithm(TypingProtocol):
    """Structural interface for algorithms runnable on the macro engine.

    An oblivious algorithm describes its schedule once per block as a
    :class:`~repro.sim.macro.MacroPlan`.  Implementors also subclass
    :class:`BroadcastAlgorithm`: the per-node protocols of ``create()``
    run on the other engines and are the fidelity oracle every plan is
    held to.
    """

    name: str
    deterministic: bool

    def macro_plan(self, start: int, count: int, r: int):
        """The schedule's slots ``start .. start + count - 1`` as one
        :class:`~repro.sim.macro.MacroPlan`.

        The plan is the algorithm's only array-side description: it may
        depend on the steps and ``r`` (the public label bound) but on no
        run state, so the engine can ask for any block in any order and
        a union of trials shares it.
        """
        ...  # pragma: no cover - protocol definition


def _check_vectorized(algorithm) -> None:
    if not isinstance(algorithm, VectorizedAlgorithm):
        raise ConfigurationError(
            f"{algorithm!r} does not implement the vectorised interface"
        )
