"""Execution traces.

Traces serve three audiences: tests (asserting exact channel behaviour),
the lower-bound adversary verifier (comparing real histories against
abstract ones, Lemma 9), and humans (step-by-step walkthroughs in the
examples).  Recording is opt-in and levelled.

A ``TraceLevel.FULL`` trace is stored as columns (:class:`TraceColumns`):
per-slot counts plus flat ``int64`` label arrays of transmitters,
delivery ``(receiver, sender)`` pairs, collision receivers and woken
nodes.  The per-node engines append slot by slot (:meth:`Trace.record`)
or a whole silent run at once (:meth:`Trace.record_silent`); the macro
engine appends each trial's slots in bulk (:meth:`Trace.append_columns`).
Every byte appended is charged to a :class:`~repro.sim.guard.TraceBudget`
against :data:`~repro.sim.guard.FULL_TRACE_BYTE_LIMIT`.
:attr:`Trace.steps` is a lazy, read-only sequence of :class:`StepRecord`
objects built from the columns on access; the forensics layer reads the
columns directly.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .guard import TraceBudget

__all__ = ["TraceLevel", "StepRecord", "TraceColumns", "Trace"]


class TraceLevel(enum.Enum):
    """How much detail to record per step."""

    #: Record nothing (fastest; the default for benchmarks).
    NONE = 0
    #: Record per-step informed counts and newly woken nodes.
    PROGRESS = 1
    #: Record transmitters, deliveries and collisions for every step.
    FULL = 2


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Everything that happened on the channel in one slot.

    Attributes:
        step: Slot index (0-based).
        transmitters: Labels that transmitted, sorted.
        deliveries: Map receiver -> sender for every successful reception
            (exactly one transmitting in-neighbour).
        collisions: Receivers that had two or more transmitting
            in-neighbours this slot.  The nodes themselves cannot tell; this
            is the omniscient view used by tests and analyses.
        woken: Nodes informed for the first time in this slot.
    """

    step: int
    transmitters: tuple[int, ...]
    deliveries: dict[int, int]
    collisions: tuple[int, ...]
    woken: tuple[int, ...]


_EMPTY = np.empty(0, dtype=np.int64)


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass(frozen=True)
class TraceColumns:
    """A FULL trace's channel history as flat ``int64`` arrays.

    Slot ``i`` (slot number ``steps[i]``, increasing) owns
    ``tx_counts[i]`` consecutive entries of ``transmitters``,
    ``delivery_counts[i]`` of ``receivers``/``senders`` (pairs, by
    receiver), ``collision_counts[i]`` of ``collisions`` and
    ``woken_counts[i]`` of ``woken``; each slot's entries are sorted.
    All entries are node labels.
    """

    steps: np.ndarray
    tx_counts: np.ndarray
    transmitters: np.ndarray
    delivery_counts: np.ndarray
    receivers: np.ndarray
    senders: np.ndarray
    collision_counts: np.ndarray
    collisions: np.ndarray
    woken_counts: np.ndarray
    woken: np.ndarray

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls(*([_EMPTY] * 10))

    @classmethod
    def concatenate(cls, parts: list["TraceColumns"]) -> "TraceColumns":
        return cls(*(
            np.concatenate([getattr(part, name) for part in parts])
            for name in cls.__dataclass_fields__
        ))

    def __len__(self) -> int:
        return self.steps.size

    @cached_property
    def tx_ptr(self) -> np.ndarray:
        return _offsets(self.tx_counts)

    @cached_property
    def delivery_ptr(self) -> np.ndarray:
        return _offsets(self.delivery_counts)

    @cached_property
    def collision_ptr(self) -> np.ndarray:
        return _offsets(self.collision_counts)

    @cached_property
    def woken_ptr(self) -> np.ndarray:
        return _offsets(self.woken_counts)


class _Pending:
    """Slots appended by :meth:`Trace.record` not yet made columns."""

    # TraceColumns' fields, in order.
    __slots__ = (
        "step_numbers", "tx_counts", "transmitters", "delivery_counts", "receivers",
        "senders", "collision_counts", "collisions", "woken_counts", "woken",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])

    def columns(self) -> TraceColumns:
        return TraceColumns(*(
            np.array(getattr(self, name), dtype=np.int64)
            for name in self.__slots__
        ))


class _StepView(Sequence):
    """Read-only :class:`StepRecord` sequence over a trace's columns."""

    __slots__ = ("_trace",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace._slots

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, stride = index.indices(len(self))
            if stride != 1:
                return list(self)[index]
            return list(self._records(start, max(start, stop)))
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("trace step index out of range")
        return next(self._records(index, index + 1))

    def __iter__(self):
        return self._records(0, len(self))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_StepView, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} trace steps>"

    def _records(self, lo: int, hi: int):
        """Records ``lo .. hi - 1``, each row read from lists converted
        once per call."""
        if lo >= hi:
            return
        cols = self._trace.columns()

        def rows(values, ptr):
            bounds = ptr[lo:hi + 1]
            return (
                values[bounds[0]:bounds[-1]].tolist(),
                (bounds - bounds[0]).tolist(),
            )

        steps = cols.steps[lo:hi].tolist()
        tx, tp = rows(cols.transmitters, cols.tx_ptr)
        rcv, dp = rows(cols.receivers, cols.delivery_ptr)
        snd, _ = rows(cols.senders, cols.delivery_ptr)
        coll, cp = rows(cols.collisions, cols.collision_ptr)
        woken, wp = rows(cols.woken, cols.woken_ptr)
        for j, step in enumerate(steps):
            a, b = dp[j], dp[j + 1]
            yield StepRecord(
                step=step,
                transmitters=tuple(tx[tp[j]:tp[j + 1]]),
                deliveries=dict(zip(rcv[a:b], snd[a:b])),
                collisions=tuple(coll[cp[j]:cp[j + 1]]),
                woken=tuple(woken[wp[j]:wp[j + 1]]),
            )


class _ColumnWakes(Mapping):
    """``label -> wake slot`` read from an array engine's woken column.

    Read-only, and built on first read rather than per append: ``len``
    is O(1), iteration runs in wake order (the order a per-node engine's
    dict is filled in), and a lookup binary-searches a label-sorted copy
    made on the first lookup.
    """

    __slots__ = ("labels", "slots", "_sorted")

    def __init__(self, labels: np.ndarray, slots: np.ndarray):
        self.labels, self.slots = labels, slots
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def __getitem__(self, label) -> int:
        try:
            label = operator.index(label)
        except TypeError:
            raise KeyError(label) from None
        if self._sorted is None:
            order = np.argsort(self.labels, kind="stable")
            self._sorted = (self.labels[order], self.slots[order])
        labels, slots = self._sorted
        i = int(np.searchsorted(labels, label))
        if i < labels.size and labels.item(i) == label:
            return slots.item(i)
        raise KeyError(label)

    def __iter__(self):
        return iter(self.labels.tolist())

    def __len__(self) -> int:
        return self.labels.size

    def items(self):
        return _ColumnItems(self)

    def values(self):
        return _ColumnValues(self)

    def __repr__(self) -> str:
        return f"{dict(self.items())!r}"


class _ColumnItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.labels.tolist(), self._mapping.slots.tolist())


class _ColumnValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.slots.tolist())


@dataclass(eq=False)
class Trace:
    """Accumulated trace of one run."""

    level: TraceLevel = TraceLevel.NONE
    informed_counts: list[int] = field(default_factory=list)
    #: Live fault tally (:class:`repro.sim.faults.FaultCounters`) when the
    #: engine runs under a fault plan; ``None`` on pristine executions.
    #: Set by the engine — the same object it increments, so it is always
    #: current, regardless of the trace level.
    fault_counters: "object | None" = None

    def __post_init__(self) -> None:
        self._slots = 0  # FULL slots recorded
        self._initial: list[int] = []
        self._parts: list[TraceColumns] = []
        self._pending: _Pending | None = None
        self._budget = None
        if self.level is TraceLevel.FULL:
            self._pending = _Pending()
            self._budget = TraceBudget()
        # Wake slots: a dict filled slot by slot (per-node engines), or
        # the woken columns of bulk appends (array engines) read once.
        self._wakes: dict[int, int] = {}
        self._columnar = False
        self._woken: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._column_wakes: _ColumnWakes | None = None

    @property
    def wake_times(self) -> Mapping[int, int]:
        """``label -> wake slot`` of every node seen informed, the
        initially informed ones at ``-1``; empty at ``NONE``.

        The per-node engines fill a dict slot by slot.  For the array
        engines' bulk appends it is a read-only mapping derived from the
        woken column on first read (and again after a later append), so
        recording a trace builds no per-node Python objects.
        """
        if not self._columnar:
            return self._wakes
        if self._column_wakes is None:
            if self.level is TraceLevel.FULL:
                cols = self.columns()
                parts = [(cols.steps, cols.woken_counts, cols.woken)]
            else:
                parts = self._woken
            initial = self._wakes
            self._column_wakes = _ColumnWakes(
                np.concatenate([np.fromiter(initial, np.int64, len(initial)),
                                *(woken for _, _, woken in parts)]),
                np.concatenate([
                    np.fromiter(initial.values(), np.int64, len(initial)),
                    *(np.repeat(steps, counts) for steps, counts, _ in parts),
                ]),
            )
        return self._column_wakes

    @property
    def steps(self) -> Sequence[StepRecord]:
        """Per-slot records (empty below ``FULL``), built lazily from the
        columns; ``len`` is O(1)."""
        return _StepView(self)

    def mark_initially_informed(self, label: int) -> None:
        """Record a node that holds the message before the execution starts.

        Engines call this for the source: its wake time is ``-1``, one
        slot before slot 0, matching the convention of
        ``SynchronousEngine.wake_times``.  With the marker in place every
        propagation DAG has a root — including the degenerate single-node
        network, whose trace otherwise records no wakes at all.
        """
        if self.level is TraceLevel.NONE:
            return
        self._wakes[label] = -1
        self._column_wakes = None
        self._initial.append(label)

    def initially_informed(self) -> tuple[int, ...]:
        """Labels informed before slot 0 (wake time ``< 0``), sorted."""
        wake = self.wake_times
        return tuple(sorted({v for v in self._initial if wake.get(v, 0) < 0}))

    def record(
        self,
        step: int,
        transmitters: tuple[int, ...],
        deliveries: dict[int, int],
        collisions: tuple[int, ...],
        woken: tuple[int, ...],
        informed: int,
    ) -> None:
        """Store one step at the configured level of detail."""
        if self.level is TraceLevel.NONE:
            return
        wakes = self._wakes
        for v in woken:
            wakes[v] = step
        self.informed_counts.append(informed)
        pending = self._pending
        if pending is None:
            return
        pending.step_numbers.append(step)
        pending.tx_counts.append(len(transmitters))
        pending.transmitters.extend(transmitters)
        receivers = sorted(deliveries)
        pending.delivery_counts.append(len(receivers))
        pending.receivers.extend(receivers)
        pending.senders.extend(map(deliveries.__getitem__, receivers))
        pending.collision_counts.append(len(collisions))
        pending.collisions.extend(collisions)
        pending.woken_counts.append(len(woken))
        pending.woken.extend(woken)
        self._slots += 1
        self._budget.charge(8 * (
            5 + len(transmitters) + 2 * len(deliveries) + len(collisions)
            + len(woken)
        ))

    def record_silent(self, start: int, count: int, informed: int) -> None:
        """Store ``count`` silent slots ``start, start + 1, ...`` in one
        call: one C-level extend per column, no per-slot Python work."""
        if self.level is TraceLevel.NONE or count <= 0:
            return
        self.informed_counts.extend(repeat(informed, count))
        pending = self._pending
        if pending is None:
            return
        pending.step_numbers.extend(range(start, start + count))
        for counts in (pending.tx_counts, pending.delivery_counts,
                       pending.collision_counts, pending.woken_counts):
            counts.extend(repeat(0, count))
        self._slots += count
        self._budget.charge(8 * 5 * count)

    def append_columns(self, columns: TraceColumns, informed: list[int]) -> None:
        """Append whole slots at once (the array engines' path).

        ``informed`` holds the informed count after each slot.  Only the
        woken column is kept below ``FULL``; :attr:`wake_times` is derived
        from it when read.  The caller has already charged the bytes
        against its own :class:`~repro.sim.guard.TraceBudget`.
        """
        if self.level is TraceLevel.NONE:
            return
        self.informed_counts.extend(informed)
        self._columnar = True
        self._column_wakes = None
        if self._pending is None:
            self._woken.append(
                (columns.steps, columns.woken_counts, columns.woken)
            )
            return
        self._flush()
        self._parts.append(columns)
        self._slots += len(columns)

    def _flush(self) -> None:
        pending = self._pending
        if pending.step_numbers:
            self._parts.append(pending.columns())
            self._pending = _Pending()

    def columns(self) -> TraceColumns:
        """The FULL history as one :class:`TraceColumns` (cached until the
        next append)."""
        self._require_full("columnar access")
        self._flush()
        if len(self._parts) != 1:
            self._parts = [
                TraceColumns.concatenate(self._parts)
                if self._parts else TraceColumns.empty()
            ]
        return self._parts[0]

    def _require_full(self, what: str) -> None:
        if self.level is not TraceLevel.FULL:
            raise ValueError(
                f"{what} requires TraceLevel.FULL; this trace was recorded "
                f"at TraceLevel.{self.level.name} — rerun with "
                f"trace_level=TraceLevel.FULL"
            )

    def total_transmissions(self) -> int:
        """Total number of (node, slot) transmissions — an energy proxy."""
        self._require_full("transmission counting")
        return int(self.columns().transmitters.size)

    def total_collisions(self) -> int:
        """Total number of (receiver, slot) collision events."""
        self._require_full("collision counting")
        return int(self.columns().collisions.size)

    def summary(self) -> dict:
        """Informed-curve statistics available from ``PROGRESS`` level up.

        Unlike the ``total_*`` / :meth:`format_timeline` views this never
        needs per-slot channel detail: it reads only ``informed_counts``
        and ``wake_times``, which ``PROGRESS`` already records.
        """
        if self.level is TraceLevel.NONE:
            raise ValueError(
                "trace summaries require at least TraceLevel.PROGRESS; "
                "this trace was recorded at TraceLevel.NONE"
            )
        counts = self.informed_counts
        wakes = [t for t in self.wake_times.values() if t >= 0]
        return {
            "level": self.level.name,
            "slots": len(counts),
            "informed_final": counts[-1] if counts else len(self.wake_times),
            "first_wake_slot": min(wakes) if wakes else None,
            "last_wake_slot": max(wakes) if wakes else None,
            "initially_informed": self.initially_informed(),
        }

    def format_timeline(self, max_steps: int | None = None) -> str:
        """Human-readable per-step timeline (used by examples)."""
        self._require_full("timeline formatting")
        lines = []
        for record in self.steps[:max_steps]:
            parts = [f"step {record.step:>5}: tx={list(record.transmitters)}"]
            if record.deliveries:
                got = ", ".join(f"{r}<-{s}" for r, s in sorted(record.deliveries.items()))
                parts.append(f"delivered [{got}]")
            if record.collisions:
                parts.append(f"collisions at {list(record.collisions)}")
            if record.woken:
                parts.append(f"woken {list(record.woken)}")
            lines.append("  ".join(parts))
        return "\n".join(lines)
