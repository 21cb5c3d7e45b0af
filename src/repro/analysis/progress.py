"""Broadcast progress analytics.

How a broadcast *unfolds* is as informative as its total time: randomized
schemes inform in waves, token algorithms in a crawl, and the adversarial
networks force long plateaus.  These helpers turn the per-node wake times
recorded in every :class:`~repro.sim.run.BroadcastResult` into progress
curves, milestones and front speeds, plus energy accounting from full
traces (transmissions are what drain ad hoc batteries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.run import BroadcastResult
from ..sim.trace import Trace, TraceLevel

__all__ = [
    "progress_curve",
    "initially_informed",
    "milestones",
    "front_speed",
    "Milestones",
    "transmissions_per_node",
    "ascii_sparkline",
    "progress_table_rows",
]


def initially_informed(result: BroadcastResult) -> int:
    """Nodes informed before any slot ran (wake time ``< 0``) — the source.

    Coverage analytics need this separately from :func:`progress_curve`:
    a zero-slot run (single-node network) has an *empty* curve, yet its
    source already constitutes full coverage.
    """
    return sum(1 for wake in result.wake_times.values() if wake < 0)


def progress_curve(result: BroadcastResult) -> list[int]:
    """Informed-node count after each slot.

    ``curve[t]`` is how many nodes held the source message after slot
    ``t`` completed; the list spans slots ``0 .. result.time - 1`` and is
    non-decreasing by construction.  A completed zero-slot run (the
    degenerate single-node network, ``result.time == 0``) yields the
    empty curve — its coverage lives entirely in
    :func:`initially_informed`.
    """
    length = max(0, result.time)
    curve = [0] * length
    # A node woken in slot w counts from index w on; the source (wake -1)
    # counts from the start.  Bump at each wake slot, then prefix-sum.
    bumps = [0] * (length + 1)
    for wake in result.wake_times.values():
        bumps[max(0, min(length, wake if wake >= 0 else 0))] += 1
    running = 0
    for index in range(length):
        running += bumps[index]
        curve[index] = running
    return curve


@dataclass(frozen=True)
class Milestones:
    """Slots needed to reach coverage milestones.

    ``None`` marks milestones the (possibly incomplete) run never reached.
    """

    half: int | None
    ninety: int | None
    full: int | None


def milestones(result: BroadcastResult) -> Milestones:
    """Slots to 50% / 90% / 100% coverage.

    A milestone already met before slot 0 — the source alone reaching the
    threshold, as in the single-node network — costs zero slots.
    """
    curve = progress_curve(result)
    total = result.n
    initial = initially_informed(result)

    def first_reaching(fraction: float) -> int | None:
        threshold = fraction * total
        if initial >= threshold:
            return 0
        for slot, count in enumerate(curve):
            if count >= threshold:
                return slot + 1
        return None

    return Milestones(
        half=first_reaching(0.5),
        ninety=first_reaching(0.9),
        full=first_reaching(1.0) if result.completed else None,
    )


def front_speed(result: BroadcastResult) -> float | None:
    """Average slots per BFS layer, or None when no layer completed.

    The information front needs at least one slot per layer (the trivial
    ``D`` lower bound); this ratio measures how far above it a run sits.
    """
    completed = [t for t in result.layer_times if t is not None]
    if len(completed) <= 1:
        return None
    return (completed[-1] + 1) / (len(completed) - 1)


def transmissions_per_node(trace: Trace) -> dict[int, int]:
    """How often each node that transmitted did so, in label order (energy
    proxy; needs a FULL trace)."""
    if trace.level is not TraceLevel.FULL:
        raise ValueError("transmission accounting requires TraceLevel.FULL")
    labels, counts = np.unique(trace.columns().transmitters, return_counts=True)
    return dict(zip(labels.tolist(), counts.tolist()))


_SPARK_CHARS = " .:-=+*#%@"


def ascii_sparkline(values: list[float], width: int = 60) -> str:
    """Compress a numeric series into a one-line ASCII sparkline."""
    if not values:
        return ""
    if len(values) > width:
        bucket = len(values) / width
        values = [
            values[min(len(values) - 1, int(index * bucket))]
            for index in range(width)
        ]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(
        _SPARK_CHARS[int((value - low) / span * (len(_SPARK_CHARS) - 1))]
        for value in values
    )


def progress_table_rows(results: dict[str, BroadcastResult]) -> list[list[object]]:
    """Milestone comparison rows for a set of named results."""
    rows: list[list[object]] = []
    for name, result in results.items():
        marks = milestones(result)
        speed = front_speed(result)
        rows.append(
            [
                name,
                result.time,
                marks.half if marks.half is not None else "-",
                marks.ninety if marks.ninety is not None else "-",
                marks.full if marks.full is not None else "-",
                f"{speed:.1f}" if speed is not None else "-",
            ]
        )
    return rows
