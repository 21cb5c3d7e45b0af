"""Post-hoc broadcast forensics: who informed whom, and what each slot bought.

A :class:`~repro.sim.trace.Trace` recorded at ``TraceLevel.FULL`` contains
the complete channel history of a run; this module condenses it into three
views that make an execution *arguable about*:

* the **propagation DAG** — every node's first-delivery parent, its depth,
  and the critical path from the source to the last-informed node.  This
  is the witness tree behind every completion time the repo reports: the
  broadcast took exactly as long as its deepest first-delivery chain.
* a **slot-attribution taxonomy** — each slot is charged to exactly one
  class (``productive`` / ``collision-wasted`` / ``redundant`` /
  ``silent``), with per-node transmission energy and per-slot collision
  hotspots.  The paper's progress arguments are exactly claims about the
  density of productive slots, so the taxonomy turns "why is Decay slower
  than the stage algorithm here?" into a table.
* **stage attribution** — slots grouped by the algorithm's own schedule
  structure (Decay probability scales, Kowalski–Pelc stage sweeps,
  Select-and-Send's startup vs token traversal) via
  :meth:`~repro.sim.protocol.BroadcastAlgorithm.stage_hints`.

Everything here is a pure function of the recorded trace (plus the
algorithm object for stage naming): no engine involvement, no randomness,
no timestamps.  Traces from any of the three engines are bit-identical
(the conformance suite asserts it), so forensic output is too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from ..analysis.tables import render_table
from ..sim.trace import Trace, TraceLevel
from .metrics import FRACTION_BUCKETS, MetricsRegistry, SLOT_BUCKETS

__all__ = [
    "SLOT_CLASSES",
    "PropagationDAG",
    "ForensicsReport",
    "build_dag",
    "classify_slot",
    "analyze",
    "record_forensics_metrics",
    "forensic_span_events",
]

#: The four mutually exclusive slot classes, in precedence order: a slot
#: with no transmitters is ``silent``; one that woke somebody is
#: ``productive``; one that only collided somewhere is
#: ``collision-wasted``; a transmission nobody new heard is ``redundant``.
SLOT_CLASSES: tuple[str, ...] = (
    "productive",
    "collision-wasted",
    "redundant",
    "silent",
)


_CLASS_NAMES = np.array(SLOT_CLASSES, dtype=object)


def _tally(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct labels, sorted, and how often each occurs: a ``bincount``
    when the labels are dense (node labels usually are; ~4x faster than a
    sort on small traces), else ``np.unique``."""
    if labels.size and int(labels.max()) < 4 * labels.size + 1024:
        counts = np.bincount(labels)
        distinct = counts.nonzero()[0]
        return distinct, counts[distinct]
    return np.unique(labels, return_counts=True)


def classify_slot(record) -> str:
    """Charge one :class:`~repro.sim.trace.StepRecord` to its slot class."""
    if not record.transmitters:
        return "silent"
    if record.woken:
        return "productive"
    if record.collisions:
        return "collision-wasted"
    return "redundant"


@dataclass(frozen=True, eq=False)
class PropagationDAG:
    """First-delivery tree of one run (a DAG with in-degree <= 1: a tree).

    Stored as arrays over the informed nodes — the root first, then the
    woken nodes in wake order (slot, then label).  The dict views are
    built on first access, one ``dict(zip(...))`` each.

    Attributes:
        root: The initially informed node (wake time ``-1``).
        nodes: Informed labels, root first, then in wake order.
        node_parents: Each node's first-delivery parent: the unique
            transmitter whose message woke it (collisions cannot wake, so
            the parent is well defined); ``-1`` for the root.
        node_wake_slots: Each node's wake slot; ``-1`` for the root.
        node_depths: Each node's hop distance from the root.
        critical_path: Root-to-leaf chain ending at the last-woken node
            (ties broken toward the lowest label) — the first-delivery
            chain whose length *is* the broadcast's depth cost.
    """

    root: int
    nodes: np.ndarray
    node_parents: np.ndarray
    node_wake_slots: np.ndarray
    node_depths: np.ndarray
    critical_path: tuple[int, ...]

    @cached_property
    def parents(self) -> dict[int, int]:
        """``child -> parent`` over every node woken during the run."""
        return dict(zip(self.nodes[1:].tolist(), self.node_parents[1:].tolist()))

    @cached_property
    def wake_slots(self) -> dict[int, int]:
        """``node -> wake slot``; ``-1`` for the root."""
        return dict(zip(self.nodes.tolist(), self.node_wake_slots.tolist()))

    @cached_property
    def depths(self) -> dict[int, int]:
        """``node -> hop distance`` from the root along parent edges."""
        return dict(zip(self.nodes.tolist(), self.node_depths.tolist()))

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        """``parent -> sorted children`` (inverse of :attr:`parents`)."""
        order = np.lexsort((self.nodes[1:], self.node_parents[1:]))
        kids = self.nodes[1:][order].tolist()
        owners, first = np.unique(self.node_parents[1:][order], return_index=True)
        bounds = [*first.tolist(), len(kids)]
        rows = map(kids.__getitem__, map(slice, bounds, bounds[1:]))
        return dict(zip(owners.tolist(), map(tuple, rows)))

    @property
    def depth(self) -> int:
        """Maximum hop depth (0 on a single-node network)."""
        return int(self.node_depths.max())

    @property
    def max_branching(self) -> int:
        """Largest number of children any node woke (0 when no wakes)."""
        if self.nodes.size == 1:
            return 0
        return int(np.unique(self.node_parents[1:], return_counts=True)[1].max())

    def to_dict(self) -> dict:
        order = np.argsort(self.nodes, kind="stable")
        nodes = self.nodes[order].tolist()
        woken = order[order > 0]
        return {
            "root": self.root,
            "parents": dict(zip(
                self.nodes[woken].tolist(), self.node_parents[woken].tolist()
            )),
            "wake_slots": dict(zip(nodes, self.node_wake_slots[order].tolist())),
            "depths": dict(zip(nodes, self.node_depths[order].tolist())),
            "depth": self.depth,
            "max_branching": self.max_branching,
            "critical_path": list(self.critical_path),
        }


def build_dag(trace: Trace) -> PropagationDAG:
    """Derive the propagation DAG from a ``FULL`` trace's columns.

    Each woken node's parent is the sender of the same slot's delivery
    to it (one sorted-key lookup for all of them); depths come from
    pointer jumping along the parent array, ``ceil(log2(depth))``
    vectorised rounds.

    Raises:
        ValueError: If the trace is not ``FULL``, has no initially
            informed root, or has several (forensics assumes single-source
            broadcast), or if a node woke without a recorded delivery.
    """
    trace._require_full("propagation DAG construction")
    roots = trace.initially_informed()
    if len(roots) != 1:
        raise ValueError(
            f"propagation DAG needs exactly one initially informed node, "
            f"found {len(roots)} ({list(roots)}); traces recorded before "
            f"the source marker existed cannot be analyzed"
        )
    root = roots[0]
    cols = trace.columns()
    woken = cols.woken
    slots = np.arange(len(cols))
    woken_slot = slots.repeat(cols.woken_counts)
    # (slot, receiver) keys: sorted, since each slot's receivers are.
    width = 1 + int(max(root, woken.max(initial=0), cols.receivers.max(initial=0)))
    delivered = slots.repeat(cols.delivery_counts) * width + cols.receivers
    wanted = woken_slot * width + woken
    at = np.minimum(delivered.searchsorted(wanted), max(0, delivered.size - 1))
    found = delivered[at] == wanted if delivered.size else np.zeros(woken.size, bool)
    if not found.all():
        miss = int(np.argmin(found))
        raise ValueError(
            f"malformed trace: node {int(woken[miss])} woke in slot "
            f"{int(cols.steps[woken_slot[miss]])} without a recorded delivery"
        )
    parents = cols.senders[at] if woken.size else woken
    # Depths by pointer jumping over node positions (root 0, the i-th
    # woken node i + 1): ``dist`` is the hop count to ``anc``, and each
    # round doubles the jump, so ceil(log2(depth)) rounds reach the root.
    nodes = np.concatenate(([root], woken))
    by_label = nodes.argsort(kind="stable")
    up = by_label[np.minimum(nodes[by_label].searchsorted(parents), nodes.size - 1)]
    if not np.array_equal(nodes[up], parents):
        miss = int(np.argmin(nodes[up] == parents))
        raise ValueError(
            f"malformed trace: node {int(woken[miss])} was woken by "
            f"{int(parents[miss])}, which was never informed"
        )
    anc = np.concatenate(([0], up))
    dist = np.ones(anc.size, dtype=np.int64)
    dist[0] = 0
    for _ in range(anc.size.bit_length()):
        if not anc.any():
            break
        dist += dist[anc]
        anc = anc[anc]
    else:
        if anc.any():
            raise ValueError("malformed trace: the delivery parents form a cycle")
    wake_slots = np.concatenate(([-1], cols.steps[woken_slot]))
    path = [0]
    if woken.size:
        # The last-woken node with the lowest label: the first entry of
        # the last wake slot (slots increase, each slot's woken sorted).
        path = [int(wake_slots.searchsorted(wake_slots[-1]))]
        parent_at = [0, *up.tolist()]
        while path[-1]:
            path.append(parent_at[path[-1]])
    return PropagationDAG(
        root=root,
        nodes=nodes,
        node_parents=np.concatenate(([-1], parents)),
        node_wake_slots=wake_slots,
        node_depths=dist,
        critical_path=tuple(nodes[path[::-1]].tolist()),
    )


@dataclass
class ForensicsReport:
    """Everything :func:`analyze` derived from one run's trace."""

    algorithm: str | None
    slots: int
    informed: int
    dag: PropagationDAG
    #: Per-slot class labels, index = slot (length :attr:`slots`).
    slot_labels: tuple[str, ...]
    #: Class -> slot count, every class present (possibly 0).
    slot_classes: dict[str, int]
    #: Node -> total transmissions (energy); only nodes that transmitted.
    energy: dict[int, int]
    #: ``(slot, colliding receivers)`` pairs, heaviest first (max 5).
    hotspots: tuple[tuple[int, int], ...]
    #: Stage name -> {slots, transmissions, collisions, wakes}, in first-
    #: occurrence order; empty when the algorithm names no stages.
    stages: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Per-slot stage names (``None`` where the algorithm named none);
    #: length :attr:`slots` when stages exist, else empty.
    stage_labels: tuple[str | None, ...] = ()

    # -- summary scalars ---------------------------------------------------

    @property
    def total_transmissions(self) -> int:
        return sum(self.energy.values())

    @property
    def wasted_slot_fraction(self) -> float:
        """Fraction of slots that were not productive (1.0 when 0 slots)."""
        if not self.slots:
            return 0.0
        return 1.0 - self.slot_classes["productive"] / self.slots

    @property
    def critical_path_depth(self) -> int:
        return self.dag.depth

    @property
    def redundancy_ratio(self) -> float:
        """Transmissions spent per node actually woken (energy efficiency)."""
        return self.total_transmissions / max(1, len(self.dag.parents))

    def scalars(self) -> dict:
        """The pinned summary scalars (golden-tested in E1/E4/E5)."""
        return {
            "slots": self.slots,
            "informed": self.informed,
            "total_transmissions": self.total_transmissions,
            "wasted_slot_fraction": round(self.wasted_slot_fraction, 6),
            "critical_path_depth": self.critical_path_depth,
            "redundancy_ratio": round(self.redundancy_ratio, 6),
        }

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "scalars": self.scalars(),
            "slot_classes": dict(self.slot_classes),
            "dag": self.dag.to_dict(),
            "energy": {int(k): int(v) for k, v in sorted(self.energy.items())},
            "hotspots": [list(pair) for pair in self.hotspots],
            "stages": {k: dict(v) for k, v in self.stages.items()},
        }

    def render(self) -> str:
        """Aligned-table walkthrough (what ``repro explain`` prints)."""
        scalars = self.scalars()
        header = (
            f"forensics: {self.algorithm or '<unknown algorithm>'} — "
            f"{self.slots} slots, {self.informed} informed"
        )
        blocks = [header]
        blocks.append(render_table(
            ["class", "slots", "fraction"],
            [
                [name, count, count / self.slots if self.slots else 0.0]
                for name, count in self.slot_classes.items()
            ],
            title="slot attribution",
        ))
        path = self.dag.critical_path
        shown = " -> ".join(str(v) for v in path) if len(path) <= 12 else (
            " -> ".join(str(v) for v in path[:6])
            + f" -> ... -> {path[-1]} ({len(path)} nodes)"
        )
        blocks.append(render_table(
            ["metric", "value"],
            [
                ["critical_path_depth", scalars["critical_path_depth"]],
                ["max_branching", self.dag.max_branching],
                ["wasted_slot_fraction", scalars["wasted_slot_fraction"]],
                ["redundancy_ratio", scalars["redundancy_ratio"]],
                ["total_transmissions", scalars["total_transmissions"]],
            ],
            title="propagation",
        ) + f"\ncritical path: {shown}")
        if self.stages:
            blocks.append(render_table(
                ["stage", "slots", "tx", "collisions", "wakes"],
                [
                    [name, s["slots"], s["transmissions"], s["collisions"], s["wakes"]]
                    for name, s in self.stages.items()
                ],
                title="stage attribution",
            ))
        if self.hotspots:
            blocks.append(render_table(
                ["slot", "colliding receivers"],
                [list(pair) for pair in self.hotspots],
                title="collision hotspots",
            ))
        top = sorted(self.energy.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        if top:
            blocks.append(render_table(
                ["node", "transmissions"],
                [[node, count] for node, count in top],
                title="energy (top transmitters)",
            ))
        return "\n\n".join(blocks)


def analyze(run, algorithm=None) -> ForensicsReport:
    """Build a :class:`ForensicsReport` from a run or a bare trace.

    Reads the trace's columns: slot classes and stage sums come from the
    per-slot count arrays, energy from one tally of the transmitter
    column, stage names from one
    :meth:`~repro.sim.protocol.BroadcastAlgorithm.stage_hints` call.

    Args:
        run: A :class:`~repro.sim.run.BroadcastResult` (its ``.trace`` is
            used) or a :class:`~repro.sim.trace.Trace`; must be recorded
            at ``TraceLevel.FULL``.
        algorithm: Optional algorithm *object*; when given, its
            :meth:`~repro.sim.protocol.BroadcastAlgorithm.stage_hints`
            names the stage each slot is charged to.
    """
    trace = getattr(run, "trace", run)
    if not isinstance(trace, Trace):
        raise TypeError(f"expected a BroadcastResult or Trace, got {run!r}")
    trace._require_full("forensic analysis")
    name = getattr(algorithm, "name", None) or getattr(run, "algorithm", None)
    dag = build_dag(trace)
    cols = trace.columns()
    tx, coll, woke = cols.tx_counts, cols.collision_counts, cols.woken_counts
    # Class codes index SLOT_CLASSES, in its precedence order.
    codes = np.where(
        tx == 0, 3, np.where(woke > 0, 0, np.where(coll > 0, 1, 2))
    )
    slot_classes = dict(zip(SLOT_CLASSES, np.bincount(codes, minlength=4).tolist()))
    senders, sends = _tally(cols.transmitters)
    hot = coll.nonzero()[0]
    hot = hot[np.lexsort((cols.steps[hot], -coll[hot]))[:5]]
    stages: dict[str, dict[str, int]] = {}
    stage_labels: list[str | None] = []
    hints = getattr(algorithm, "stage_hints", None)
    if hints is not None:
        stage_labels = hints(cols.steps, trace)
        named_stages = dict.fromkeys(stage_labels)  # first-occurrence order
        named_stages.pop(None, None)
        index = {stage: code for code, stage in enumerate(named_stages)}
        # Unnamed slots go to one extra bin, dropped from the sums.
        stage_codes = np.fromiter(
            map(index.get, stage_labels, repeat(len(index))),
            dtype=np.int64, count=len(stage_labels),
        )
        sums = [
            np.bincount(stage_codes, minlength=len(index) + 1)[:-1].tolist(),
            *(
                np.bincount(stage_codes, weights=counts, minlength=len(index) + 1)
                [:-1].astype(np.int64).tolist()
                for counts in (tx, coll, woke)
            ),
        ]
        stages = {
            stage: dict(zip(("slots", "transmissions", "collisions", "wakes"),
                            totals))
            for stage, totals in zip(index, zip(*sums))
        }
    return ForensicsReport(
        algorithm=name,
        slots=len(cols),
        informed=len(trace.wake_times),
        dag=dag,
        slot_labels=tuple(_CLASS_NAMES[codes].tolist()),
        slot_classes=slot_classes,
        energy=dict(zip(senders.tolist(), sends.tolist())),
        hotspots=tuple(zip(cols.steps[hot].tolist(), coll[hot].tolist())),
        stages=stages,
        stage_labels=tuple(stage_labels) if stages else (),
    )


def record_forensics_metrics(registry: MetricsRegistry, report: ForensicsReport) -> None:
    """Fold one report's summary scalars into a metrics registry.

    One observation per run: sweeps calling this per trial get mergeable
    distributions of the forensic scalars alongside the engine metrics.
    """
    registry.histogram(
        "forensics_wasted_slot_fraction", FRACTION_BUCKETS
    ).observe(report.wasted_slot_fraction)
    registry.histogram(
        "forensics_critical_path_depth", SLOT_BUCKETS
    ).observe(report.critical_path_depth)
    registry.histogram(
        "forensics_redundancy_ratio", FRACTION_BUCKETS + (2.0, 5.0, 10.0, 100.0)
    ).observe(report.redundancy_ratio)
    for name, count in report.slot_classes.items():
        registry.counter(f"forensics_slots_{name.replace('-', '_')}").inc(count)


def forensic_span_events(report: ForensicsReport) -> list[dict]:
    """Synthesize runlog-style span events from a report.

    The result feeds :func:`repro.obs.spans.write_trace` /
    :func:`~repro.obs.spans.export_trace_events` unchanged: one ``trial``
    span for the whole run on the lifecycle lane, plus ``stage`` spans —
    which the exporter gives one lane per distinct name — for contiguous
    slot-class runs (``slots.<class>``), DAG depth waves
    (``dag.depth[k]``), and algorithm stages (``stage.<name>``).
    Timestamps are in *slot* units; span ids are deterministic, so the
    export is byte-stable across engines and runs.
    """
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"fx{counter:06d}"

    root_id = next_id()
    events: list[dict] = [{
        "event": "span",
        "span_id": root_id,
        "parent_id": None,
        "trace_id": root_id,
        "name": f"run[{report.algorithm or 'unknown'}]",
        "kind": "trial",
        "start_ts": 0.0,
        "end_ts": float(max(1, report.slots)),
        "pid": 0,
        "attrs": dict(report.scalars()),
    }]

    def add(name: str, start: int, end: int, **attrs) -> None:
        events.append({
            "event": "span",
            "span_id": next_id(),
            "parent_id": root_id,
            "trace_id": root_id,
            "name": name,
            "kind": "stage",
            "start_ts": float(start),
            "end_ts": float(end),
            "pid": 0,
            "attrs": attrs,
        })

    def add_runs(labels, prefix: str) -> None:
        start = 0
        current = None  # unnamed (None) runs produce no span
        for slot, label in enumerate(labels):
            if label != current:
                if current is not None:
                    add(f"{prefix}{current}", start, slot)
                start, current = slot, label
        if current is not None:
            add(f"{prefix}{current}", start, len(labels))

    add_runs(report.slot_labels, "slots.")
    dag = report.dag
    woken = dag.node_depths > 0
    depths, wakes = dag.node_depths[woken], dag.node_wake_slots[woken]
    order = np.lexsort((wakes, depths))
    depths, wakes = depths[order], wakes[order]
    levels, first, sizes = np.unique(depths, return_index=True, return_counts=True)
    for depth, lo, size in zip(levels.tolist(), first.tolist(), sizes.tolist()):
        add(
            f"dag.depth[{depth}]", int(wakes[lo]), int(wakes[lo + size - 1]) + 1,
            nodes=size,
        )
    add_runs(report.stage_labels, "stage.")
    return events
