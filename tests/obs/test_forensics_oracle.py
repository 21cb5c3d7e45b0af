"""Forensics against an oracle: the per-record analysis the columnar
one replaced.

``oracle_build_dag``, ``oracle_analyze`` and ``oracle_span_events`` walk
``trace.steps`` record by record — a chain walk per node for depths, a
Python loop over every transmitter for energy — exactly as the forensics
module did before it read the trace's columns.  The columnar
:func:`~repro.obs.forensics.analyze` must produce the same report: the
same ``to_dict()`` (byte for byte once serialised), ``render()``, span
events, slot and stage labels and DAG dicts, on every engine, on macro
unions whose trials retire at different slots, under message loss, and on
token-algorithm runs whose silent slots the event engine compresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import CompleteLayeredBroadcast, KnownRadiusKP, SelectAndSend
from repro.core.echo import startup_boundary
from repro.core.randomized import (
    OptimalRandomizedBroadcasting,
    _locate_phase,
    _PhasedAlgorithm,
)
from repro.obs.forensics import (
    SLOT_CLASSES,
    ForensicsReport,
    analyze,
    classify_slot,
    forensic_span_events,
)
from repro.sim import simulate
from repro.sim.faults import FaultPlan
from repro.sim.trace import Trace, TraceLevel
from repro.topology import gnp_connected, km_hard_layered, path, random_tree, star

# ----------------------------------------------------------------------
# The oracle: record-by-record forensics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _OracleDAG:
    """First-delivery tree of one run (a DAG with in-degree <= 1: a tree).

    Attributes:
        root: The initially informed node (wake time ``-1``).
        parents: ``child -> parent`` over every node woken during the run;
            the parent is the unique transmitter whose message woke the
            child (collisions cannot wake, so the parent is well defined).
        wake_slots: ``node -> wake slot``; ``-1`` for the root.
        depths: ``node -> hop distance`` from the root along parent edges.
        children: ``parent -> sorted children`` (inverse of ``parents``).
        critical_path: Root-to-leaf chain ending at the last-woken node
            (ties broken toward the lowest label) — the first-delivery
            chain whose length *is* the broadcast's depth cost.
    """

    root: int
    parents: dict[int, int]
    wake_slots: dict[int, int]
    depths: dict[int, int]
    children: dict[int, tuple[int, ...]]
    critical_path: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Maximum hop depth (0 on a single-node network)."""
        return max(self.depths.values())

    @property
    def max_branching(self) -> int:
        """Largest number of children any node woke (0 when no wakes)."""
        return max((len(c) for c in self.children.values()), default=0)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "parents": {int(k): int(v) for k, v in sorted(self.parents.items())},
            "wake_slots": {
                int(k): int(v) for k, v in sorted(self.wake_slots.items())
            },
            "depths": {int(k): int(v) for k, v in sorted(self.depths.items())},
            "depth": self.depth,
            "max_branching": self.max_branching,
            "critical_path": list(self.critical_path),
        }



def oracle_build_dag(trace: Trace) -> _OracleDAG:
    """Derive the propagation DAG from a ``FULL`` trace.

    Raises:
        ValueError: If the trace is not ``FULL``, has no initially
            informed root, or has several (forensics assumes single-source
            broadcast).
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
    parents: dict[int, int] = {}
    for record in list(trace.steps):
        for child in record.woken:
            sender = record.deliveries.get(child)
            if sender is None:
                raise ValueError(
                    f"malformed trace: node {child} woke in slot "
                    f"{record.step} without a recorded delivery"
                )
            parents[child] = sender
    wake_slots = {root: -1}
    wake_slots.update(
        (v, t) for v, t in trace.wake_times.items() if t >= 0 and v in parents
    )
    depths = {root: 0}
    for node in parents:
        chain = []
        cursor = node
        while cursor not in depths:
            chain.append(cursor)
            cursor = parents[cursor]
        base = depths[cursor]
        for offset, link in enumerate(reversed(chain), start=1):
            depths[link] = base + offset
    children: dict[int, list[int]] = {}
    for child, parent in parents.items():
        children.setdefault(parent, []).append(child)
    last = root
    if parents:
        last_slot = max(wake_slots[v] for v in parents)
        last = min(v for v in parents if wake_slots[v] == last_slot)
    path = [last]
    while path[-1] != root:
        path.append(parents[path[-1]])
    return _OracleDAG(
        root=root,
        parents=parents,
        wake_slots=wake_slots,
        depths=depths,
        children={k: tuple(sorted(v)) for k, v in sorted(children.items())},
        critical_path=tuple(reversed(path)),
    )



def oracle_analyze(run, algorithm=None) -> ForensicsReport:
    """Build a :class:`ForensicsReport` from a run or a bare trace.

    Args:
        run: A :class:`~repro.sim.run.BroadcastResult` (its ``.trace`` is
            used) or a :class:`~repro.sim.trace.Trace`; must be recorded
            at ``TraceLevel.FULL``.
        algorithm: Optional algorithm *object*; when given,
            :func:`oracle_stage_name` names the stage each slot is
            charged to.
    """
    trace = getattr(run, "trace", run)
    if not isinstance(trace, Trace):
        raise TypeError(f"expected a BroadcastResult or Trace, got {run!r}")
    trace._require_full("forensic analysis")
    name = getattr(algorithm, "name", None) or getattr(run, "algorithm", None)
    dag = oracle_build_dag(trace)
    slot_labels = tuple(classify_slot(record) for record in trace.steps)
    slot_classes = {cls: 0 for cls in SLOT_CLASSES}
    for label in slot_labels:
        slot_classes[label] += 1
    energy: dict[int, int] = {}
    collision_counts: list[tuple[int, int]] = []
    for record in trace.steps:
        for v in record.transmitters:
            energy[v] = energy.get(v, 0) + 1
        if record.collisions:
            collision_counts.append((record.step, len(record.collisions)))
    collision_counts.sort(key=lambda pair: (-pair[1], pair[0]))
    stages: dict[str, dict[str, int]] = {}
    stage_labels: list[str | None] = []
    if algorithm is not None:
        for record in trace.steps:
            stage = oracle_stage_name(algorithm, record.step, trace)
            stage_labels.append(stage)
            if stage is None:
                continue
            bucket = stages.setdefault(
                stage,
                {"slots": 0, "transmissions": 0, "collisions": 0, "wakes": 0},
            )
            bucket["slots"] += 1
            bucket["transmissions"] += len(record.transmitters)
            bucket["collisions"] += len(record.collisions)
            bucket["wakes"] += len(record.woken)
    return ForensicsReport(
        algorithm=name,
        slots=len(trace.steps),
        informed=len(trace.wake_times),
        dag=dag,
        slot_labels=slot_labels,
        slot_classes=slot_classes,
        energy=dict(sorted(energy.items())),
        hotspots=tuple(collision_counts[:5]),
        stages=stages,
        stage_labels=tuple(stage_labels) if stages else (),
    )



def oracle_span_events(report: ForensicsReport) -> list[dict]:
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
    by_depth: dict[int, list[int]] = {}
    for node, depth in report.dag.depths.items():
        if depth > 0:
            by_depth.setdefault(depth, []).append(report.dag.wake_slots[node])
    for depth in sorted(by_depth):
        slots = by_depth[depth]
        add(
            f"dag.depth[{depth}]", min(slots), max(slots) + 1,
            nodes=len(slots),
        )
    add_runs(report.stage_labels, "stage.")
    return events



def oracle_stage_name(algorithm, step: int, trace) -> str | None:
    """One slot's stage name, worked out for that slot alone — what every
    algorithm's ``stage_hints`` must return for it."""
    if isinstance(algorithm, BGIBroadcast):
        return f"decay[p=2^-{step % algorithm.phase_len}]"
    if isinstance(algorithm, _PhasedAlgorithm):
        located = _locate_phase(algorithm._phase_starts, step)
        if located is None:
            return None
        phase_index, offset = located
        timetable = algorithm._phases[phase_index]
        prefix = f"D={timetable.d2}:" if len(algorithm._phases) > 1 else ""
        if offset == 0:
            return f"{prefix}source"
        position = (offset - 1) % timetable.stage_len
        if timetable.universal is not None and position == timetable.stage_len - 1:
            return f"{prefix}universal"
        return f"{prefix}sweep[p=2^-{position}]"
    later = {SelectAndSend: "dfs-traversal",
             CompleteLayeredBroadcast: "leader-chain"}.get(type(algorithm))
    if later is None:
        return None
    boundary = oracle_startup_boundary(trace)
    return "startup" if boundary is None or step < boundary else later


def oracle_startup_boundary(trace) -> int | None:
    """The source's second transmission, found by walking the records."""
    roots = trace.initially_informed()
    if len(roots) != 1:
        return None
    seen = 0
    for record in trace.steps:
        if roots[0] in record.transmitters:
            seen += 1
            if seen == 2:
                return record.step + 1
    return None


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


def assert_matches_oracle(result, algorithm):
    new = analyze(result, algorithm=algorithm)
    old = oracle_analyze(result, algorithm=algorithm)
    assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())
    assert new.render() == old.render()
    assert forensic_span_events(new) == oracle_span_events(old)
    assert new.slot_labels == old.slot_labels
    assert new.stage_labels == old.stage_labels
    for field in ("parents", "wake_slots", "depths", "children", "critical_path"):
        assert getattr(new.dag, field) == getattr(old.dag, field), field
    assert new.dag.depth == old.dag.depth
    assert new.dag.max_branching == old.dag.max_branching
    return new


def _make(algo_name, net):
    r = max(1, net.r)  # path(1) has r = 0
    if algo_name == "kp":
        return KnownRadiusKP(r, max(1, net.radius), stage_constant=4)
    if algo_name == "kp-optimal":  # several phases: "D=k:"-prefixed stages
        return OptimalRandomizedBroadcasting(r, stage_constant=2)
    if algo_name == "bgi":
        return BGIBroadcast(r)
    return RoundRobinBroadcast(r)


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(["path", "star", "tree", "gnp", "layered"]))
    n = draw(st.integers(min_value=1, max_value=28))
    topo_seed = draw(st.integers(min_value=0, max_value=20))
    if family == "path":
        net = path(n)
    elif family == "star":
        net = star(max(2, n))
    elif family == "tree":
        net = random_tree(max(2, n), seed=topo_seed)
    elif family == "gnp":
        net = gnp_connected(max(2, n), min(0.9, 4.0 / max(2, n)), seed=topo_seed)
    else:
        net = km_hard_layered(max(n, 8), 4, seed=topo_seed)
    algo_name = draw(st.sampled_from(["kp", "kp-optimal", "bgi", "round-robin"]))
    seeds = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    lossy = draw(st.booleans())
    engine = draw(st.sampled_from(["reference", "event", "macro"]))
    return net, algo_name, seeds, lossy, engine


@given(_cases())
@settings(max_examples=40, deadline=None)
def test_columnar_forensics_equal_the_oracle(case):
    net, algo_name, seeds, lossy, engine = case
    faults = FaultPlan(loss_probability=0.3, seed=3) if lossy else None
    results = simulate(net, _make(algo_name, net), seeds, engine=engine,
                       faults=faults, trace_level=TraceLevel.FULL,
                       max_steps=300)
    for result in results:
        assert_matches_oracle(result, _make(algo_name, net))


def test_macro_union_with_staggered_retirement():
    net = gnp_connected(40, 0.12, seed=4)
    results = simulate(net, BGIBroadcast(net.r), [0, 1, 2, 3, 4],
                       engine="macro", trace_level=TraceLevel.FULL)
    assert len({result.time for result in results}) > 1
    for result in results:
        assert_matches_oracle(result, BGIBroadcast(net.r))


@pytest.mark.parametrize("engine", ["reference", "event"])
@pytest.mark.parametrize("make, net", [
    (SelectAndSend, random_tree(24, seed=3)),
    (SelectAndSend, km_hard_layered(32, 4, seed=7)),
    (CompleteLayeredBroadcast, km_hard_layered(24, 4, seed=3)),
    (CompleteLayeredBroadcast, km_hard_layered(40, 6, seed=1)),
])
def test_token_algorithms_with_skipped_silent_slots(make, net, engine):
    (result,) = simulate(net, make(), [0], engine=engine,
                         trace_level=TraceLevel.FULL)
    assert result.completed
    report = assert_matches_oracle(result, make())
    assert len(report.stages) == 2
    assert startup_boundary(result.trace) == oracle_startup_boundary(result.trace)


def test_startup_boundary_matches_the_record_walk_on_partial_traces():
    net = random_tree(20, seed=1)
    for max_steps in (0, 1, 2, 5, 30, 60, 10**4):
        (result,) = simulate(net, SelectAndSend(), [0], engine="event",
                             max_steps=max_steps, trace_level=TraceLevel.FULL)
        assert startup_boundary(result.trace) == oracle_startup_boundary(
            result.trace
        )


def test_malformed_trace_names_the_first_orphan():
    trace = Trace(level=TraceLevel.FULL)
    trace.mark_initially_informed(0)
    trace.record(0, (0,), {1: 0}, (), (1,), informed=2)
    trace.record(1, (1,), {3: 1}, (), (2, 3), informed=4)
    for build in (analyze, oracle_analyze):
        with pytest.raises(ValueError, match="node 2 woke in slot 1"):
            build(trace)


def test_oracle_classes_agree_with_classify_slot():
    net = gnp_connected(30, 0.2, seed=2)
    (result,) = simulate(net, BGIBroadcast(net.r), [5], engine="macro",
                         trace_level=TraceLevel.FULL)
    report = analyze(result)
    assert report.slot_labels == tuple(
        classify_slot(record) for record in result.trace.steps
    )
    assert set(report.slot_classes) == set(SLOT_CLASSES)
