"""Columnar FULL traces: the lazy ``Trace.steps`` view against the
records the reference engine hands to ``Trace.record``, on every engine.

The oracle is a spy on the reference engine's ``Trace.record`` calls: it
keeps each slot as a :class:`StepRecord` the moment the engine records
it, before any columnar storage is involved.  Every engine's lazy view —
the reference engine's own, the event engine's (with compressed silent
runs) and the macro engine's (split from a union of trials) — must
equal that list, and ``PROGRESS`` traces must carry the same informed
curve and wake slots.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import CompleteLayeredBroadcast, KnownRadiusKP, SelectAndSend
from repro.obs.forensics import analyze
from repro.sim import simulate
from repro.sim.engine import SynchronousEngine
from repro.sim.faults import FaultPlan
from repro.sim.macro import MacroStepEngine
from repro.sim.network import RadioNetwork
from repro.sim.trace import StepRecord, Trace, TraceColumns, TraceLevel
from repro.topology import (
    gnp_connected,
    gnp_random_csr,
    km_hard_layered,
    path,
    random_tree,
    star,
)

ENGINES = ("reference", "event", "macro")


def _spied_reference(net, algo, seed, faults, max_steps, level=TraceLevel.FULL):
    """Run the reference engine, keeping every ``Trace.record`` call as a
    :class:`StepRecord`; returns ``(records, trace)``."""
    engine = SynchronousEngine(net, algo, seed=seed, trace_level=level,
                               faults=faults)
    records: list[StepRecord] = []
    record = engine.trace.record

    def spy(step, transmitters, deliveries, collisions, woken, informed):
        records.append(StepRecord(
            step=step, transmitters=tuple(transmitters),
            deliveries=dict(deliveries), collisions=tuple(collisions),
            woken=tuple(woken),
        ))
        record(step, transmitters, deliveries, collisions, woken, informed)

    engine.trace.record = spy
    engine.run(max_steps)
    return records, engine.trace


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(["path", "star", "tree", "gnp", "layered"]))
    n = draw(st.integers(min_value=2, max_value=28))
    topo_seed = draw(st.integers(min_value=0, max_value=20))
    if family == "path":
        net = path(n)
    elif family == "star":
        net = star(n)
    elif family == "tree":
        net = random_tree(n, seed=topo_seed)
    elif family == "gnp":
        net = gnp_connected(n, min(0.9, 4.0 / n), seed=topo_seed)
    else:
        net = km_hard_layered(max(n, 8), 4, seed=topo_seed)
    algo_name = draw(st.sampled_from(["kp", "bgi", "round-robin"]))
    seeds = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    lossy = draw(st.booleans())
    level = draw(st.sampled_from([TraceLevel.FULL, TraceLevel.PROGRESS]))
    return net, algo_name, seeds, lossy, level


def _make(algo_name, net):
    if algo_name == "kp":
        return KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    if algo_name == "bgi":
        return BGIBroadcast(net.r)
    return RoundRobinBroadcast(net.r)


@given(_cases())
@settings(max_examples=40, deadline=None)
def test_lazy_steps_equal_reference_records_on_every_engine(case):
    net, algo_name, seeds, lossy, level = case
    faults = FaultPlan(loss_probability=0.3, seed=3) if lossy else None
    max_steps = 300
    expected = [
        _spied_reference(net, _make(algo_name, net), seed, faults, max_steps,
                         level)
        for seed in seeds
    ]
    for engine in ENGINES:
        results = simulate(net, _make(algo_name, net), seeds, engine=engine,
                           faults=faults, trace_level=level,
                           max_steps=max_steps)
        for (records, reference), result in zip(expected, results):
            trace = result.trace
            key = (engine, result.seed)
            assert trace.informed_counts == reference.informed_counts, key
            assert list(trace.wake_times.items()) == list(
                reference.wake_times.items()
            ), key
            if level is TraceLevel.FULL:
                assert len(trace.steps) == len(records), key
                assert list(trace.steps) == records, key
                assert trace.steps == records, key
            else:
                assert len(trace.steps) == 0 and trace.steps == [], key


def test_macro_union_trials_retire_at_different_slots():
    """A five-seed union whose trials finish at different slots: each
    trial's view stops at its own last slot and equals the spy's."""
    net = gnp_connected(40, 0.12, seed=4)
    seeds = [0, 1, 2, 3, 4]
    results = simulate(net, BGIBroadcast(net.r), seeds, engine="macro",
                       trace_level=TraceLevel.FULL)
    assert len({result.time for result in results}) > 1
    for seed, result in zip(seeds, results):
        records, _ = _spied_reference(net, BGIBroadcast(net.r), seed, None,
                                      10**6)
        assert len(result.trace.steps) == result.time == len(records)
        assert result.trace.steps == records


@pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.PROGRESS])
def test_sparse_labels_on_every_engine(level):
    """Labels that are not 0 .. n - 1: the macro engine maps node indices
    back to labels when it splits a union's columns."""
    rng = random.Random(3)
    labels = [0, *sorted(rng.sample(range(1, 500), 29))]
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, 30)]
    net = RadioNetwork.undirected(labels, edges, r=500)
    for engine in ENGINES:
        results = simulate(net, BGIBroadcast(net.r), [0, 1, 2], engine=engine,
                           trace_level=level)
        for seed, result in zip([0, 1, 2], results):
            records, reference = _spied_reference(
                net, BGIBroadcast(net.r), seed, None, 10**5, level
            )
            full = level is TraceLevel.FULL
            assert result.trace.steps == (records if full else []), engine
            assert result.trace.informed_counts == reference.informed_counts
            assert result.trace.wake_times == reference.wake_times


@pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.PROGRESS])
def test_macro_traces_read_between_runs_keep_growing(level):
    """``trace_for`` splits the slots recorded so far; slots run after it
    are appended at the next call."""
    net = gnp_connected(40, 0.12, seed=4)
    engine = MacroStepEngine(net, BGIBroadcast(net.r), [0, 1, 2],
                             trace_level=level, block_size=7)
    engine.run(5)
    assert [len(engine.trace_for(t).informed_counts) for t in range(3)] == [5] * 3
    engine.run(13)
    engine.trace_for(1)
    engine.run(10**5)
    references = simulate(net, BGIBroadcast(net.r), [0, 1, 2],
                          engine="reference", trace_level=level)
    for t, reference in enumerate(references):
        trace = engine.trace_for(t)
        assert trace.steps == reference.trace.steps
        assert trace.informed_counts == reference.trace.informed_counts
        assert list(trace.wake_times.items()) == list(
            reference.trace.wake_times.items()
        )


@pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.PROGRESS])
def test_macro_trace_wake_times_are_read_from_the_woken_column(level):
    """An array-engine trace builds no wake-time dict while it records:
    ``wake_times`` is a read-only mapping derived from the woken column
    on first read, with the reference trace's items in the same order,
    and ``summary`` and ``analyze`` read the same values from it."""
    net = gnp_connected(40, 0.12, seed=4)
    (macro,) = simulate(net, BGIBroadcast(net.r), [3], engine="macro",
                        trace_level=level)
    (reference,) = simulate(net, BGIBroadcast(net.r), [3], engine="reference",
                            trace_level=level)
    wakes, expected = macro.trace.wake_times, reference.trace.wake_times
    assert not isinstance(wakes, dict)
    with pytest.raises(TypeError):
        wakes[0] = 1  # type: ignore[index]
    assert list(wakes.items()) == list(expected.items())
    assert list(wakes.values()) == list(expected.values())
    assert wakes == expected and expected == wakes
    assert len(wakes) == len(expected) == net.n
    assert all(wakes[v] == expected[v] for v in expected)
    assert wakes.get(net.r + 1) is None and "0" not in wakes
    assert macro.trace.summary() == reference.trace.summary()
    if level is TraceLevel.FULL:
        assert analyze(macro.trace).informed == analyze(reference.trace).informed


@pytest.mark.parametrize("n, seeds, ratio", [
    (100_000, [0], 1.6),
    (20_000, [0, 1, 2], 1.8),
])
def test_macro_trace_split_peak_memory_is_bounded_by_recorded_bytes(n, seeds, ratio):
    """The macro engine records each FULL-trace column into one buffer
    and splits the columns per trial one at a time, so the traced peak
    while ``trace_for`` runs — the recorded columns included — stays
    within a fixed multiple of the bytes the traces hold, and the trace
    byte budget bounds real memory.  Measured: 1.15x for one trial at
    10^5 nodes and 1.67x for a three-trial union at 2*10^4 nodes (the
    rest is buffer headroom and the union's split); with per-slot arrays
    concatenated all at once it was 2.03x and 3.10x, and with a wake-time
    dict built per append 1.44x for the one trial."""
    net = gnp_random_csr(n, 12 / n, seed=0)
    engine = MacroStepEngine(net, KnownRadiusKP(net.r, net.radius), seeds,
                             trace_level=TraceLevel.FULL)
    tracemalloc.start()
    try:
        engine.run(10**4)
        tracemalloc.reset_peak()
        traces = [engine.trace_for(t) for t in range(len(seeds))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    recorded = sum(
        getattr(trace.columns(), name).nbytes
        for trace in traces for name in TraceColumns.__dataclass_fields__
    )
    assert peak <= ratio * recorded, (peak, recorded, peak / recorded)


@pytest.mark.parametrize("make, net", [
    (SelectAndSend, random_tree(24, seed=3)),
    (CompleteLayeredBroadcast, km_hard_layered(24, 4, seed=3)),
])
def test_event_engine_silent_runs_are_recorded_slot_for_slot(make, net):
    """The event engine appends each compressed silent run with one
    ``record_silent`` call; the view shows every one of its slots."""
    records, _ = _spied_reference(net, make(), 0, None, 10**5)
    (result,) = simulate(net, make(), [0], engine="event", max_steps=10**5,
                         trace_level=TraceLevel.FULL)
    assert result.completed
    assert any(not r.transmitters for r in records)
    assert result.trace.steps == records
    assert result.trace.informed_counts == [
        1 + sum(len(r.woken) for r in records[:i + 1])
        for i in range(len(records))
    ]


class TestView:
    def _trace(self):
        trace = Trace(level=TraceLevel.FULL)
        trace.mark_initially_informed(0)
        trace.record(0, (0,), {2: 0, 1: 0}, (), (1, 2), informed=3)
        trace.record_silent(1, 3, informed=3)
        trace.record(4, (1, 2), {}, (3,), (), informed=3)
        return trace

    def test_indexing_slicing_and_len(self):
        trace = self._trace()
        steps = trace.steps
        assert len(steps) == 5
        assert steps[0] == StepRecord(0, (0,), {1: 0, 2: 0}, (), (1, 2))
        assert steps[-1] == StepRecord(4, (1, 2), {}, (3,), ())
        assert [r.step for r in steps[1:4]] == [1, 2, 3]
        assert [r.step for r in steps[::2]] == [0, 2, 4]
        assert steps[:0] == [] and steps[10:] == []
        assert list(reversed(steps))[0].step == 4
        with pytest.raises(IndexError):
            steps[5]

    def test_appends_after_a_read_are_seen(self):
        trace = self._trace()
        assert len(trace.columns()) == 5
        trace.record(5, (3,), {4: 3}, (), (4,), informed=4)
        assert len(trace.steps) == 6
        assert trace.steps[5].woken == (4,)
        assert trace.total_transmissions() == 4
        assert trace.total_collisions() == 1

    def test_columns_layout(self):
        cols = self._trace().columns()
        assert cols.steps.tolist() == [0, 1, 2, 3, 4]
        assert cols.tx_counts.tolist() == [1, 0, 0, 0, 2]
        assert cols.tx_ptr.tolist() == [0, 1, 1, 1, 1, 3]
        assert cols.receivers.tolist() == [1, 2]  # sorted within the slot
        assert cols.senders.tolist() == [0, 0]
        assert cols.woken_ptr.tolist() == [0, 2, 2, 2, 2, 2]

    def test_append_columns_extends_progress_fields(self):
        trace = Trace(level=TraceLevel.PROGRESS)
        trace.mark_initially_informed(0)
        cols = TraceColumns(*(
            np.array(values, dtype=np.int64) for values in (
                [0, 1], [0, 0], [], [0, 0], [], [], [0, 0], [], [0, 2], [3, 5],
            )
        ))
        trace.append_columns(cols, [1, 3])
        assert trace.informed_counts == [1, 3]
        assert trace.wake_times == {0: -1, 3: 1, 5: 1}
        assert trace.steps == []
