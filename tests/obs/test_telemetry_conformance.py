"""Telemetry purity: spans on vs. off is bit-identical, on every engine.

Same contract the metrics layer is held to (`spans` observe, never
perturb), checked across every registered engine via the
cross-engine conformance matrices, and end-to-end through ``run_sweep``:
payloads and cache bytes must not change when a :class:`TelemetryHub`
is attached.
"""

from __future__ import annotations

import json

import pytest

from repro.core import SelectAndSend
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import TelemetryHub
from repro.sim import ENGINES, run_broadcast, simulate
from repro.sweep import ResultCache, SweepSpec, run_sweep
from repro.topology import gnp_connected, km_hard_layered

from ..sim.conformance import (
    OBLIVIOUS_ALGORITHMS,
    SEEDS,
    adaptive_engines,
    all_engines,
    assert_results_match,
    engine_spec,
)

SWEEP_SPEC = dict(
    name="telemetry-purity",
    topology="layered",
    algorithm="kp-known-d",
    topology_grid={"n": [12, 18], "depth": 3},
    algorithm_grid={"stage_constant": 4},
    trials=2,
)


def run_engine(engine, net, make_algo, seeds, recorder=None):
    """One run per seed on a registered engine, with the ``spans``
    handle threaded through the driver."""
    return simulate(
        net, make_algo(net), seeds, engine=engine_spec(engine), spans=recorder
    )


@pytest.mark.parametrize("engine", all_engines())
def test_spans_do_not_perturb_oblivious_runs(engine):
    net = km_hard_layered(48, 4, seed=5)
    make_algo = OBLIVIOUS_ALGORITHMS["kp-known-d"]
    plain = run_engine(engine, net, make_algo, SEEDS)
    events = []
    recorder = SpanRecorder(sink=events.append)
    telemetered = run_engine(engine, net, make_algo, SEEDS, recorder=recorder)
    for i, (mine, theirs) in enumerate(zip(telemetered, plain)):
        assert_results_match(mine, theirs, (engine, "trial", i))
    assert len(telemetered) == len(plain)
    # The recorder actually observed something: a trial (or batch) span
    # per driver call, each a JSON-safe dict.
    trials = [e for e in events if e["kind"] == "trial"]
    assert trials, engine
    json.dumps(events)


@pytest.mark.parametrize("engine", adaptive_engines())
def test_spans_do_not_perturb_adaptive_runs(engine):
    net = gnp_connected(48, 0.12, seed=7)
    plain = run_engine(engine, net, lambda net: SelectAndSend(), SEEDS)
    recorder = SpanRecorder(sink=lambda event: None)
    telemetered = run_engine(
        engine, net, lambda net: SelectAndSend(), SEEDS, recorder=recorder
    )
    for i, (mine, theirs) in enumerate(zip(telemetered, plain)):
        assert_results_match(mine, theirs, (engine, "trial", i))


@pytest.mark.parametrize(
    "engine", [name for name, spec in ENGINES.items() if not spec.batch]
)
def test_serial_trial_spans_share_one_vocabulary(engine):
    """Every serial engine's ``trial[seed]`` span carries the same
    attributes, ``completed`` included — the driver wraps them all."""
    net = km_hard_layered(48, 4, seed=5)
    algorithm = OBLIVIOUS_ALGORITHMS["kp-known-d"](net)
    events = []
    result = run_broadcast(
        net, algorithm, seed=1, engine=engine,
        spans=SpanRecorder(sink=events.append),
    )
    (trial,) = [e for e in events if e["kind"] == "trial"]
    assert trial["name"] == "trial[1]"
    assert trial["attrs"] == {
        "seed": 1, "algorithm": algorithm.name, "n": net.n,
        "completed": result.completed,
    }
    assert result.completed


@pytest.mark.parametrize(
    "engine", [name for name, spec in ENGINES.items() if spec.batch]
)
def test_batch_spans_share_one_vocabulary(engine):
    """Every batch engine's ``batch[T]`` span carries the same attributes;
    a ``macro`` call runs its three seeds as one union, so one span."""
    net = km_hard_layered(48, 4, seed=5)
    algorithm = OBLIVIOUS_ALGORITHMS["kp-known-d"](net)
    events = []
    results = simulate(net, algorithm, SEEDS, engine=engine,
                       spans=SpanRecorder(sink=events.append))
    (batch,) = [e for e in events if e["kind"] == "trial"]
    assert batch["name"] == f"batch[{len(SEEDS)}]"
    assert batch["attrs"] == {
        "trials": len(SEEDS), "algorithm": algorithm.name, "n": net.n,
        "completed": all(r.completed for r in results),
    }
    assert batch["attrs"]["completed"]


class TestSweepPurity:
    def test_telemetry_does_not_change_payloads(self):
        plain = run_sweep(SweepSpec(**SWEEP_SPEC))
        hub = TelemetryHub()
        telemetered = run_sweep(SweepSpec(**SWEEP_SPEC), telemetry=hub)
        assert [r.payload for r in telemetered.results] == [
            r.payload for r in plain.results
        ]

    def test_telemetry_does_not_change_cache_bytes(self, tmp_path):
        plain_dir, tele_dir = tmp_path / "plain", tmp_path / "tele"
        run_sweep(SweepSpec(**SWEEP_SPEC), cache=ResultCache(plain_dir))
        hub = TelemetryHub()
        run_sweep(SweepSpec(**SWEEP_SPEC), cache=ResultCache(tele_dir),
                  workers=2, telemetry=hub)
        plain_files = sorted(p.relative_to(plain_dir)
                             for p in plain_dir.rglob("*.json"))
        tele_files = sorted(p.relative_to(tele_dir)
                            for p in tele_dir.rglob("*.json"))
        assert plain_files == tele_files and plain_files
        for rel in plain_files:
            assert (plain_dir / rel).read_bytes() == (tele_dir / rel).read_bytes()

    def test_pooled_telemetry_spans_nest_under_sweep(self):
        events = []
        hub = TelemetryHub()
        hub.subscribe(events.append)
        outcome = run_sweep(SweepSpec(**SWEEP_SPEC), workers=2, telemetry=hub)
        assert len(outcome.results) == 2
        spans = [e for e in events if e["event"] == "span"]
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span["kind"], []).append(span)
        (sweep,) = by_kind["sweep"]
        assert sweep["parent_id"] is None
        assert {p["parent_id"] for p in by_kind["point"]} == {sweep["span_id"]}
        point_ids = {p["span_id"] for p in by_kind["point"]}
        assert all(t["parent_id"] in point_ids for t in by_kind["trial"])
        assert by_kind["stage"], "stage spans synthesized from Timings"
