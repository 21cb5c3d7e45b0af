#!/usr/bin/env python3
"""End-to-end benchmark: four workloads, timed from outside the program.

Run from the repository root; no install step is needed, the package is
imported from ``src/``::

    python3 benchmarks/e2e/bench.py --seed 0                  # every workload
    python3 benchmarks/e2e/bench.py --workload gnp_million --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/bench.py --seed 1 --trace 1 --trace-out trace.json --json run.json

Without ``--workload`` each workload runs in a fresh child process, one
after another.  A workload first runs one untimed smoke-size warm-up
iteration, then timed iterations (set-up, then run) until at least three
have run (one at ``--size smoke``, two in a traced run) and ``--seconds``
have passed.  Every iteration's outputs are checked; see ``workloads.py``.

Output: one ``workload metric value unit`` line per metric, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.  With
``--trace 0`` the JSON metrics are the end-to-end ones (medians over the
iterations).  With ``--trace 1`` every iteration is also repeated with a
span around each layer call plus a probe that splits the driver into its
engine calls; the JSON metrics are then the per-layer ones, taken from
span self times, and the spans are written as a Perfetto/Chrome trace
(``--trace-out``).  Times are reported at reference machine speed
(:class:`Speedometer`); the raw wall times stay in the ``--json`` record.  The exit code is 0 only when every check passed; it is
2, with nothing printed, when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
DEFAULT_GOLDENS = HERE / "goldens.json"

# Listed here rather than imported from workloads.py so the parent of an
# all-workload run never imports numpy or the package under test.
WORKLOAD_NAMES = ("gnp_million", "e1_sweep", "observed_scale", "adaptive_event")

#: End-to-end metrics (medians over untraced iterations) and their units.
E2E_UNITS = {
    "e2e_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "trials_per_s": "1/s",
    "node_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports in a traced run.
LAYER_UNITS = {
    "topology.generate_s": "s",
    "topology.edges": "count",
    "topology.edges_per_s": "1/s",
    "core.algorithm_build_s": "s",
    "sim.engine_build_s": "s",
    "sim.engine_run_s": "s",
    "sim.result_s": "s",
    "sim.slots": "count",
    "sim.node_slots": "count",
    "sim.trials": "count",
    "sim.slots_per_s": "1/s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: Timed iterations a run makes at least.  A traced run makes one fewer
#: of each kind (untraced and traced): its longest workload then takes
#: about a minute, and stays under three on a host running at half speed.
MIN_ITERATIONS = {"full": 3, "smoke": 1}


class Checks:
    """Tally of checked operations; a failure is anything that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def count(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failures.extend([name] * failed)


class Speedometer:
    """How fast the machine runs right now, relative to a fixed reference.

    Shared virtual machines drift.  On the 2-vCPU box the baselines come
    from, a fixed Python loop took anywhere from 0.057 s to 0.100 s within
    three minutes, and graph generation slowed with it for tens of seconds
    at a time: raw wall times of runs doing the same work minutes apart
    differed by up to half, so a comparison of two commits would mostly
    measure the host.  A
    reading times a fixed mix of interpreter work (dict updates in a loop)
    and memory-bound NumPy work (an in-place sort, a gather and a prefix
    sum over 8 MiB) that never calls the package under test.  It allocates
    no arrays, so the state the workload left the heap in cannot change
    its page faults either: no change to the package can move a reading.
    """

    #: Median seconds of one reading on the reference box (README.md).
    REFERENCE_S = 0.0225

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._keys = numpy.random.default_rng(0).integers(0, 1 << 20, size=1 << 20)
        self._sorted = numpy.empty_like(self._keys)
        self._gathered = numpy.empty_like(self._keys)

    def _once(self) -> float:
        np = self._np
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(60_000):
            key = i & 4095
            counts[key] = counts.get(key, 0) + i
        np.copyto(self._sorted, self._keys)
        self._sorted.sort()
        np.take(self._keys, self._sorted, out=self._gathered)
        np.cumsum(self._gathered, out=self._gathered)
        return time.perf_counter() - start

    def factor(self) -> float:
        """Slowdown against the reference: 1.0 at reference speed."""
        return statistics.median(self._once() for _ in range(3)) / self.REFERENCE_S


class SpeedAdjustedStages:
    """The ``stage`` of a timed iteration: each layer call's wall time is
    divided by the mean speed factor read just before and just after it.

    Reading at every layer boundary rather than once per iteration tracks
    the drift within an iteration: over four minutes of repeated
    ``adaptive_event`` runs the coefficient of variation was 9.7% raw,
    5.9% with readings around the whole run and 4.1% per layer call.
    Calls shorter than ``MIN_READ_S`` reuse the last reading.  The time
    spent reading is excluded from every wall time.
    """

    MIN_READ_S = 0.05

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.last = speed.factor()
        self.reading_s = self.wall_s = self.ref_s = 0.0

    def _read(self) -> float:
        start = time.perf_counter()
        factor = self.speed.factor()
        self.reading_s += time.perf_counter() - start
        return factor

    @contextlib.contextmanager
    def __call__(self, name: str, **attrs):
        before = self.last
        start = time.perf_counter()
        yield {}
        elapsed = time.perf_counter() - start
        if elapsed >= self.MIN_READ_S:
            self.last = self._read()
        self.wall_s += elapsed
        self.ref_s += elapsed / ((before + self.last) / 2)

    def phase(self, wall_s: float) -> tuple[float, float]:
        """(wall, reference-speed) seconds of a phase that took ``wall_s``
        including readings; time outside any stage counts at the last
        reading.  Resets the tallies for the next phase."""
        wall = wall_s - self.reading_s
        ref = self.ref_s + (wall - self.wall_s) / self.last
        self.reading_s = self.wall_s = self.ref_s = 0.0
        return wall, ref


@dataclass
class Sample:
    """One timed iteration: wall times, reference-speed times, work done."""

    setup_s: float
    run_s: float
    ref_setup_s: float
    ref_run_s: float
    trials: int
    slots: int
    node_slots: int
    golden: dict
    layers: dict = field(default_factory=dict)


def _untraced_stage(name: str, **attrs):
    return contextlib.nullcontext({})


@contextlib.contextmanager
def _traced_stage(recorder, name: str, **attrs):
    span = recorder.start(name, "stage", **attrs)
    try:
        yield span.attrs
    finally:
        recorder.end(span)


def self_times(events: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for event in events:
        children[event.get("parent_id")].append(event)
    result = {}
    for event in events:
        start, end = event["start_ts"], event["end_ts"]
        covered, cursor = 0.0, start
        for child in sorted(children[event["span_id"]], key=lambda c: c["start_ts"]):
            lo, hi = max(child["start_ts"], cursor), min(child["end_ts"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[event["span_id"]] = (end - start) - covered
    return result


def _layers(workload, events, inputs, outputs, run_s, speeds: dict) -> dict:
    """Per-layer values of one traced iteration from its span events.

    ``speeds`` maps each point's role to the speed factor read around it;
    stage self times are divided by their point's factor, so layer
    seconds are at reference speed like the end-to-end ones.
    """
    own = self_times(events)
    points = {e["span_id"]: e for e in events if e["kind"] == "point"}
    main = next(p for p in points.values() if p["attrs"]["role"] == "iteration")
    seconds: dict[str, float] = defaultdict(float)
    covered = 0.0
    for event in events:
        if event["kind"] == "stage":
            role = points[event["parent_id"]]["attrs"]["role"]
            seconds[event["name"]] += own[event["span_id"]] / speeds[role]
            if role == "iteration":
                covered += own[event["span_id"]]
    main_s = main["end_ts"] - main["start_ts"]
    build, engine = seconds["sim.engine_build"], seconds["sim.engine_run"]
    layers = {
        "topology.generate_s": (seconds["topology.generate"], "s"),
        "topology.edges": (inputs["edges"], "count"),
        "topology.edges_per_s": (inputs["edges"] / seconds["topology.generate"], "1/s"),
        "core.algorithm_build_s": (seconds["core.algorithm_build"], "s"),
        "sim.engine_build_s": (build, "s"),
        "sim.engine_run_s": (engine, "s"),
        "sim.result_s": (seconds["sim.probe_driver"] - build - engine, "s"),
        "sim.slots": (outputs["slots"], "count"),
        "sim.node_slots": (outputs["node_slots"], "count"),
        "sim.trials": (outputs["trials"], "count"),
        "sim.slots_per_s": (outputs["slots"] * speeds["iteration"] / run_s, "1/s"),
        "trace.coverage_frac": (covered / main_s, "ratio"),
        "trace.e2e_s": (main_s / speeds["iteration"], "s"),
    }
    extra = getattr(workload, "extra_layers", None)
    if extra is not None:
        layers.update(extra(seconds, outputs))
    return layers


def iterate(workload, seed: int, checks: Checks, speed: Speedometer | None = None,
            recorder=None, events=None, index=0) -> Sample:
    """Set up, run and check once.

    Without a speedometer this is the untimed warm-up.  With one, every
    layer call is also timed at reference speed
    (:class:`SpeedAdjustedStages`).  With a recorder as well, set-up and
    run are traced instead, followed by the workload's probe, and the
    speed is read before the iteration, between it and the probe, and
    after the probe: readings inside a traced iteration would show in its
    spans.
    """
    traced = recorder is not None
    gc.collect()
    stage = _untraced_stage
    if traced:
        stage = functools.partial(_traced_stage, recorder)
        readings = [speed.factor()]
        first = len(events)
        point = recorder.start(f"iteration[{index}]", "point", iteration=index, role="iteration")
    elif speed is not None:
        stage = SpeedAdjustedStages(speed)
    adjusted = isinstance(stage, SpeedAdjustedStages)
    start = time.perf_counter()
    inputs = workload.setup(seed, stage)
    setup_s = ref_setup_s = time.perf_counter() - start
    if adjusted:
        setup_s, ref_setup_s = stage.phase(setup_s)
    start = time.perf_counter()
    outputs = workload.run(inputs, stage)
    run_s = ref_run_s = time.perf_counter() - start
    if adjusted:
        run_s, ref_run_s = stage.phase(run_s)
    layers = {}
    if traced:
        recorder.end(point)
        readings.append(speed.factor())
        with recorder.span(f"probe[{index}]", "point", iteration=index, role="probe"):
            workload.probe(inputs, outputs, stage, checks)
        readings.append(speed.factor())
        speeds = {
            "iteration": (readings[0] + readings[1]) / 2,
            "probe": (readings[1] + readings[2]) / 2,
        }
        layers = _layers(workload, events[first:], inputs, outputs, run_s, speeds)
    golden = json.loads(json.dumps(workload.check(inputs, outputs, checks)))
    return Sample(
        setup_s=setup_s, run_s=run_s, ref_setup_s=ref_setup_s, ref_run_s=ref_run_s,
        trials=outputs["trials"], slots=outputs["slots"],
        node_slots=outputs["node_slots"], golden=golden, layers=layers,
    )


def _metric(values: list, unit: str) -> dict:
    # A count's median stays a count: no mean of the two middle samples.
    median = statistics.median_low if unit == "count" else statistics.median
    return {"value": median(values), "unit": unit, "samples": values}


def measure(args, work_dir: str) -> dict:
    """Run one workload in this process; returns its record."""
    from workloads import WORKLOADS

    from repro.obs import SpanRecorder, parse_trace_events, write_trace

    cls = WORKLOADS[args.workload]
    checks = Checks()
    observed: dict[str, list[dict]] = defaultdict(list)
    samples: list[Sample] = []
    traced: list[Sample] = []
    recorder = events = root = None
    if args.trace:
        events = []
        recorder = SpanRecorder(sink=events.append, clock=time.perf_counter)
    crashed = False
    try:
        speed = Speedometer()
        observed["smoke"].append(iterate(cls("smoke", work_dir), args.seed, checks).golden)
        workload = cls(args.size, work_dir)
        if recorder is not None:
            root = recorder.start(f"e2e:{args.workload}", "sweep", seed=args.seed)
        least = max(1, MIN_ITERATIONS[args.size] - args.trace)
        started = time.perf_counter()
        while len(samples) < least or time.perf_counter() - started < args.seconds:
            samples.append(iterate(workload, args.seed, checks, speed))
            observed[args.size].append(samples[-1].golden)
            if recorder is not None:
                traced.append(iterate(
                    workload, args.seed, checks, speed,
                    recorder=recorder, events=events, index=len(traced),
                ))
                observed[args.size].append(traced[-1].golden)
    except Exception as exc:  # a crashed iteration is a failed operation
        traceback.print_exc(file=sys.stderr)
        checks.expect(f"iteration raised {type(exc).__name__}: {exc}", False)
        crashed = True

    _check_goldens(args, observed, checks)

    record = {"iterations": len(samples)}
    if samples:
        record["metrics"] = {
            "e2e_s": _metric([s.ref_setup_s + s.ref_run_s for s in samples], "s"),
            "setup_s": _metric([s.ref_setup_s for s in samples], "s"),
            "run_s": _metric([s.ref_run_s for s in samples], "s"),
            "trials_per_s": _metric([s.trials / s.ref_run_s for s in samples], "1/s"),
            "node_slots_per_s": _metric(
                [s.node_slots / s.ref_run_s for s in samples], "1/s"
            ),
            "peak_rss_mb": _metric(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"
            ),
            "wall_e2e_s": _metric([s.setup_s + s.run_s for s in samples], "s"),
            "wall_setup_s": _metric([s.setup_s for s in samples], "s"),
            "wall_run_s": _metric([s.run_s for s in samples], "s"),
            "speed_factor": _metric(
                [(s.setup_s + s.run_s) / (s.ref_setup_s + s.ref_run_s) for s in samples],
                "ratio",
            ),
        }
    if traced and not crashed:  # a crash leaves spans open: no trace
        layers = {
            name: _metric([s.layers[name][0] for s in traced], unit)
            for name, (_, unit) in traced[0].layers.items()
        }
        traced_e2e = layers.pop("trace.e2e_s")["value"]
        untraced_e2e = record["metrics"]["e2e_s"]["value"]
        layers["trace.overhead_frac"] = {
            "value": (traced_e2e - untraced_e2e) / untraced_e2e, "unit": "ratio",
        }
        recorder.end(root)
        path = pathlib.Path(args.trace_out or pathlib.Path(work_dir) / "trace.json")
        write_trace(events, path)
        checks.expect(
            "trace file round-trips through parse_trace_events",
            len(parse_trace_events(path.read_text(encoding="utf-8"))) == len(events),
        )
        record["layers"] = layers
    record.update(
        correct=not checks.failures,
        attempted=checks.attempted,
        failed=len(checks.failures),
        failures=checks.failures,
    )
    return record


def _check_goldens(args, observed: dict, checks: Checks) -> None:
    """Outputs must repeat across iterations and match the pinned values."""
    path = pathlib.Path(args.goldens)
    goldens = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for size, values in observed.items():
        if not values:
            continue
        checks.expect(
            f"{size} outputs repeat in every iteration",
            all(value == values[0] for value in values),
        )
        per_seed = goldens.setdefault(size, {}).setdefault(args.workload, {})
        if args.update_goldens:
            per_seed[str(args.seed)] = values[0]
            continue
        for key, expected in per_seed.get(str(args.seed), {}).items():
            checks.expect(
                f"golden {size}/{args.workload}/seed {args.seed}: {key}",
                values[0].get(key) == expected,
            )
    if args.update_goldens:
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    from repro.obs.bench import environment_fingerprint
    from repro.sim import resolve_macro_backend

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir:
        workload = measure(args, work_dir)
    for name in workload["failures"]:
        print(f"check failed: {args.workload}: {name}", file=sys.stderr)
    attempted, failed = workload["attempted"], workload["failed"]
    declared = LAYER_UNITS if args.trace else E2E_UNITS
    shown = {**workload.get("metrics", {}), **workload.get("layers", {})}
    for name, metric in shown.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} fail_frac {failed / max(1, attempted)!r} ratio")
    if args.json:
        record = {
            "schema": "e2e-bench/1",
            "seed": args.seed,
            "size": args.size,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "environment": environment_fingerprint(),
            "macro_backend": resolve_macro_backend(),
            "workloads": {args.workload: workload},
        }
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": workload["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": shown[name]["value"], "unit": unit}
            for name, unit in declared.items()
            if name in shown
        },
    }))
    return 0 if workload["correct"] else 1


def _trace_path_for(path: str, workload: str) -> str:
    target = pathlib.Path(path)
    return str(target.with_name(f"{target.stem}.{workload}{target.suffix or '.json'}"))


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    status = 0
    merged = None
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for name in WORKLOAD_NAMES:
            record_path = pathlib.Path(tmp) / f"{name}.json"
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size, "--goldens", str(args.goldens),
                "--json", str(record_path),
            ]
            if args.update_goldens:
                command.append("--update-goldens")
            if args.trace_out:
                command += ["--trace-out", _trace_path_for(args.trace_out, name)]
            sys.stdout.flush()
            status = subprocess.run(command, check=False).returncode or status
            if record_path.is_file():
                record = json.loads(record_path.read_text(encoding="utf-8"))
                if merged is None:
                    merged = record
                else:
                    merged["workloads"].update(record["workloads"])
    if args.json and merged is not None:
        pathlib.Path(args.json).write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives every topology seed and trial base seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep iterating until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced iterations and report per-layer metrics")
    parser.add_argument("--size", choices=tuple(MIN_ITERATIONS), default="full",
                        help="smoke: n <= 2e4 and one iteration, for tests")
    parser.add_argument("--json", help="write the full record (samples, environment) here")
    parser.add_argument("--trace-out", help="write the Perfetto/Chrome trace here (with --trace 1)")
    parser.add_argument("--goldens", default=str(DEFAULT_GOLDENS),
                        help="pinned outputs for seeds 0 and 1")
    parser.add_argument("--update-goldens", action="store_true",
                        help="pin this run's outputs instead of checking them")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds like any exception: child processes are killed
    # and waited for, and scratch directories are removed.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # The git SHA in the environment stamp must come from this checkout or
    # nowhere: git may not look for a repository above it.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
