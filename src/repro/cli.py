"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands:

* ``run`` — broadcast once on a generated topology with a chosen
  algorithm; prints the result (optionally a full channel trace).
* ``compare`` — run several algorithms on the same topology with repeated
  seeds and print a comparison table.
* ``adversary`` — build the Section 3 lower-bound network against a
  deterministic algorithm, verify Lemma 9, and report the floors.
* ``experiment`` — run one of the paper-claim experiments (e1..e12) and
  print its tables and claim verdicts.
* ``sweep`` — expand a declarative sweep spec (topology grid × algorithm
  × trials), run the points on the batched engine across worker
  processes, and cache per-point results on disk.
* ``top`` — live terminal view of a running sweep (points done/total,
  throughput, ETA, per-worker state) driven by the telemetry bus; or
  ``--replay`` a recorded run log.
* ``trace`` — ``trace export`` turns a runlog's span events into Chrome
  trace-event / Perfetto JSON for visual inspection.
* ``explain`` — broadcast forensics from a FULL trace: ``explain run``
  derives the propagation DAG, slot-attribution taxonomy, and stage
  table for one run (any engine, bit-identical output); ``explain
  sweep`` aggregates the forensic scalars over repeated seeds.
* ``report`` — render a JSONL run log (``--log-jsonl``) or a benchmark
  trajectory back into tables, or ``--json`` for machines (see
  ``docs/OBSERVABILITY.md``).
* ``bench`` — run the registered benchmark suite under the pinned timing
  protocol, append to ``BENCH_trajectory.jsonl``, and compare against the
  committed per-bench baselines.
* ``profile`` — cProfile a run, a sweep (per-point, across the worker
  pool), or a registered benchmark; prints a pstats top-N table and can
  export callgrind files for KCachegrind.
* ``universal`` — build and check a universal sequence (Lemma 1).

Examples::

    repro run --topology geometric --n 200 --algorithm kp
    repro run --topology gnp-csr --n 1000000 --avg-degree 12 \
        --algorithm kp-known-d --engine macro
    repro run --topology gnp --n 64 --algorithm bgi --faults plan.json
    repro run --topology gnp --n 64 --algorithm kp --metrics --log-jsonl run.jsonl
    repro compare --topology km-layered --n 1024 --depth 64 --runs 10
    repro adversary --algorithm round-robin --n 512 --depth 16
    repro experiment e6 --quick
    repro sweep --quick --workers 4
    repro sweep --spec my_sweep.json --json
    repro sweep --spec my_sweep.json --faults plan.json --timeout 120 --retries 2
    repro sweep --quick --metrics --log-jsonl sweep.jsonl
    repro sweep --quick --telemetry --log-jsonl sweep.jsonl
    repro top --quick --workers 4
    repro top --replay sweep.jsonl
    repro trace export sweep.jsonl -o sweep.trace.json
    repro explain run --topology km-layered --n 128 --depth 16 --algorithm kp
    repro explain run --algorithm select-and-send --n 32 --json
    repro explain sweep --algorithm bgi --n 64 --runs 10 --json
    repro report sweep.jsonl
    repro report benchmarks/results/BENCH_trajectory.jsonl --json
    repro bench --quick --compare
    repro bench --filter engine --update-baseline
    repro profile run --topology km-layered --n 256 --algorithm kp --trials 20
    repro profile sweep --quick --workers 2 --callgrind sweep.callgrind
    repro profile bench batched_engine --quick --top 15
    repro universal --r 65536 --d 16384
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import topology
from .adversary import LowerBoundConstruction, verify_construction
from .analysis import render_table, summarize
from .baselines import (
    BGIBroadcast,
    CentralizedGreedySchedule,
    InterleavedBroadcast,
    KnownNeighborsDFS,
    RoundRobinBroadcast,
    SelectiveFamilyBroadcast,
)
from .combinatorics import build_universal_sequence, check_universality
from .core import (
    CompleteLayeredBroadcast,
    KnownRadiusKP,
    OptimalRandomizedBroadcasting,
    SelectAndSend,
)
from .sim import ENGINES, RadioNetwork, TraceLevel, repeat_broadcast, run_broadcast

__all__ = ["main"]


def _build_topology(args: argparse.Namespace):
    n, depth, seed = args.n, args.depth, args.topology_seed
    avg_degree = getattr(args, "avg_degree", 6.0)
    builders: dict[str, Callable[[], object]] = {
        "path": lambda: topology.path(n),
        "star": lambda: topology.star(n),
        "grid": lambda: topology.grid(max(2, int(n**0.5)), max(2, int(n**0.5))),
        "tree": lambda: topology.random_tree(n, seed=seed),
        "gnp": lambda: topology.gnp_connected(n, min(0.9, 6.0 / n), seed=seed),
        "geometric": lambda: topology.random_geometric(n, seed=seed),
        "layered": lambda: topology.uniform_complete_layered(n, depth),
        "km-layered": lambda: topology.km_hard_layered(n, depth, seed=seed),
        # CSR-native builders: same distributions, flat-array construction;
        # required for million-node topologies (see docs/PERFORMANCE.md).
        "gnp-csr": lambda: topology.gnp_random_csr(
            n, min(0.9, avg_degree / n), seed=seed
        ),
        "layered-csr": lambda: topology.uniform_complete_layered_csr(n, depth),
        "km-layered-csr": lambda: topology.km_hard_layered_csr(n, depth, seed=seed),
    }
    if args.topology not in builders:
        raise SystemExit(f"unknown topology {args.topology!r}; choose from {sorted(builders)}")
    return builders[args.topology]()


def _build_algorithm(name: str, net: RadioNetwork) -> object:
    builders: dict[str, Callable[[], object]] = {
        "kp": lambda: OptimalRandomizedBroadcasting(net.r, stage_constant=8),
        "kp-known-d": lambda: KnownRadiusKP(net.r, max(1, net.radius)),
        "bgi": lambda: BGIBroadcast(net.r),
        "select-and-send": lambda: SelectAndSend(),
        "complete-layered": lambda: CompleteLayeredBroadcast(),
        "round-robin": lambda: RoundRobinBroadcast(net.r),
        "selective-family": lambda: SelectiveFamilyBroadcast(net.r, "random"),
        "interleaved": lambda: InterleavedBroadcast(
            RoundRobinBroadcast(net.r), SelectAndSend()
        ),
        "dfs-known-neighbors": lambda: KnownNeighborsDFS(net),
        "centralized": lambda: CentralizedGreedySchedule(net),
    }
    if name not in builders:
        raise SystemExit(f"unknown algorithm {name!r}; choose from {sorted(builders)}")
    return builders[name]()


ALGORITHM_CHOICES = [
    "kp", "kp-known-d", "bgi", "select-and-send", "complete-layered",
    "round-robin", "selective-family", "interleaved",
    "dfs-known-neighbors", "centralized",
]


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="geometric",
                        help="path|star|grid|tree|gnp|geometric|layered|"
                             "km-layered|gnp-csr|layered-csr|km-layered-csr")
    parser.add_argument("--n", type=int, default=200, help="number of nodes")
    parser.add_argument("--depth", type=int, default=8,
                        help="radius for layered topologies")
    parser.add_argument("--avg-degree", type=float, default=6.0,
                        help="expected degree for gnp-csr (p = avg-degree/n)")
    parser.add_argument("--topology-seed", type=int, default=0)


def _load_fault_plan(path: str) -> "object":
    """Read a :class:`~repro.sim.faults.FaultPlan` JSON document."""
    import json

    from .sim import FaultPlan
    from .sim.errors import ConfigurationError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read fault plan: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"fault plan {path} is not valid JSON: {exc}")
    try:
        return FaultPlan.from_dict(document)
    except ConfigurationError as exc:
        raise SystemExit(f"bad fault plan: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .sim import load_network, save_network, save_result

    if args.load_network:
        net = load_network(args.load_network)
    else:
        net = _build_topology(args)
    algorithm = _build_algorithm(args.algorithm, net)
    level = TraceLevel.FULL if args.trace else TraceLevel.NONE
    faults = _load_fault_plan(args.faults) if args.faults else None
    from .sim.errors import ConfigurationError

    metrics = None
    runlog = None
    spans = None
    if args.metrics or args.log_jsonl:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    if args.log_jsonl:
        from .obs import RunLogger, SpanRecorder

        runlog = RunLogger(args.log_jsonl)
        runlog.event(
            "run_started",
            algorithm=args.algorithm,
            topology=args.topology,
            seed=args.seed,
            n=net.n,
        )

        def _span_sink(event: dict) -> None:
            runlog.event(
                "span", **{k: v for k, v in event.items() if k != "event"}
            )

        # Trial + synthetic stage spans land in the runlog, so a single
        # run is `repro trace export`-able just like a sweep.
        spans = SpanRecorder(sink=_span_sink)
    try:
        result = run_broadcast(
            net, algorithm, seed=args.seed, trace_level=level,
            faults=faults, metrics=metrics, spans=spans,
            engine=args.engine, allow_large=args.allow_large,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"run failed: {exc}")
    if runlog is not None:
        runlog.event(
            "run_completed",
            algorithm=result.algorithm,
            engine=args.engine,
            seed=result.seed,
            n=result.n,
            time=result.time,
            completed=result.completed,
            timings=(result.timings.to_dict() if result.timings else None),
            metrics=metrics.to_dict(),
        )
        runlog.close()
    print(net.describe())
    print(f"algorithm: {result.algorithm}")
    print(f"completed: {result.completed}  time: {result.time} slots  "
          f"informed: {result.informed}/{result.n}")
    if result.fault_counters is not None:
        fc = result.fault_counters
        print(f"faults: crashed {fc.crashed_nodes}  jammed {fc.jammed_slots}  "
              f"lost {fc.lost_messages}  delayed {fc.delayed_wakes}")
    if args.trace:
        print(result.trace.format_timeline(max_steps=args.trace_steps))
    if args.metrics:
        from .obs.report import render_metrics, render_timings

        if result.timings is not None:
            print(render_timings(result.timings))
        print(render_metrics(metrics))
    if runlog is not None:
        print(f"run log written to {runlog.path}")
    if args.save_network:
        to_save = net.to_radio_network() if hasattr(net, "to_radio_network") else net
        save_network(to_save, args.save_network)
        print(f"network saved to {args.save_network}")
    if args.save_result:
        save_result(result, args.save_result)
        print(f"result saved to {args.save_result}")
    return 0 if result.completed else 1


def _cmd_gossip(args: argparse.Namespace) -> int:
    from .core.gossip import run_gossip

    net = _build_topology(args)
    print(net.describe())
    result = run_gossip(net)
    print(f"gossip completed: {result.completed}  time: {result.time} slots")
    if result.broadcast_time is not None:
        print(f"broadcast sub-goal reached after {result.broadcast_time} slots")
    return 0 if result.completed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    net = _build_topology(args)
    print(net.describe())
    rows = []
    for name in args.algorithms:
        algorithm = _build_algorithm(name, net)
        results = repeat_broadcast(
            net, algorithm, runs=args.runs, base_seed=args.seed,
            require_completion=False,
        )
        stats = summarize([r.time for r in results])
        completed = sum(1 for r in results if r.completed)
        rows.append([
            getattr(algorithm, "name", name),
            f"{completed}/{len(results)}",
            f"{stats.mean:.0f}",
            f"[{stats.minimum:.0f}, {stats.maximum:.0f}]",
        ])
    print(render_table(["algorithm", "completed", "mean slots", "range"], rows))
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    # The adversary needs r = n - 1 baked into label-driven algorithms.
    class _Holder:
        r = args.n - 1
        radius = args.depth

    factory = lambda: _build_algorithm(args.algorithm, _Holder)  # noqa: E731
    algorithm = factory()
    if not getattr(algorithm, "deterministic", False):
        raise SystemExit("the Section 3 adversary applies to deterministic algorithms")
    construction = LowerBoundConstruction(algorithm, args.n, args.depth)
    result = construction.build()
    report = verify_construction(result, factory())
    print(result.describe())
    print(f"Lemma 9 histories match: {report.histories_match}")
    print(f"silence floor {result.silence_floor} respected: {report.silence_respected}")
    print(f"real broadcast time on G_A: {report.real_completion_time}")
    return 0 if report.histories_match else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    from .experiments import all_experiments, get_experiment

    names = list(all_experiments()) if args.name == "all" else [args.name]
    exit_code = 0
    documents = []
    for name in names:
        runner = get_experiment(name)
        report = runner(quick=args.quick)
        if args.json:
            documents.append(report.to_dict())
        else:
            print(report.render())
            print()
        if not report.ok:
            exit_code = 1
    if args.json:
        print(json.dumps(documents if len(documents) > 1 else documents[0], indent=1))
    return exit_code


#: Built-in spec for ``repro sweep --quick``: small enough for a CI smoke
#: run, yet exercising grid expansion, the batched engine, and caching.
QUICK_SWEEP = {
    "name": "quick",
    "topology": "km-layered",
    "algorithm": "kp-known-d",
    "topology_grid": {"n": [24, 48], "depth": 4},
    "algorithm_grid": {"stage_constant": 8},
    "trials": 3,
}


def _load_sweep_spec(args: argparse.Namespace):
    """Resolve ``--spec FILE`` / ``--quick`` into a ``SweepSpec``."""
    import json

    from .sim.errors import ConfigurationError
    from .sweep import SweepSpec

    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            raise SystemExit(f"cannot read sweep spec: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"sweep spec {args.spec} is not valid JSON: {exc}")
        try:
            return SweepSpec.from_dict(document)
        except ConfigurationError as exc:
            raise SystemExit(f"bad sweep spec: {exc}")
    if args.quick:
        return SweepSpec.from_dict(QUICK_SWEEP)
    raise SystemExit("provide --spec FILE.json or --quick")


def _sweep_progress(spec, stream, quiet: bool):
    """The ``on_point`` console progress line (S2): ``None`` when silent."""
    import time

    if quiet or not getattr(stream, "isatty", lambda: False)():
        return None
    total = len(spec.points())
    state = {"done": 0, "start": time.monotonic()}

    def on_point(point, payload, cached) -> None:
        state["done"] += 1
        done = state["done"]
        elapsed = time.monotonic() - state["start"]
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = total - done
        eta = f"{remaining / rate:.0f}s" if rate > 0 and remaining else "0s"
        marker = " [cache]" if cached else ""
        stream.write(
            f"\r\x1b[K[{done}/{total}] {point.label()}{marker}  ETA {eta}"
        )
        if done == total:
            stream.write("\n")
        stream.flush()

    return on_point


def _cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses

    from .sweep import DEFAULT_CACHE_DIR, ResultCache, run_sweep

    from .sim.errors import ConfigurationError, SimulationError

    spec = _load_sweep_spec(args)
    if args.faults:
        try:
            spec = dataclasses.replace(spec, faults=_load_fault_plan(args.faults))
        except ConfigurationError as exc:
            raise SystemExit(f"bad sweep spec: {exc}")
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    runlog = None
    if args.log_jsonl:
        from .obs import RunLogger

        runlog = RunLogger(args.log_jsonl)
    metrics = None
    if args.metrics:
        from .obs import MetricsRegistry

        # The runner folds every executed point's snapshot into this
        # registry and sets the sweep-level gauges on it.
        metrics = MetricsRegistry()
    telemetry = None
    if args.telemetry:
        from .obs import TelemetryHub

        # Spans (sweep/point/trial/stage) stream from workers over the
        # bounded bus and land in the runlog as they happen.
        telemetry = TelemetryHub(runlog=runlog)
    on_point = None if args.json else _sweep_progress(spec, sys.stderr, args.quiet)
    try:
        outcome = run_sweep(
            spec,
            workers=args.workers,
            cache=cache,
            on_point=on_point,
            timeout=args.timeout,
            retries=args.retries,
            instrument=args.metrics,
            runlog=runlog,
            metrics=metrics,
            telemetry=telemetry,
        )
    except SimulationError as exc:
        # Covers bad configurations and SweepExecutionError — points that
        # kept failing after their retry budget (their successful
        # siblings are already cached).
        raise SystemExit(f"sweep failed: {exc}")
    finally:
        if telemetry is not None:
            telemetry.close()
        if runlog is not None:
            runlog.close()
    if args.json:
        print(outcome.to_json())
    else:
        print(f"sweep {spec.name!r}: {len(outcome.results)} points "
              f"({outcome.executed} executed, {outcome.from_cache} from cache)")
        print(outcome.render_table())
        if cache is not None:
            print(f"cache: {cache.root}")
    if args.metrics:
        from .obs import Timings
        from .obs.report import render_metrics, render_timings

        timings = Timings()
        for result in outcome.results:
            if result.payload.get("timings"):
                timings.merge(result.payload["timings"])
        if timings:
            print(render_timings(timings, title="stage timings (executed points)"))
        if metrics.counters or metrics.gauges or metrics.histograms:
            print(render_metrics(metrics, title="metrics (executed points)"))
    if runlog is not None:
        print(f"run log written to {runlog.path}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .sim.errors import SimulationError

    if args.replay:
        from .obs.runlog import RunlogError, read_runlog
        from .obs.top import replay_events

        try:
            events = read_runlog(args.replay)
        except OSError as exc:
            raise SystemExit(f"cannot read run log: {exc}")
        except RunlogError as exc:
            raise SystemExit(f"bad run log: {exc}")
        print(replay_events(events).render())
        return 0

    from .obs import TelemetryHub
    from .obs.top import LiveRenderer
    from .sweep import DEFAULT_CACHE_DIR, ResultCache, run_sweep

    spec = _load_sweep_spec(args)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    runlog = None
    if args.log_jsonl:
        from .obs import RunLogger

        runlog = RunLogger(args.log_jsonl)
    telemetry = TelemetryHub(runlog=runlog)
    renderer = LiveRenderer(sys.stderr, interval=args.interval)
    telemetry.subscribe(renderer)
    try:
        outcome = run_sweep(
            spec,
            workers=args.workers,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
            telemetry=telemetry,
        )
    except SimulationError as exc:
        raise SystemExit(f"sweep failed: {exc}")
    finally:
        telemetry.close()
        if runlog is not None:
            runlog.close()
    renderer.finish()
    print(f"sweep {spec.name!r}: {len(outcome.results)} points "
          f"({outcome.executed} executed, {outcome.from_cache} from cache)")
    if runlog is not None:
        print(f"run log written to {runlog.path}")
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import pathlib

    from .obs.runlog import RunlogError, read_runlog
    from .obs.spans import TraceFormatError, span_events, write_trace

    try:
        events = read_runlog(args.runlog)
    except OSError as exc:
        raise SystemExit(f"cannot read run log: {exc}")
    except RunlogError as exc:
        raise SystemExit(f"bad run log: {exc}")
    output = args.output or str(
        pathlib.Path(args.runlog).with_suffix(".trace.json")
    )
    try:
        path = write_trace(events, output)
    except TraceFormatError as exc:
        raise SystemExit(f"trace export failed: {exc}")
    print(f"wrote {len(span_events(events))} span(s) to {path} "
          f"(load in Perfetto or chrome://tracing)")
    return 0


def _cmd_explain_run(args: argparse.Namespace) -> int:
    import json

    from .obs.forensics import analyze, forensic_span_events
    from .sim.errors import ConfigurationError

    net = _build_topology(args)
    algorithm = _build_algorithm(args.algorithm, net)
    try:
        result = run_broadcast(
            net, algorithm, seed=args.seed, trace_level=TraceLevel.FULL,
            engine=args.engine,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"explain failed: {exc}")
    report = analyze(result, algorithm=algorithm)
    if args.export_trace:
        from .obs.spans import write_trace

        path = write_trace(forensic_span_events(report), args.export_trace)
        if not args.json:
            print(f"forensic trace written to {path} "
                  f"(load in Perfetto or chrome://tracing)")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(net.describe())
        print(report.render())
    return 0 if result.completed else 1


def _cmd_explain_sweep(args: argparse.Namespace) -> int:
    import json

    from .obs import MetricsRegistry
    from .obs.forensics import analyze, record_forensics_metrics
    from .obs.report import render_metrics
    from .sim.errors import ConfigurationError
    from .sim.fast import run_broadcast_batch

    net = _build_topology(args)
    algorithm = _build_algorithm(args.algorithm, net)
    try:
        results = run_broadcast_batch(
            net, algorithm, trials=args.runs, base_seed=args.seed,
            trace_level=TraceLevel.FULL,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"explain failed: {exc}")
    registry = MetricsRegistry()
    rows = []
    per_run = []
    for result in results:
        report = analyze(result, algorithm=algorithm)
        record_forensics_metrics(registry, report)
        scalars = report.scalars()
        per_run.append({"seed": result.seed, **scalars})
        rows.append([
            result.seed, scalars["slots"], scalars["wasted_slot_fraction"],
            scalars["critical_path_depth"], scalars["redundancy_ratio"],
        ])
    if args.json:
        print(json.dumps(
            {
                "algorithm": algorithm.name,
                "runs": per_run,
                "metrics": registry.to_dict(),
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(net.describe())
        print(render_table(
            ["seed", "slots", "wasted_frac", "crit_depth", "redundancy"],
            rows,
            title=f"forensic sweep: {algorithm.name} x {len(results)} seeds",
        ))
        print()
        print(render_metrics(registry))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from .obs.report import report_from_file, report_json_from_file
    from .obs.runlog import RunlogError

    try:
        if args.json:
            print(json.dumps(report_json_from_file(args.runlog), indent=1,
                             sort_keys=True))
        else:
            print(report_from_file(args.runlog))
    except OSError as exc:
        raise SystemExit(f"cannot read run log: {exc}")
    except RunlogError as exc:
        raise SystemExit(f"bad run log: {exc}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .obs import bench as bench_mod
    from .obs.suite import default_registry  # importing registers the suite

    registry = default_registry()
    if args.list:
        rows = [[b.name, ",".join(b.tags), f"{b.tolerance:.2f}x", b.description]
                for b in registry]
        print(render_table(["bench", "tags", "tolerance", "description"], rows,
                           title="registered benchmarks"))
        return 0
    benches = registry.select(args.filter)
    if not benches:
        raise SystemExit(
            f"no benchmark matches {args.filter!r}; "
            f"registered: {sorted(b.name for b in registry)}"
        )
    env = bench_mod.environment_fingerprint()
    records = []
    for bench in benches:
        if not args.json:
            print(f"bench {bench.name} ...", flush=True)
        record = bench_mod.run_benchmark(bench, quick=args.quick, env=env)
        records.append(record)
        bench_mod.append_trajectory(record, args.results_dir)
        if args.update_baseline:
            bench_mod.write_baseline(record, args.results_dir)

    comparisons = (
        bench_mod.compare_all(records, args.results_dir) if args.compare else None
    )
    if args.json:
        document = {"records": records}
        if comparisons is not None:
            document["comparisons"] = [
                {"bench": c.bench, "status": c.status, "ratio": c.ratio}
                for c in comparisons
            ]
        print(json.dumps(document, indent=1, sort_keys=True))
    else:
        rows = []
        for i, record in enumerate(records):
            row = [
                record["bench"],
                f"{record['min_s']:.4f}",
                f"{record['median_s']:.4f}",
                record["repeats"],
            ]
            if comparisons is not None:
                comparison = comparisons[i]
                row.extend([
                    "-" if comparison.baseline is None
                    else f"{comparison.baseline['min_s']:.4f}",
                    "-" if comparison.ratio is None else f"{comparison.ratio:.3f}x",
                    comparison.status,
                ])
            rows.append(row)
        headers = ["bench", "min (s)", "median (s)", "repeats"]
        if comparisons is not None:
            headers += ["baseline (s)", "ratio", "status"]
        mode = "quick" if args.quick else "full"
        print(render_table(headers, rows,
                           title=f"benchmark suite ({mode}, git {env['git_sha']})"))
        print(f"trajectory: {bench_mod.trajectory_path(args.results_dir)}")
        if args.update_baseline:
            print(f"baselines updated under "
                  f"{bench_mod.baseline_path('*', args.results_dir).parent}")

    if comparisons is not None:
        regressions = [c for c in comparisons if c.regressed]
        for comparison in regressions:
            print(f"REGRESSION: {comparison.describe()}", file=sys.stderr)
        if regressions and bench_mod.strict_mode():
            return 1
        if regressions:
            print(
                f"({len(regressions)} regression(s) — warning only; set "
                f"{bench_mod.STRICT_ENV_VAR}=1 to fail)",
                file=sys.stderr,
            )
    return 0


def _profile_report(args: argparse.Namespace, stats) -> None:
    """Shared tail of every ``repro profile`` subcommand."""
    from .obs.profile import format_stats, write_callgrind

    print(format_stats(stats, top=args.top, sort=args.sort))
    if args.callgrind:
        path = write_callgrind(stats, args.callgrind)
        print(f"callgrind profile written to {path} (open with kcachegrind)")


def _add_profile_report_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--top", type=int, default=20,
                        help="rows in the pstats table")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "calls"],
                        help="pstats sort key")
    parser.add_argument("--callgrind", metavar="FILE",
                        help="also export the profile in callgrind format")


def _cmd_profile_run(args: argparse.Namespace) -> int:
    from .obs.profile import profile_call
    from .sim.errors import SimulationError

    net = _build_topology(args)
    algorithm = _build_algorithm(args.algorithm, net)
    try:
        results, stats = profile_call(
            lambda: repeat_broadcast(
                net, algorithm, runs=args.trials, base_seed=args.seed,
                engine=args.engine, require_completion=False,
            )
        )
    except SimulationError as exc:
        raise SystemExit(f"profiled run failed: {exc}")
    completed = sum(1 for r in results if r.completed)
    print(f"profiled {len(results)} trial(s) of {algorithm.name} on "
          f"{args.topology} (n={net.n}): {completed}/{len(results)} completed")
    _profile_report(args, stats)
    return 0


def _cmd_profile_sweep(args: argparse.Namespace) -> int:
    import tempfile

    from .obs.profile import merge_stats_files
    from .sim.errors import SimulationError
    from .sweep import run_sweep

    spec = _load_sweep_spec(args)
    profile_dir = args.profile_dir or tempfile.mkdtemp(prefix="repro-profile-")
    try:
        # Uncached on purpose: a cache hit executes nothing worth profiling.
        outcome = run_sweep(
            spec, workers=args.workers, cache=None, profile_dir=profile_dir,
        )
    except SimulationError as exc:
        raise SystemExit(f"profiled sweep failed: {exc}")
    import pathlib

    dumps = sorted(pathlib.Path(profile_dir).glob("*.pstats"))
    stats = merge_stats_files(dumps)
    if stats is None:
        raise SystemExit("profiled sweep produced no profile dumps")
    print(f"sweep {spec.name!r}: {outcome.executed} point(s) profiled "
          f"({len(dumps)} dumps under {profile_dir})")
    _profile_report(args, stats)
    return 0


def _cmd_profile_bench(args: argparse.Namespace) -> int:
    from .obs.profile import profile_call
    from .obs.suite import default_registry

    registry = default_registry()
    try:
        bench = registry.get(args.name)
    except KeyError as exc:
        raise SystemExit(str(exc))
    thunk = bench.build(args.quick)
    _, stats = profile_call(thunk)
    print(f"profiled bench {bench.name!r} "
          f"({'quick' if args.quick else 'full'} workload, one invocation)")
    _profile_report(args, stats)
    return 0


def _cmd_universal(args: argparse.Namespace) -> int:
    sequence = build_universal_sequence(args.r, args.d, strict=args.strict)
    report = check_universality(sequence)
    print(f"universal sequence for r={args.r}, D={args.d}: period {len(sequence)} "
          f"(3D = {3 * args.d})")
    print(f"U1/U2 satisfied: {report.ok}")
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Broadcasting in undirected ad hoc radio networks "
                    "(Kowalski & Pelc, PODC 2003) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one broadcast")
    _add_topology_args(p_run)
    p_run.add_argument("--algorithm", default="kp", choices=ALGORITHM_CHOICES)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--engine", default="reference", choices=list(ENGINES),
                       help="execution engine (results are bit-identical; "
                            "macro is the multi-slot array path for "
                            "large n — see docs/PERFORMANCE.md)")
    p_run.add_argument("--allow-large", action="store_true",
                       help="override the estimated-memory guard for FULL "
                            "traces / dense metrics at very large n")
    p_run.add_argument("--trace", action="store_true", help="print the channel trace")
    p_run.add_argument("--trace-steps", type=int, default=60)
    p_run.add_argument("--load-network", metavar="FILE",
                       help="run on a network loaded from JSON instead of generating one")
    p_run.add_argument("--save-network", metavar="FILE",
                       help="save the network to JSON after the run")
    p_run.add_argument("--save-result", metavar="FILE",
                       help="save the result to JSON after the run")
    p_run.add_argument("--faults", metavar="FILE",
                       help="fault plan JSON (crashes, jams, loss, wake delays)")
    p_run.add_argument("--metrics", action="store_true",
                       help="record and print engine metrics and stage timings")
    p_run.add_argument("--log-jsonl", metavar="FILE",
                       help="append lifecycle events to a JSONL run log")
    p_run.set_defaults(func=_cmd_run)

    p_gossip = sub.add_parser(
        "gossip", help="all-to-all rumor exchange (library extension)"
    )
    _add_topology_args(p_gossip)
    p_gossip.set_defaults(func=_cmd_gossip)

    p_cmp = sub.add_parser("compare", help="compare algorithms on one topology")
    _add_topology_args(p_cmp)
    p_cmp.add_argument("--algorithms", nargs="+",
                       default=["kp", "bgi", "select-and-send", "round-robin"],
                       choices=ALGORITHM_CHOICES)
    p_cmp.add_argument("--runs", type=int, default=10)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_adv = sub.add_parser("adversary", help="build the Theorem 2 network G_A")
    p_adv.add_argument("--algorithm", default="round-robin", choices=ALGORITHM_CHOICES)
    p_adv.add_argument("--n", type=int, default=512)
    p_adv.add_argument("--depth", type=int, default=16, help="target radius D")
    p_adv.set_defaults(func=_cmd_adversary)

    p_exp = sub.add_parser(
        "experiment",
        help="run a paper-claim experiment (e1..e12, or 'all')",
    )
    p_exp.add_argument("name", help="experiment id, e.g. e1, or 'all'")
    p_exp.add_argument("--quick", action="store_true",
                       help="reduced sweeps for interactive use")
    p_exp.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    p_exp.set_defaults(func=_cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep", help="run a declarative parameter sweep (batched + cached)"
    )
    p_sweep.add_argument("--spec", metavar="FILE",
                         help="sweep spec JSON (see repro.sweep.SweepSpec)")
    p_sweep.add_argument("--quick", action="store_true",
                         help="run the built-in small smoke sweep")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes for cache-missed points")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk result cache")
    p_sweep.add_argument("--cache-dir", metavar="DIR",
                         help="cache location (default benchmarks/results/sweep-cache)")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit the full outcome as canonical JSON")
    p_sweep.add_argument("--faults", metavar="FILE",
                         help="fault plan JSON applied at every point "
                              "(overrides the spec's own plan)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-point wall-clock budget in seconds")
    p_sweep.add_argument("--retries", type=int, default=0,
                         help="re-attempts per failed/timed-out/killed point")
    p_sweep.add_argument("--metrics", action="store_true",
                         help="instrument executed points (timings + metrics "
                              "in payloads; cache entries stay clean)")
    p_sweep.add_argument("--log-jsonl", metavar="FILE",
                         help="append per-point lifecycle events to a JSONL "
                              "run log")
    p_sweep.add_argument("--telemetry", action="store_true",
                         help="stream sweep/point/trial/stage spans from "
                              "workers over the live telemetry bus (spans "
                              "land in --log-jsonl; results are identical)")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress the per-point console progress line")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_top = sub.add_parser(
        "top", help="live terminal view of a running sweep (telemetry bus)"
    )
    p_top.add_argument("--spec", metavar="FILE",
                       help="sweep spec JSON (see repro.sweep.SweepSpec)")
    p_top.add_argument("--quick", action="store_true",
                       help="run the built-in small smoke sweep")
    p_top.add_argument("--workers", type=int, default=1,
                       help="worker processes for cache-missed points")
    p_top.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    p_top.add_argument("--cache-dir", metavar="DIR",
                       help="cache location (default benchmarks/results/sweep-cache)")
    p_top.add_argument("--timeout", type=float, default=None,
                       help="per-point wall-clock budget in seconds")
    p_top.add_argument("--retries", type=int, default=0,
                       help="re-attempts per failed/timed-out/killed point")
    p_top.add_argument("--interval", type=float, default=0.5,
                       help="minimum seconds between screen redraws")
    p_top.add_argument("--log-jsonl", metavar="FILE",
                       help="also append every event to a JSONL run log")
    p_top.add_argument("--replay", metavar="RUNLOG",
                       help="render the final view of a recorded run log "
                            "instead of running a sweep")
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser(
        "trace", help="span tooling: export Chrome trace-event / Perfetto JSON"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_export = trace_sub.add_parser(
        "export", help="convert a runlog's span events to a Perfetto trace"
    )
    p_trace_export.add_argument("runlog",
                                help="JSONL run log containing span events "
                                     "(repro sweep --telemetry --log-jsonl, "
                                     "or repro run --log-jsonl)")
    p_trace_export.add_argument("-o", "--output", metavar="FILE", default=None,
                                help="output path (default: <runlog>.trace.json)")
    p_trace_export.set_defaults(func=_cmd_trace_export)

    p_explain = sub.add_parser(
        "explain",
        help="broadcast forensics: propagation DAG, slot attribution, stages",
    )
    explain_sub = p_explain.add_subparsers(dest="explain_command", required=True)
    p_ex_run = explain_sub.add_parser(
        "run", help="explain one broadcast (tables or --json)"
    )
    _add_topology_args(p_ex_run)
    p_ex_run.add_argument("--algorithm", default="kp", choices=ALGORITHM_CHOICES)
    p_ex_run.add_argument("--seed", type=int, default=0)
    p_ex_run.add_argument("--engine", default="reference",
                          choices=list(ENGINES),
                          help="engine to record the trace on (forensic "
                               "output is bit-identical across engines)")
    p_ex_run.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    p_ex_run.add_argument("--export-trace", metavar="FILE", default=None,
                          help="also write DAG / slot-class / stage lanes "
                               "as Chrome trace-event JSON")
    p_ex_run.set_defaults(func=_cmd_explain_run)
    p_ex_sweep = explain_sub.add_parser(
        "sweep", help="aggregate forensic scalars over repeated seeds"
    )
    _add_topology_args(p_ex_sweep)
    p_ex_sweep.add_argument("--algorithm", default="kp", choices=ALGORITHM_CHOICES)
    p_ex_sweep.add_argument("--seed", type=int, default=0, help="base seed")
    p_ex_sweep.add_argument("--runs", type=int, default=5)
    p_ex_sweep.add_argument("--json", action="store_true",
                            help="emit per-run scalars + merged metrics as JSON")
    p_ex_sweep.set_defaults(func=_cmd_explain_sweep)

    p_report = sub.add_parser(
        "report", help="render a JSONL run log or bench trajectory as tables"
    )
    p_report.add_argument("runlog",
                          help="run log written by --log-jsonl, or a "
                               "BENCH_trajectory.jsonl file")
    p_report.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of tables")
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser(
        "bench", help="run the benchmark suite under the pinned timing protocol"
    )
    p_bench.add_argument("--filter", default="",
                         help="substring matched against bench names and tags")
    p_bench.add_argument("--quick", action="store_true",
                         help="smaller workloads and fewer repeats")
    p_bench.add_argument("--compare", action="store_true",
                         help="compare against committed BENCH_<name>.json "
                              "baselines (regressions warn; set "
                              "REPRO_BENCH_STRICT=1 to fail)")
    p_bench.add_argument("--update-baseline", action="store_true",
                         help="rewrite each bench's baseline from this run")
    p_bench.add_argument("--list", action="store_true",
                         help="list registered benchmarks and exit")
    p_bench.add_argument("--results-dir", metavar="DIR", default=None,
                         help="where trajectory/baselines live "
                              "(default benchmarks/results)")
    p_bench.add_argument("--json", action="store_true",
                         help="emit records and comparisons as JSON")
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser(
        "profile", help="cProfile a run, a sweep, or a registered benchmark"
    )
    prof_sub = p_prof.add_subparsers(dest="profile_command", required=True)

    p_prof_run = prof_sub.add_parser("run", help="profile repeated broadcasts")
    _add_topology_args(p_prof_run)
    p_prof_run.add_argument("--algorithm", default="kp", choices=ALGORITHM_CHOICES)
    p_prof_run.add_argument("--engine", default="auto",
                            choices=["auto", *ENGINES],
                            help="engine to profile (auto runs the trials "
                                 "as macro unions for vectorised algorithms "
                                 "and as one event engine batch "
                                 "otherwise; any other name forces that "
                                 "engine)")
    p_prof_run.add_argument("--trials", type=int, default=10)
    p_prof_run.add_argument("--seed", type=int, default=0)
    _add_profile_report_args(p_prof_run)
    p_prof_run.set_defaults(func=_cmd_profile_run)

    p_prof_sweep = prof_sub.add_parser(
        "sweep", help="profile every executed sweep point (across the pool)"
    )
    p_prof_sweep.add_argument("--spec", metavar="FILE",
                              help="sweep spec JSON (see repro.sweep.SweepSpec)")
    p_prof_sweep.add_argument("--quick", action="store_true",
                              help="profile the built-in small smoke sweep")
    p_prof_sweep.add_argument("--workers", type=int, default=1)
    p_prof_sweep.add_argument("--profile-dir", metavar="DIR", default=None,
                              help="keep per-point .pstats dumps here "
                                   "(default: fresh temp dir)")
    _add_profile_report_args(p_prof_sweep)
    p_prof_sweep.set_defaults(func=_cmd_profile_sweep)

    p_prof_bench = prof_sub.add_parser(
        "bench", help="profile one registered benchmark's workload"
    )
    p_prof_bench.add_argument("name", help="benchmark name (see repro bench --list)")
    p_prof_bench.add_argument("--quick", action="store_true",
                              help="profile the quick workload variant")
    _add_profile_report_args(p_prof_bench)
    p_prof_bench.set_defaults(func=_cmd_profile_bench)

    p_uni = sub.add_parser("universal", help="build a Lemma 1 universal sequence")
    p_uni.add_argument("--r", type=int, required=True)
    p_uni.add_argument("--d", type=int, required=True)
    p_uni.add_argument("--strict", action="store_true")
    p_uni.set_defaults(func=_cmd_universal)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
