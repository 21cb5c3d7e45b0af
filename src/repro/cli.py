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
  throughput, ETA, per-worker state) driven by live telemetry; or
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
  protocol and append to ``BENCH_trajectory.jsonl``.
* ``profile`` — cProfile a run, a sweep (per-point, across the worker
  pool), or a registered benchmark; prints a pstats top-N table and can
  export callgrind files for KCachegrind.
* ``universal`` — build and check a universal sequence (Lemma 1).

Examples::

    repro run --topology geometric --n 200 --algorithm kp-optimal
    repro run --topology gnp-csr --n 1000000 --avg-degree 12 \
        --algorithm kp-known-d --engine macro
    repro run --topology gnp --n 64 --algorithm bgi --faults plan.json
    repro run --topology gnp --n 64 --algorithm kp-optimal --metrics --log-jsonl run.jsonl
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
    repro explain run --topology km-layered --n 128 --depth 16 --algorithm kp-optimal
    repro explain run --algorithm select-and-send --n 32 --json
    repro explain sweep --algorithm bgi --n 64 --runs 10 --json
    repro report sweep.jsonl
    repro report benchmarks/results/BENCH_trajectory.jsonl --json
    repro bench --quick
    repro bench --filter engine
    repro profile run --topology km-layered --n 256 --algorithm kp-optimal --trials 20
    repro profile sweep --quick --workers 2 --callgrind sweep.callgrind
    repro profile bench batched_engine --quick --top 15
    repro universal --r 65536 --d 16384
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .adversary import LowerBoundConstruction, verify_construction
from .analysis import render_table, summarize
from .combinatorics import build_universal_sequence, check_universality
from .sim import (
    ENGINES,
    FaultPlan,
    TraceLevel,
    load_network,
    repeat_broadcast,
    run_broadcast,
    save_network,
    save_result,
)
from .sim.errors import ConfigurationError, SimulationError
from .sweep.registry import (
    ALGORITHMS,
    TOPOLOGIES,
    TOPOLOGY_AWARE,
    build_algorithm,
    build_topology,
)

__all__ = ["main"]

#: ``--engine`` values: a registered engine, or ``auto`` (macro for
#: oblivious algorithms, event otherwise).
ENGINE_CHOICES = ["auto", *ENGINES]


def _build_network(args: argparse.Namespace):
    """The ``--topology`` family, given only the flags its factory declares."""
    flags = {"n": args.n, "depth": args.depth, "seed": args.topology_seed,
             "avg_degree": args.avg_degree}
    declared = inspect.signature(TOPOLOGIES[args.topology]).parameters
    return build_topology(
        args.topology, {k: v for k, v in flags.items() if k in declared}
    )


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="geometric", choices=list(TOPOLOGIES),
                        help="topology family (see repro.sweep.registry)")
    parser.add_argument("--n", type=int, default=200, help="number of nodes")
    parser.add_argument("--depth", type=int, default=8,
                        help="radius for layered topologies")
    parser.add_argument("--avg-degree", type=float, default=6.0,
                        help="expected degree for gnp and gnp-csr "
                             "(p = min(0.9, avg-degree/n))")
    parser.add_argument("--topology-seed", type=int, default=0)


def _add_algorithm_arg(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--algorithm", default=default, choices=list(ALGORITHMS))


def _read_json(path: str, what: str):
    """A JSON document; an unreadable or invalid file exits with one line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{what} {path} is not valid JSON: {exc}")


def _load_fault_plan(path: str) -> FaultPlan:
    """Read a :class:`~repro.sim.faults.FaultPlan` JSON document."""
    try:
        return FaultPlan.from_dict(_read_json(path, "fault plan"))
    except ConfigurationError as exc:
        raise SystemExit(f"bad fault plan: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.load_network:
        net = load_network(args.load_network)
    else:
        net = _build_network(args)
    algorithm = build_algorithm(args.algorithm, net, {})
    level = TraceLevel.FULL if args.trace else TraceLevel.NONE
    faults = _load_fault_plan(args.faults) if args.faults else None
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


def _cmd_compare(args: argparse.Namespace) -> int:
    net = _build_network(args)
    print(net.describe())
    rows = []
    for name in args.algorithms:
        algorithm = build_algorithm(name, net, {})
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
    if args.algorithm in TOPOLOGY_AWARE:
        raise ConfigurationError(
            f"algorithm {args.algorithm!r} is built from the whole topology, "
            f"but the adversary builds G_A from the algorithm's behaviour"
        )

    # The adversary needs r = n - 1 baked into label-driven algorithms.
    class _Holder:
        r = args.n - 1
        radius = args.depth

    algorithm = build_algorithm(args.algorithm, _Holder, {})
    if not getattr(algorithm, "deterministic", False):
        raise SystemExit("the Section 3 adversary applies to deterministic algorithms")
    construction = LowerBoundConstruction(algorithm, args.n, args.depth)
    result = construction.build()
    report = verify_construction(result, build_algorithm(args.algorithm, _Holder, {}))
    print(result.describe())
    print(f"Lemma 9 histories match: {report.histories_match}")
    print(f"silence floor {result.silence_floor} respected: {report.silence_respected}")
    print(f"real broadcast time on G_A: {report.real_completion_time}")
    return 0 if report.histories_match else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
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


def _add_sweep_args(
    parser: argparse.ArgumentParser, verb: str = "run", log_help: str | None = None
) -> None:
    """The flags of the sweep commands.  ``profile sweep`` (``log_help``
    unset) runs uncached and unbudgeted, so it takes only the first three."""
    parser.add_argument("--spec", metavar="FILE",
                        help="sweep spec JSON (see repro.sweep.SweepSpec)")
    parser.add_argument("--quick", action="store_true",
                        help=f"{verb} the built-in small smoke sweep")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for cache-missed points")
    if log_help is None:
        return
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="cache location (default benchmarks/results/sweep-cache)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-attempts per failed/timed-out/killed point")
    parser.add_argument("--log-jsonl", metavar="FILE", help=log_help)


def _open_sweep_sinks(args: argparse.Namespace):
    """The result cache (``None`` under ``--no-cache``) and run logger
    (``None`` without ``--log-jsonl``) of a sweep command."""
    from .obs import RunLogger
    from .sweep import DEFAULT_CACHE_DIR, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    runlog = RunLogger(args.log_jsonl) if args.log_jsonl else None
    return cache, runlog


def _load_sweep_spec(args: argparse.Namespace):
    """Resolve ``--spec FILE`` / ``--quick`` into a ``SweepSpec``."""
    from .sweep import SweepSpec

    if args.spec:
        document = _read_json(args.spec, "sweep spec")
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

    from .sweep import run_sweep

    spec = _load_sweep_spec(args)
    if args.faults:
        try:
            spec = dataclasses.replace(spec, faults=_load_fault_plan(args.faults))
        except ConfigurationError as exc:
            raise SystemExit(f"bad sweep spec: {exc}")
    cache, runlog = _open_sweep_sinks(args)
    metrics = None
    if args.metrics:
        from .obs import MetricsRegistry

        # The runner folds every executed point's snapshot into this
        # registry and sets the sweep-level gauges on it.
        metrics = MetricsRegistry()
    telemetry = None
    if args.telemetry:
        from .obs import TelemetryHub

        # Spans (sweep/point/trial/stage) stream from workers over their
        # pipes and land in the runlog as they happen.
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
    if args.replay:
        from .obs.runlog import read_runlog
        from .obs.top import replay_events

        print(replay_events(_read_runlog(read_runlog, args.replay)).render())
        return 0

    from .obs import TelemetryHub
    from .obs.top import LiveRenderer
    from .sweep import run_sweep

    spec = _load_sweep_spec(args)
    cache, runlog = _open_sweep_sinks(args)
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
        if runlog is not None:
            runlog.close()
    renderer.finish()
    print(f"sweep {spec.name!r}: {len(outcome.results)} points "
          f"({outcome.executed} executed, {outcome.from_cache} from cache)")
    if runlog is not None:
        print(f"run log written to {runlog.path}")
    return 0


def _read_runlog(read, path: str):
    """``read(path)``; an unreadable or malformed run log exits with one line."""
    from .obs.runlog import RunlogError

    try:
        return read(path)
    except OSError as exc:
        raise SystemExit(f"cannot read run log: {exc}")
    except RunlogError as exc:
        raise SystemExit(f"bad run log: {exc}")


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import pathlib

    from .obs.runlog import read_runlog
    from .obs.spans import TraceFormatError, span_events, write_trace

    events = _read_runlog(read_runlog, args.runlog)
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
    from .obs.forensics import analyze, forensic_span_events

    net = _build_network(args)
    algorithm = build_algorithm(args.algorithm, net, {})
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
    from .obs import MetricsRegistry
    from .obs.forensics import analyze, record_forensics_metrics
    from .obs.report import render_metrics
    from .sim.run import run_broadcast_batch

    net = _build_network(args)
    algorithm = build_algorithm(args.algorithm, net, {})
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
    from .obs.report import report_from_file, report_json_from_file

    if args.json:
        document = _read_runlog(report_json_from_file, args.runlog)
        print(json.dumps(document, indent=1, sort_keys=True))
    else:
        print(_read_runlog(report_from_file, args.runlog))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs import bench as bench_mod
    from .obs.suite import default_registry  # importing registers the suite

    registry = default_registry()
    if args.list:
        rows = [
            [b.name, ",".join(b.tags), b.reference or "-",
             "-" if b.reference is None
             else f"<= {b.max_ratio:.2f}x{' (strict)' if b.strict_ratio else ''}",
             b.description]
            for b in registry
        ]
        print(render_table(
            ["bench", "tags", "reference", "max ratio", "description"],
            rows, title="registered benchmarks",
        ))
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

    if args.json:
        print(json.dumps({"records": records}, indent=1, sort_keys=True))
        return 0
    rows = [
        [
            record["bench"],
            f"{record['min_s']:.4f}",
            f"{record['median_s']:.4f}",
            record["repeats"],
            f"{record['ratio']:.3f}x {record['reference']}"
            if "reference" in record else "-",
        ]
        for record in records
    ]
    mode = "quick" if args.quick else "full"
    print(render_table(["bench", "min (s)", "median (s)", "repeats", "vs reference"],
                       rows, title=f"benchmark suite ({mode}, git {env['git_sha']})"))
    print(f"trajectory: {bench_mod.trajectory_path(args.results_dir)}")
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

    net = _build_network(args)
    algorithm = build_algorithm(args.algorithm, net, {})
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
    _add_algorithm_arg(p_run, "kp-optimal")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--engine", default="auto", choices=ENGINE_CHOICES,
                       help="execution engine (results are bit-identical; "
                            "auto picks macro, the multi-slot array path "
                            "for large n, for oblivious algorithms and "
                            "event otherwise — see docs/PERFORMANCE.md)")
    p_run.add_argument("--allow-large", action="store_true",
                       help="override the memory guards: the FULL-trace "
                            "byte budget and the dense-metrics estimate")
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

    p_cmp = sub.add_parser("compare", help="compare algorithms on one topology")
    _add_topology_args(p_cmp)
    p_cmp.add_argument("--algorithms", nargs="+",
                       default=["kp-optimal", "bgi", "select-and-send", "round-robin"],
                       choices=list(ALGORITHMS))
    p_cmp.add_argument("--runs", type=int, default=10)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_adv = sub.add_parser("adversary", help="build the Theorem 2 network G_A")
    _add_algorithm_arg(p_adv, "round-robin")
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
    _add_sweep_args(p_sweep, log_help="append per-point lifecycle events to a "
                                      "JSONL run log")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit the full outcome as canonical JSON")
    p_sweep.add_argument("--faults", metavar="FILE",
                         help="fault plan JSON applied at every point "
                              "(overrides the spec's own plan)")
    p_sweep.add_argument("--metrics", action="store_true",
                         help="instrument executed points (timings + metrics "
                              "in payloads; cache entries stay clean)")
    p_sweep.add_argument("--telemetry", action="store_true",
                         help="stream sweep/point/trial/stage spans from "
                              "workers as they run (spans "
                              "land in --log-jsonl; results are identical)")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress the per-point console progress line")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_top = sub.add_parser(
        "top", help="live terminal view of a running sweep (live telemetry)"
    )
    _add_sweep_args(p_top, log_help="also append every event to a JSONL run log")
    p_top.add_argument("--interval", type=float, default=0.5,
                       help="minimum seconds between screen redraws")
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
    _add_algorithm_arg(p_ex_run, "kp-optimal")
    p_ex_run.add_argument("--seed", type=int, default=0)
    p_ex_run.add_argument("--engine", default="auto", choices=ENGINE_CHOICES,
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
    _add_algorithm_arg(p_ex_sweep, "kp-optimal")
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
    p_bench.add_argument("--list", action="store_true",
                         help="list registered benchmarks and exit")
    p_bench.add_argument("--results-dir", metavar="DIR", default=None,
                         help="where the trajectory lives "
                              "(default benchmarks/results)")
    p_bench.add_argument("--json", action="store_true",
                         help="emit the records as JSON")
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser(
        "profile", help="cProfile a run, a sweep, or a registered benchmark"
    )
    prof_sub = p_prof.add_subparsers(dest="profile_command", required=True)

    p_prof_run = prof_sub.add_parser("run", help="profile repeated broadcasts")
    _add_topology_args(p_prof_run)
    _add_algorithm_arg(p_prof_run, "kp-optimal")
    p_prof_run.add_argument("--engine", default="auto", choices=ENGINE_CHOICES,
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
    _add_sweep_args(p_prof_sweep, verb="profile")
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

    try:
        return args.func(args)
    except ConfigurationError as exc:
        # A bad configuration is the caller's input, not a crash: one
        # line on stderr and exit status 1.
        raise SystemExit(f"repro {args.command}: error: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
