"""Parallel sweep execution with per-point caching and crash recovery.

The runner shards the points of a :class:`~repro.sweep.spec.SweepSpec`
across worker processes.  Cache lookups happen in the parent *before*
dispatch, so a fully-cached sweep performs zero engine runs and zero
worker spawns; only misses travel to the pool.  Every executed point's
payload is written back through :class:`~repro.sweep.cache.ResultCache`
**as soon as that point completes**, so a sweep that later fails — or a
parent that is killed outright — never loses the points it already paid
for.

The pool is a small purpose-built one rather than
``multiprocessing.Pool``: stock pools cannot survive a worker that is
SIGKILLed (by the OOM killer, a cluster preemption, or a per-point
timeout) — the in-flight task is silently lost and ``map`` hangs.  Here
every worker announces which point it is executing before starting it,
so the parent can attribute a worker death to a specific point, resubmit
that point with exponential backoff, and respawn a replacement worker.
Points that exhaust their retry budget fail the sweep with
:class:`SweepExecutionError` — but only after every other point got its
chance, and with all successful payloads already cached.

Each point itself runs all its Monte-Carlo trials as one batched array
program (:func:`~repro.sim.run.repeat_broadcast` runs oblivious
algorithms as unions of trials on
:class:`~repro.sim.macro.MacroStepEngine`), so the parallelism is
two-level: processes over points, arrays over trials.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis import render_table
from ..obs.metrics import MetricsRegistry
from ..obs.runlog import RunLogger
from ..obs.telemetry import TelemetryHub, WorkerTelemetry
from ..obs.timings import Timings
from ..sim.errors import ConfigurationError, SimulationError
from ..sim.faults import FaultPlan
from ..sim.run import repeat_broadcast
from .cache import CODE_VERSION, ResultCache
from .registry import build_algorithm, build_topology
from .spec import SweepPoint, SweepSpec, canonical_json

__all__ = [
    "PointResult",
    "SweepOutcome",
    "SweepExecutionError",
    "execute_point",
    "run_sweep",
    "engine_run_count",
    "reset_engine_run_counter",
]

#: Broadcast executions performed by this process's sweeps since the last
#: reset.  The cache regression test asserts this stays at zero on a warm
#: re-run; it counts *trials actually executed*, cached points add nothing.
_ENGINE_RUNS = 0


def engine_run_count() -> int:
    """Engine runs performed by ``run_sweep`` since the last reset."""
    return _ENGINE_RUNS


def reset_engine_run_counter() -> None:
    global _ENGINE_RUNS
    _ENGINE_RUNS = 0


class SweepExecutionError(SimulationError):
    """One or more sweep points failed after exhausting their retries.

    Raised only after every point has been attempted, with all successful
    payloads already written to the cache — re-running the sweep retries
    just the failed points.

    Attributes:
        failures: point label -> last error description.
    """

    def __init__(self, message: str, failures: dict[str, str] | None = None):
        super().__init__(message)
        self.failures = dict(failures or {})


def _point_from_canonical(payload: dict) -> SweepPoint:
    faults = payload.get("faults")
    return SweepPoint(
        topology=payload["topology"],
        topology_params=tuple(sorted(payload["topology_params"].items())),
        algorithm=payload["algorithm"],
        algorithm_params=tuple(sorted(payload["algorithm_params"].items())),
        trials=payload["trials"],
        base_seed=payload["base_seed"],
        max_steps=payload["max_steps"],
        faults=FaultPlan.from_dict(faults) if faults is not None else None,
    )


def execute_point(
    canonical: dict, instrument: bool = False, profile_dir: str | None = None,
    telemetry: WorkerTelemetry | None = None, index: int | None = None,
) -> dict:
    """Run one sweep point; top-level so worker processes can unpickle it.

    Args:
        canonical: A :meth:`SweepPoint.canonical` dict.
        instrument: Record stage timings (``point.build``, ``point.run``,
            plus the engine stages) and a metrics snapshot into the
            payload under ``"timings"`` / ``"metrics"``.  The simulated
            results are identical either way; the extra keys are stripped
            before cache writes so cached payloads stay deterministic.
        profile_dir: When given, execute the point under
            :class:`cProfile.Profile` and dump ``<label>.pstats`` into
            this directory — the per-point hook that makes hot-path
            attribution work across the multiprocessing pool.  Profiling
            observes only; the payload is identical either way.
        telemetry: Optional
            :class:`~repro.obs.telemetry.WorkerTelemetry` bundle.  When
            given, the point streams a ``point_running`` progress beat
            and a ``point`` span (with nested trial and stage spans)
            through the bundle's sender; the payload is bit-identical
            either way.
        index: The point's grid index, carried on telemetry events so the
            parent can attribute them.

    Returns:
        JSON-safe payload with per-trial times and summary statistics.
        Deterministic given the point (seeds are derived, never drawn), so
        cached payloads reproduce byte-identically.  Faulty points
        additionally carry their plan and the fault tallies summed over
        trials.
    """
    if profile_dir is not None:
        import cProfile
        import pathlib

        from ..obs.profile import profile_file_name

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            payload = _execute_point_body(
                canonical, instrument, telemetry=telemetry, index=index
            )
        finally:
            profiler.disable()
        directory = pathlib.Path(profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(directory / profile_file_name(payload["label"])))
        return payload
    return _execute_point_body(canonical, instrument, telemetry=telemetry, index=index)


def _execute_point_body(
    canonical: dict, instrument: bool = False,
    telemetry: WorkerTelemetry | None = None, index: int | None = None,
) -> dict:
    point = _point_from_canonical(canonical)
    metrics: MetricsRegistry | None = None
    timings: Timings | None = None
    observe = instrument or telemetry is not None
    if instrument:
        metrics = MetricsRegistry()
    if observe:
        timings = Timings()
    recorder = point_span = None
    if telemetry is not None:
        recorder = telemetry.recorder()
        telemetry.sender.emit(
            {"event": "point_running", "index": index, "label": point.label()}
        )
        point_span = recorder.start(
            point.label(), "point",
            parent_id=telemetry.context.parent_id,
            index=index,
        )
    try:
        t_start = time.perf_counter() if observe else 0.0
        network = build_topology(point.topology, dict(point.topology_params))
        algorithm = build_algorithm(
            point.algorithm, network, dict(point.algorithm_params)
        )
        if observe:
            t_built = time.perf_counter()
            timings.add("point.build", t_built - t_start)
        results = repeat_broadcast(
            network,
            algorithm,
            runs=point.trials,
            base_seed=point.base_seed,
            max_steps=point.max_steps,
            require_completion=False,
            faults=point.faults,
            metrics=metrics,
            timings=timings,
            spans=recorder,
        )
        if observe:
            timings.add("point.run", time.perf_counter() - t_built)
        if point_span is not None:
            point_span.attrs["runs"] = len(results)
    finally:
        if recorder is not None:
            # ``point.build`` / ``point.run`` as synthetic stage lanes;
            # the engine.* stages already landed under the trial span.
            recorder.emit_stage_spans(point_span, {}, timings, prefix="point.")
            recorder.end(point_span)
    times = [r.time for r in results]
    payload = {
        "point": canonical,
        "label": point.label(),
        "algorithm_name": getattr(algorithm, "name", point.algorithm),
        "n": network.n,
        "radius": network.radius,
        "runs": len(results),
        "completed": sum(1 for r in results if r.completed),
        "times": times,
        "mean_time": sum(times) / len(times),
        "min_time": min(times),
        "max_time": max(times),
    }
    if point.faults is not None:
        totals = collections.Counter()
        for r in results:
            totals.update(r.fault_counters.to_dict())
        payload["faults"] = point.faults.to_dict()
        payload["fault_totals"] = {
            key: int(totals.get(key, 0))
            for key in (
                "crashed_nodes", "jammed_slots", "lost_messages", "delayed_wakes"
            )
        }
    if instrument:
        payload["timings"] = timings.to_dict()
        payload["metrics"] = metrics.to_dict()
    return payload


#: Payload keys that must never enter the cache: they carry wall-clock
#: measurements, and cached payloads are required to reproduce
#: byte-identically on every machine.
_OBS_KEYS = ("timings", "metrics")


def _strip_observability(payload: dict) -> dict:
    """Payload without its observability keys (for cache writes)."""
    if any(key in payload for key in _OBS_KEYS):
        return {k: v for k, v in payload.items() if k not in _OBS_KEYS}
    return payload


@dataclass(frozen=True)
class PointResult:
    """One sweep cell's outcome plus its provenance."""

    point: SweepPoint
    payload: dict
    cached: bool


@dataclass
class SweepOutcome:
    """Everything one ``run_sweep`` call produced."""

    spec: SweepSpec
    results: list[PointResult]

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    @property
    def from_cache(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def to_dict(self) -> dict:
        """Deterministic JSON form (no cache provenance — content only)."""
        return {
            "spec": self.spec.to_dict(),
            "code_version": CODE_VERSION,
            "points": [r.payload for r in self.results],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def render_table(self) -> str:
        rows = []
        for r in self.results:
            p = r.payload
            rows.append([
                r.point.label(),
                f"{p['completed']}/{p['runs']}",
                f"{p['mean_time']:.0f}",
                f"[{p['min_time']}, {p['max_time']}]",
                "cache" if r.cached else "run",
            ])
        return render_table(
            ["point", "completed", "mean slots", "range", "source"], rows
        )


# ----------------------------------------------------------------------
# Crash-safe worker pool


#: Seconds the pool waits for its workers to exit on the stop sentinel
#: before killing the rest.
_STOP_TIMEOUT_S = 5.0


def _pool_worker(
    task_queue, result_queue, instrument: bool = False,
    profile_dir: str | None = None,
    telemetry: WorkerTelemetry | None = None,
) -> None:
    """Worker loop: announce the task, run it, report the outcome.

    The ``start`` message *before* execution is what makes recovery
    possible: if this process dies mid-point (SIGKILL, OOM, segfault),
    the parent knows exactly which point was in flight and resubmits it.
    A ``None`` task is the stop sentinel: the worker flushes its
    telemetry queue (joining the feeder thread) and exits.
    """
    pid = os.getpid()
    while True:
        task = task_queue.get()
        if task is None:
            if telemetry is not None:
                telemetry.sender.close()
            return
        index, canonical = task
        result_queue.put(("start", index, pid))
        try:
            # Positional single-arg call when uninstrumented: tests may
            # monkeypatch ``execute_point`` with one-argument stand-ins.
            if instrument or profile_dir is not None or telemetry is not None:
                payload = execute_point(
                    canonical, instrument=instrument, profile_dir=profile_dir,
                    telemetry=telemetry, index=index,
                )
            else:
                payload = execute_point(canonical)
        except Exception as exc:
            retryable = not isinstance(exc, ConfigurationError)
            result_queue.put(
                ("error", index, f"{type(exc).__name__}: {exc}", retryable)
            )
        else:
            result_queue.put(("done", index, payload))


def _run_pool(
    tasks: Sequence[tuple[int, dict]],
    workers: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    on_done: Callable[[int, dict], None],
    instrument: bool = False,
    on_event: Callable[..., None] | None = None,
    profile_dir: str | None = None,
    telemetry: TelemetryHub | None = None,
    parent_span=None,
) -> dict[int, tuple[str, int]]:
    """Execute ``(index, canonical)`` tasks on a kill-tolerant pool.

    Calls ``on_done(index, payload)`` in completion order.  ``on_event``
    (when given) observes lifecycle transitions as
    ``on_event(kind, index, **info)`` with kinds ``spawned`` / ``started``
    / ``timed_out`` / ``killed`` / ``retried`` / ``failed``; the runner
    uses it for run logs and queue-wait timing.  When a ``telemetry``
    hub is given its bus is opened on the pool's multiprocessing context,
    each worker gets a sender (worker spans nest under ``parent_span``),
    and the bus is drained on every poll iteration so events stream while
    points are still executing.  Returns
    ``index -> (error, attempts)`` for every task that exhausted its
    attempts (empty on full success); never raises for task-level
    failures.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context("spawn")
    task_queue = context.Queue()
    result_queue = context.Queue()
    worker_telemetry: WorkerTelemetry | None = None
    if telemetry is not None:
        telemetry.open_bus(context)
        worker_telemetry = telemetry.worker_telemetry(parent_span)

    canonicals = dict(tasks)
    attempts = {index: 0 for index, _ in tasks}
    remaining = set(canonicals)
    failed: dict[int, tuple[str, int]] = {}
    delayed: list[tuple[float, int]] = []  # (ready time, index)
    inflight: dict[int, tuple[int, float | None]] = {}  # pid -> (index, deadline)

    def emit(kind: str, index: int, **info) -> None:
        if on_event is not None:
            on_event(kind, index, **info)

    def submit(index: int) -> None:
        nonlocal last_activity
        attempts[index] += 1
        task_queue.put((index, canonicals[index]))
        last_activity = time.monotonic()
        emit("spawned", index, attempt=attempts[index])

    def handle_failure(index: int, error: str, retryable: bool) -> None:
        if index not in remaining or index in failed:
            return  # stale duplicate report for an already-settled point
        if any(i == index for _, i in delayed):
            return  # a retry of this point is already scheduled
        if retryable and attempts[index] < retries + 1:
            pause = backoff * (2 ** (attempts[index] - 1))
            delayed.append((time.monotonic() + pause, index))
            emit("retried", index, attempt=attempts[index], error=error)
        else:
            remaining.discard(index)
            failed[index] = (error, attempts[index])
            emit("failed", index, error=error, attempts=attempts[index])

    def clear_inflight(index: int) -> None:
        for pid, (running, _) in list(inflight.items()):
            if running == index:
                del inflight[pid]

    def spawn() -> "multiprocessing.Process":
        process = context.Process(
            target=_pool_worker,
            args=(task_queue, result_queue, instrument, profile_dir,
                  worker_telemetry),
            daemon=True,
        )
        process.start()
        return process

    processes = [spawn() for _ in range(max(1, min(workers, len(canonicals))))]
    for index, _ in tasks:
        submit(index)
    last_activity = time.monotonic()

    try:
        while remaining:
            if telemetry is not None:
                telemetry.drain()
            now = time.monotonic()
            for ready, index in list(delayed):
                if ready <= now:
                    delayed.remove((ready, index))
                    if index in remaining:
                        submit(index)
            if timeout is not None:
                for pid, (index, deadline) in list(inflight.items()):
                    if deadline is not None and now > deadline:
                        # Charge the point once, here, and drop the
                        # in-flight entry so the death observed below is
                        # not attributed a second time.
                        del inflight[pid]
                        emit("timed_out", index, timeout=timeout)
                        handle_failure(
                            index, f"timed out after {timeout:g}s", retryable=True
                        )
                        for process in processes:
                            if process.pid == pid:
                                process.kill()
            for process in list(processes):
                if not process.is_alive():
                    process.join()
                    processes.remove(process)
                    info = inflight.pop(process.pid, None)
                    if info is not None:
                        emit("killed", info[0])
                        handle_failure(
                            info[0],
                            "worker process died mid-point "
                            "(killed, out-of-memory, or crashed)",
                            retryable=True,
                        )
                    if remaining:
                        processes.append(spawn())
            # Stall rescue: a worker killed in the instant between taking
            # a task and announcing it leaves that task unattributable.
            # If nothing is running, scheduled, or arriving, resubmit
            # whatever is still open — completed duplicates are ignored.
            if not inflight and not delayed and now - last_activity > 1.0:
                for index in sorted(remaining):
                    submit(index)
                last_activity = now
            try:
                message = result_queue.get(timeout=0.05)
            except queue_module.Empty:
                continue
            last_activity = time.monotonic()
            kind, index = message[0], message[1]
            if kind == "start":
                pid = message[2]
                deadline = time.monotonic() + timeout if timeout is not None else None
                inflight[pid] = (index, deadline)
                emit("started", index)
            elif kind == "done":
                clear_inflight(index)
                if index in remaining:
                    remaining.discard(index)
                    on_done(index, message[2])
            else:  # "error"
                clear_inflight(index)
                handle_failure(index, message[2], message[3])
    finally:
        # Stop the workers with one sentinel each, so every worker flushes
        # its telemetry before exiting; drain while they do (a full bus
        # pipe would block the flush), then once more after the last one
        # is joined.  Only workers that miss the deadline are killed.
        # Leftover tasks (stale duplicates, or everything after an early
        # exit) are discarded first, so a worker finishes at most the
        # point it is on before it reads its sentinel.
        while True:
            try:
                task_queue.get_nowait()
            except queue_module.Empty:
                break
        for _ in processes:
            task_queue.put(None)
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        for process in processes:
            while process.is_alive() and time.monotonic() < deadline:
                if telemetry is not None:
                    telemetry.drain()
                process.join(timeout=0.05)
        if telemetry is not None:
            telemetry.drain()
        for process in processes:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
        for q in (task_queue, result_queue):
            q.close()
            q.cancel_join_thread()
    return failed


def _execute_serial(
    tasks: Sequence[tuple[int, dict]],
    retries: int,
    backoff: float,
    on_done: Callable[[int, dict], None],
    instrument: bool = False,
    on_event: Callable[..., None] | None = None,
    profile_dir: str | None = None,
    telemetry: WorkerTelemetry | None = None,
) -> dict[int, tuple[str, int]]:
    """In-process counterpart of :func:`_run_pool` (no timeout support)."""

    def emit(kind: str, index: int, **info) -> None:
        if on_event is not None:
            on_event(kind, index, **info)

    failed: dict[int, tuple[str, int]] = {}
    for index, canonical in tasks:
        for attempt in range(retries + 1):
            emit("spawned", index, attempt=attempt + 1)
            emit("started", index)
            try:
                if instrument or profile_dir is not None or telemetry is not None:
                    payload = execute_point(
                        canonical, instrument=instrument, profile_dir=profile_dir,
                        telemetry=telemetry, index=index,
                    )
                else:
                    payload = execute_point(canonical)
            except ConfigurationError as exc:
                error = f"{type(exc).__name__}: {exc}"
                failed[index] = (error, attempt + 1)
                emit("failed", index, error=error, attempts=attempt + 1)
                break
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if attempt == retries:
                    failed[index] = (error, attempt + 1)
                    emit("failed", index, error=error, attempts=attempt + 1)
                    break
                emit("retried", index, attempt=attempt + 1, error=error)
                time.sleep(backoff * (2 ** attempt))
            else:
                on_done(index, payload)
                break
    return failed


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache: ResultCache | None = None,
    on_point: Callable[[SweepPoint, dict, bool], None] | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    instrument: bool = False,
    runlog: RunLogger | None = None,
    metrics: MetricsRegistry | None = None,
    profile_dir: str | None = None,
    telemetry: TelemetryHub | None = None,
) -> SweepOutcome:
    """Execute a sweep, sharding cache misses across worker processes.

    Args:
        spec: The declarative sweep description.
        workers: Process count for cache-missed points; ``1`` executes
            in-process (no pool spin-up — also what deterministic
            run-counter tests use) unless a ``timeout`` forces a worker,
            since only a separate process can be killed mid-point.
        cache: Result cache; ``None`` disables caching entirely.  Each
            executed payload is written back the moment its point
            completes, so partial progress survives later failures.
        on_point: Progress callback ``(point, payload, cached)``, invoked
            in completion order: cache hits first (grid order), then each
            executed point as it finishes — *before* later points
            complete, so callers can stream results.
        timeout: Per-point wall-clock budget in seconds; a point
            exceeding it has its worker killed and counts as a retryable
            failure.  ``None`` disables the limit.
        retries: How many times a failed point (error, timeout, or worker
            death) is re-attempted.  Configuration errors are
            deterministic and never retried.
        backoff: Base delay in seconds before a retry; doubles with each
            subsequent attempt of the same point.
        instrument: Execute points with metrics and stage timings; each
            executed payload then carries ``"timings"`` (worker stages
            plus ``pool.queue_wait`` / ``pool.execute`` /
            ``pool.serialize`` / ``pool.cache_write``) and ``"metrics"``
            keys.  Both are stripped before cache writes — the cache
            stores only deterministic content.
        runlog: Optional :class:`~repro.obs.runlog.RunLogger` receiving
            one JSONL event per lifecycle transition (``sweep_started``,
            ``point_cache_hit``, ``point_spawned``, ``point_completed``,
            ``point_timed_out``, ``point_killed``, ``point_retried``,
            ``point_failed``, ``sweep_completed``).  Only this parent
            process writes to it.
        metrics: Optional parent-side
            :class:`~repro.obs.metrics.MetricsRegistry`.  The runner sets
            the sweep gauges (``sweep_cache_hit_ratio``,
            ``sweep_active_workers``) on it, and — when ``instrument`` is
            on — folds every executed point's worker-side snapshot into
            it as the point completes, so after the sweep this one
            registry holds the whole grid's tallies.
        profile_dir: When given, every executed point runs under
            cProfile and dumps ``<label>.pstats`` into this directory
            (workers write their own files; labels are unique per point,
            so parallel writers never clash).  Merge them back with
            :func:`repro.obs.profile.merge_stats_files`.
        telemetry: Optional :class:`~repro.obs.telemetry.TelemetryHub`.
            The sweep then records a ``sweep`` span, workers stream
            ``point`` / ``trial`` / ``stage`` spans and ``point_running``
            beats over the hub's bounded bus (drained live on the pool's
            poll loop, never blocking workers), and every lifecycle event
            fans out to the hub's subscribers as it happens.  When the
            hub has a runlog and ``runlog`` is ``None``, the hub's is
            used.  Results and cache bytes are bit-identical with
            telemetry on or off; a saturated bus drops events and the
            total is reported as one ``telemetry_dropped`` event (plus a
            ``telemetry_dropped_events`` counter on ``metrics``).

    Returns:
        A :class:`SweepOutcome` with one :class:`PointResult` per grid
        cell, in grid order.

    Raises:
        SweepExecutionError: If any point still fails after its retry
            budget.  All other points finish (and are cached) first.
    """
    global _ENGINE_RUNS
    if retries < 0:
        raise ConfigurationError(f"retries must be non-negative, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be positive, got {timeout}")
    if telemetry is not None and runlog is None:
        runlog = telemetry.runlog
    observing = runlog is not None or telemetry is not None

    def log(kind: str, **fields) -> None:
        """One lifecycle event: into the runlog and out to hub subscribers."""
        if runlog is not None:
            record = runlog.event(kind, **fields)
        else:
            record = {"event": kind, **fields}
        if telemetry is not None:
            telemetry.notify(record)

    points = spec.points()
    if observing:
        log(
            "sweep_started",
            name=spec.name,
            points=len(points),
            workers=workers,
            instrument=instrument,
        )
    sweep_span = None
    if telemetry is not None:
        sweep_span = telemetry.recorder.start(
            spec.name, "sweep", points=len(points), workers=workers
        )
    payloads: dict[int, dict] = {}
    cached_flags: dict[int, bool] = {}
    pending: list[int] = []
    for i, point in enumerate(points):
        hit = cache.get(point) if cache is not None else None
        if hit is not None:
            payloads[i] = hit
            cached_flags[i] = True
            if observing:
                log("point_cache_hit", index=i, label=point.label())
            if on_point is not None:
                on_point(point, hit, True)
        else:
            pending.append(i)

    if metrics is not None:
        hit_count = len(points) - len(pending)
        metrics.gauge("sweep_cache_hit_ratio").set(
            hit_count / len(points) if points else 0.0
        )
        metrics.gauge("sweep_active_workers").set(0)

    failed: dict[int, tuple[str, int]] = {}
    if pending:
        # Lifecycle bookkeeping: submit/start walltimes feed the
        # pool.queue_wait / pool.execute stages of each point's timings.
        submit_times: dict[int, float] = {}
        start_times: dict[int, float] = {}
        point_attempts: dict[int, int] = {}
        observe = instrument or observing

        def pool_event(kind: str, index: int, **info) -> None:
            now = time.perf_counter()
            if kind == "spawned":
                submit_times[index] = now
                start_times.pop(index, None)
                point_attempts[index] = info.get("attempt", 1)
                if observing:
                    log(
                        "point_spawned",
                        index=index,
                        label=points[index].label(),
                        **info,
                    )
            elif kind == "started":
                start_times[index] = now
            elif observing:  # timed_out / killed / retried / failed
                log(
                    f"point_{kind}",
                    index=index,
                    label=points[index].label(),
                    **info,
                )

        def on_done(index: int, payload: dict) -> None:
            global _ENGINE_RUNS
            payloads[index] = payload
            cached_flags[index] = False
            _ENGINE_RUNS += payload["runs"]
            done_at = time.perf_counter()
            to_store = _strip_observability(payload)
            timings: Timings | None = None
            if observe:
                timings = Timings.from_dict(payload.get("timings") or {})
                submitted = submit_times.get(index)
                started = start_times.get(index, submitted)
                if started is not None and submitted is not None:
                    timings.add("pool.queue_wait", started - submitted)
                    timings.add("pool.execute", done_at - started)
            if cache is not None:
                if timings is not None:
                    t0 = time.perf_counter()
                    text = canonical_json(to_store)
                    t1 = time.perf_counter()
                    cache.put(points[index], to_store, text=text)
                    timings.add("pool.serialize", t1 - t0)
                    timings.add("pool.cache_write", time.perf_counter() - t1)
                else:
                    cache.put(points[index], to_store)
            if timings is not None and "timings" in payload:
                payload["timings"] = timings.to_dict()
            if metrics is not None and payload.get("metrics"):
                metrics.merge(MetricsRegistry.from_dict(payload["metrics"]))
            if observing:
                log(
                    "point_completed",
                    index=index,
                    label=points[index].label(),
                    attempt=point_attempts.get(index, 1),
                    mean_time=payload.get("mean_time"),
                    timings=(timings.to_dict() if timings is not None else None),
                    metrics=payload.get("metrics"),
                )
            if on_point is not None:
                on_point(points[index], payload, False)

        tasks = [(i, points[i].canonical()) for i in pending]
        use_pool = (workers > 1 and len(pending) > 1) or timeout is not None
        on_event = pool_event if observe else None
        if metrics is not None:
            metrics.gauge("sweep_active_workers").set(
                max(1, min(workers, len(pending))) if use_pool else 1
            )
        if use_pool:
            failed = _run_pool(
                tasks, workers, timeout, retries, backoff, on_done,
                instrument=instrument, on_event=on_event,
                profile_dir=profile_dir,
                telemetry=telemetry, parent_span=sweep_span,
            )
        else:
            failed = _execute_serial(
                tasks, retries, backoff, on_done,
                instrument=instrument, on_event=on_event,
                profile_dir=profile_dir,
                telemetry=(
                    telemetry.local_telemetry(sweep_span)
                    if telemetry is not None
                    else None
                ),
            )

    executed_count = sum(1 for f in cached_flags.values() if not f)
    cache_count = sum(1 for f in cached_flags.values() if f)
    if telemetry is not None:
        telemetry.drain()
        telemetry.recorder.end(
            sweep_span,
            executed=executed_count, from_cache=cache_count, failed=len(failed),
        )
        if telemetry.dropped:
            log("telemetry_dropped", count=telemetry.dropped)
            if metrics is not None:
                metrics.counter("telemetry_dropped_events").inc(telemetry.dropped)
    if observing:
        log(
            "sweep_completed",
            name=spec.name,
            executed=executed_count,
            from_cache=cache_count,
            failed=len(failed),
        )
    if failed:
        failures = {}
        details = []
        for i in sorted(failed):
            error, attempt_count = failed[i]
            label = points[i].label()
            failures[label] = error
            details.append(
                f"{label}: {error} (after {attempt_count} attempt(s); "
                f"spec {canonical_json(points[i].canonical())})"
            )
        raise SweepExecutionError(
            f"{len(failed)} sweep point(s) failed: " + "; ".join(details),
            failures=failures,
        )

    results = [
        PointResult(point=point, payload=payloads[i], cached=cached_flags[i])
        for i, point in enumerate(points)
    ]
    return SweepOutcome(spec=spec, results=results)
