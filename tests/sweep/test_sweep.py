"""Sweep subsystem: spec expansion, caching, and the parallel runner.

The cache regression tests are the teeth of the subsystem: a second
unchanged invocation must perform *zero* engine runs (observed through
the runner's run counter) and return byte-identical results, while a
changed parameter invalidates exactly the points it touches.
"""

from __future__ import annotations

import json

import pytest

from repro.sim.errors import ConfigurationError
from repro.sweep import (
    ResultCache,
    SweepPoint,
    SweepSpec,
    build_algorithm,
    build_topology,
    canonical_json,
    engine_run_count,
    execute_point,
    reset_engine_run_counter,
    run_sweep,
)

SMALL_SPEC = dict(
    name="unit",
    topology="layered",
    algorithm="kp-known-d",
    topology_grid={"n": [12, 18], "depth": 3},
    algorithm_grid={"stage_constant": 4},
    trials=2,
)


@pytest.fixture(autouse=True)
def _fresh_counter():
    reset_engine_run_counter()
    yield
    reset_engine_run_counter()


class TestSpec:
    def test_grid_expansion(self):
        spec = SweepSpec(**SMALL_SPEC)
        points = spec.points()
        assert len(points) == 2
        assert [dict(p.topology_params)["n"] for p in points] == [12, 18]
        for p in points:
            assert p.trials == 2
            assert dict(p.algorithm_params) == {"stage_constant": 4}

    def test_scalar_values_become_single_choices(self):
        spec = SweepSpec(name="s", topology="path", algorithm="round-robin",
                         topology_grid={"n": 8})
        assert len(spec.points()) == 1

    def test_roundtrip_through_dict(self):
        spec = SweepSpec(**SMALL_SPEC)
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.points() == spec.points()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({**SMALL_SPEC, "typo_field": 1})

    def test_from_dict_requires_name_topology_algorithm(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"name": "x", "topology": "path"})

    def test_hash_ignores_sweep_name(self):
        a = SweepSpec(**SMALL_SPEC).points()[0]
        b = SweepSpec(**{**SMALL_SPEC, "name": "renamed"}).points()[0]
        assert a.content_hash("v1") == b.content_hash("v1")

    def test_hash_depends_on_params_and_code_version(self):
        a = SweepSpec(**SMALL_SPEC).points()[0]
        changed = SweepSpec(**{**SMALL_SPEC, "trials": 3}).points()[0]
        assert a.content_hash("v1") != changed.content_hash("v1")
        assert a.content_hash("v1") != a.content_hash("v2")


class TestRegistry:
    def test_build_topology(self):
        net = build_topology("path", {"n": 7})
        assert net.n == 7

    def test_build_algorithm(self):
        net = build_topology("path", {"n": 7})
        algo = build_algorithm("round-robin", net, {})
        assert algo.deterministic

    def test_unknown_names_raise(self):
        net = build_topology("star", {"n": 5})
        with pytest.raises(ConfigurationError):
            build_topology("moebius", {})
        with pytest.raises(ConfigurationError):
            build_algorithm("gossip-3000", net, {})

    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            build_topology("path", {"n": 7, "curvature": 2})


class TestRunnerAndCache:
    def test_warm_rerun_hits_cache_with_zero_engine_runs(self, tmp_path):
        spec = SweepSpec(**SMALL_SPEC)
        cache = ResultCache(tmp_path)

        first = run_sweep(spec, cache=cache)
        assert first.executed == 2 and first.from_cache == 0
        assert engine_run_count() == 2 * spec.trials

        reset_engine_run_counter()
        second = run_sweep(spec, cache=cache)
        assert second.executed == 0 and second.from_cache == 2
        assert engine_run_count() == 0
        assert second.to_json() == first.to_json()

    def test_changed_parameter_invalidates_only_affected_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(SweepSpec(**SMALL_SPEC), cache=cache)

        reset_engine_run_counter()
        changed = SweepSpec(**{**SMALL_SPEC,
                               "topology_grid": {"n": [12, 24], "depth": 3}})
        outcome = run_sweep(changed, cache=cache)
        # n=12 is untouched and comes from the cache; n=24 is new.
        assert [r.cached for r in outcome.results] == [True, False]
        assert engine_run_count() == changed.trials

    def test_no_cache_runs_everything(self, tmp_path):
        spec = SweepSpec(**SMALL_SPEC)
        run_sweep(spec, cache=ResultCache(tmp_path))
        reset_engine_run_counter()
        outcome = run_sweep(spec, cache=None)
        assert outcome.executed == 2
        assert engine_run_count() == 2 * spec.trials

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = SweepSpec(**SMALL_SPEC)
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        cache.path_for(spec.points()[0]).write_text("{not json", encoding="utf-8")
        second = run_sweep(spec, cache=cache)
        assert [r.cached for r in second.results] == [False, True]
        assert second.to_json() == first.to_json()

    def test_workers_produce_identical_results(self, tmp_path):
        spec = SweepSpec(**SMALL_SPEC)
        serial = run_sweep(spec, workers=1, cache=None)
        pooled = run_sweep(spec, workers=2, cache=None)
        assert pooled.to_json() == serial.to_json()

    def test_execute_point_is_deterministic(self):
        point = SweepSpec(**SMALL_SPEC).points()[0]
        a = execute_point(point.canonical())
        b = execute_point(point.canonical())
        assert canonical_json(a) == canonical_json(b)
        assert a["runs"] == point.trials
        assert len(a["times"]) == point.trials

    def test_deterministic_algorithm_collapses_to_one_run(self, tmp_path):
        spec = SweepSpec(name="det", topology="path", algorithm="round-robin",
                         topology_grid={"n": 9}, trials=6)
        outcome = run_sweep(spec, cache=None)
        # repeat_broadcast runs deterministic algorithms once.
        assert outcome.results[0].payload["runs"] == 1
        assert engine_run_count() == 1

    def test_run_counter_matches_trials(self):
        spec = SweepSpec(**SMALL_SPEC)
        run_sweep(spec, cache=None)
        assert engine_run_count() == len(spec.points()) * spec.trials


class TestPointValidation:
    """trials >= 1 is enforced at parse time, on every construction path.

    Regression: a zero-trial point used to survive until deep inside
    ``execute_point``, where the summary statistics divided by an empty
    trial list (ZeroDivisionError) instead of reporting the bad config.
    """

    def test_spec_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(**{**SMALL_SPEC, "trials": 0})

    def test_from_dict_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({**SMALL_SPEC, "trials": 0})

    def test_point_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(
                topology="path", topology_params=(("n", 5),),
                algorithm="round-robin", algorithm_params=(),
                trials=0, base_seed=0, max_steps=None,
            )

    def test_execute_point_rejects_zero_trials_cleanly(self):
        canonical = SweepSpec(**SMALL_SPEC).points()[0].canonical()
        canonical["trials"] = 0
        with pytest.raises(ConfigurationError):
            execute_point(canonical)


class TestFaultyPoints:
    PLAN = {"crashes": [[2, 1]], "loss_probability": 0.2, "seed": 9}

    def test_spec_faults_reach_every_point(self):
        from repro.sim import FaultPlan

        spec = SweepSpec(**SMALL_SPEC, faults=self.PLAN)
        for point in spec.points():
            assert point.faults == FaultPlan.from_dict(self.PLAN)
            assert point.label().endswith("+faults")
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.points() == spec.points()

    def test_faultless_hash_is_unchanged_by_the_fault_field(self):
        # Fault-free points must hash exactly as before the field existed,
        # keeping existing on-disk caches valid.
        point = SweepSpec(**SMALL_SPEC).points()[0]
        assert "faults" not in point.canonical()
        faulty = SweepSpec(**SMALL_SPEC, faults=self.PLAN).points()[0]
        assert faulty.content_hash("v1") != point.content_hash("v1")

    def test_execute_point_reports_fault_totals(self):
        spec = SweepSpec(**SMALL_SPEC, faults=self.PLAN)
        payload = execute_point(spec.points()[0].canonical())
        assert payload["faults"] == spec.points()[0].faults.to_dict()
        totals = payload["fault_totals"]
        assert set(totals) == {
            "crashed_nodes", "jammed_slots", "lost_messages", "delayed_wakes"
        }
        assert totals["crashed_nodes"] >= 1

    def test_faulty_sweep_round_trips_cache(self, tmp_path):
        spec = SweepSpec(**SMALL_SPEC, faults=self.PLAN)
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        reset_engine_run_counter()
        second = run_sweep(spec, cache=cache)
        assert second.from_cache == len(spec.points())
        assert engine_run_count() == 0
        assert second.to_json() == first.to_json()


class TestStreaming:
    def test_on_point_fires_in_completion_order(self, tmp_path, monkeypatch):
        """Each executed point's callback fires before later points run."""
        import repro.sweep.runner as runner

        events = []
        real = runner.execute_point

        def tracked(canonical):
            events.append(("exec", canonical["topology_params"]["n"]))
            return real(canonical)

        monkeypatch.setattr(runner, "execute_point", tracked)
        spec = SweepSpec(**SMALL_SPEC)
        run_sweep(
            spec,
            cache=None,
            on_point=lambda p, payload, cached: events.append(
                ("done", dict(p.topology_params)["n"])
            ),
        )
        assert events == [("exec", 12), ("done", 12), ("exec", 18), ("done", 18)]

    def test_cache_hits_stream_before_executions(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner

        spec = SweepSpec(**SMALL_SPEC)
        cache = ResultCache(tmp_path)
        # Warm only the second point.
        warm = SweepSpec(**{**SMALL_SPEC, "topology_grid": {"n": [18], "depth": 3}})
        run_sweep(warm, cache=cache)

        events = []
        real = runner.execute_point

        def tracked(canonical):
            events.append(("exec", canonical["topology_params"]["n"]))
            return real(canonical)

        monkeypatch.setattr(runner, "execute_point", tracked)
        run_sweep(
            spec, cache=cache,
            on_point=lambda p, payload, cached: events.append(
                ("done", dict(p.topology_params)["n"], cached)
            ),
        )
        assert events == [("done", 18, True), ("exec", 12), ("done", 12, False)]

    def test_per_completion_cache_write_back(self, tmp_path, monkeypatch):
        """The cache entry for a point exists the moment its callback runs."""
        cache = ResultCache(tmp_path)
        spec = SweepSpec(**SMALL_SPEC)
        points = spec.points()
        seen = []

        def probe(point, payload, cached):
            seen.append(cache.get(point) is not None)

        run_sweep(spec, cache=cache, on_point=probe)
        assert seen == [True, True]
        assert len(seen) == len(points)


class TestCrashSafety:
    def _spec(self):
        return SweepSpec(**SMALL_SPEC)

    def test_sigkilled_worker_is_retried_to_completion(self, tmp_path, monkeypatch):
        import os
        import signal

        import repro.sweep.runner as runner

        real = runner.execute_point
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()

        def kill_once(canonical):
            n = canonical["topology_params"]["n"]
            marker = marker_dir / f"seen-{n}"
            if n == 12 and not marker.exists():
                marker.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(canonical)

        monkeypatch.setattr(runner, "execute_point", kill_once)
        cache = ResultCache(tmp_path / "cache")
        outcome = run_sweep(self._spec(), workers=2, cache=cache, retries=2)
        assert len(outcome.results) == 2
        assert not any(r.cached for r in outcome.results)
        # Zero lost cache entries despite the mid-run kill.
        assert all(cache.get(p) is not None for p in self._spec().points())

    def test_death_reaped_before_its_announcement_is_read_is_retried(
        self, tmp_path, monkeypatch
    ):
        # The worker that ran n=12 announces n=24 and dies while the
        # parent is still busy in the n=12 callback, so the parent reaps
        # the worker before it reads the announcement.  The point must be
        # charged at once, not left in flight on a dead pid until the
        # timeout (or, without one, forever).
        import os
        import signal
        import time as time_module

        from repro.obs.runlog import RunLogger, assert_valid_runlog
        import repro.sweep.runner as runner

        real = runner.execute_point
        busy = tmp_path / "parent-busy"
        killed = tmp_path / "killed"

        def wait_for_parent():
            while not busy.exists():
                time_module.sleep(0.01)

        def staged(canonical):
            n = canonical["topology_params"]["n"]
            if n == 18:
                wait_for_parent()  # keeps n=24 for the n=12 worker
            elif n == 24 and not killed.exists():
                wait_for_parent()
                killed.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(canonical)

        def on_point(point, payload, cached):
            if dict(point.topology_params)["n"] == 12:
                busy.write_text("x")
                time_module.sleep(1.0)

        monkeypatch.setattr(runner, "execute_point", staged)
        spec = SweepSpec(
            **{**SMALL_SPEC, "topology_grid": {"n": [12, 18, 24], "depth": 3}}
        )
        log_path = tmp_path / "run.jsonl"
        with RunLogger(log_path) as runlog:
            outcome = run_sweep(
                spec, workers=2, timeout=10, retries=1, on_point=on_point,
                runlog=runlog,
            )
        assert len(outcome.results) == 3
        kinds = [e["event"] for e in assert_valid_runlog(log_path)]
        assert "point_killed" in kinds
        assert "point_timed_out" not in kinds

    def test_hung_point_is_killed_and_retried(self, tmp_path, monkeypatch):
        import time as time_module

        import repro.sweep.runner as runner

        real = runner.execute_point
        marker = tmp_path / "hung-once"

        def hang_once(canonical):
            if canonical["topology_params"]["n"] == 12 and not marker.exists():
                marker.write_text("x")
                time_module.sleep(60)
            return real(canonical)

        monkeypatch.setattr(runner, "execute_point", hang_once)
        outcome = run_sweep(self._spec(), workers=2, timeout=2, retries=1)
        assert len(outcome.results) == 2

    def test_exhausted_retries_raise_with_survivors_cached(self, tmp_path, monkeypatch):
        from repro.sweep import SweepExecutionError
        import repro.sweep.runner as runner

        real = runner.execute_point

        def fail_one(canonical):
            if canonical["topology_params"]["n"] == 12:
                raise RuntimeError("synthetic failure")
            return real(canonical)

        monkeypatch.setattr(runner, "execute_point", fail_one)
        cache = ResultCache(tmp_path)
        spec = self._spec()
        with pytest.raises(SweepExecutionError) as err:
            run_sweep(spec, workers=2, timeout=60, cache=cache, retries=1)
        assert len(err.value.failures) == 1
        assert "synthetic failure" in next(iter(err.value.failures.values()))
        # The healthy sibling finished and was cached before the raise.
        healthy = [p for p in spec.points()
                   if dict(p.topology_params)["n"] == 18]
        assert cache.get(healthy[0]) is not None

    def test_configuration_errors_are_not_retried(self, tmp_path, monkeypatch):
        from repro.sweep import SweepExecutionError
        import repro.sweep.runner as runner

        attempts_dir = tmp_path / "attempts"
        attempts_dir.mkdir()

        def always_misconfigured(canonical):
            count = len(list(attempts_dir.iterdir()))
            (attempts_dir / str(count)).write_text("x")
            raise ConfigurationError("deterministically wrong")

        monkeypatch.setattr(runner, "execute_point", always_misconfigured)
        spec = SweepSpec(**{**SMALL_SPEC,
                            "topology_grid": {"n": [12], "depth": 3}})
        with pytest.raises(SweepExecutionError):
            run_sweep(spec, workers=2, timeout=60, retries=5)
        # One attempt, not six: configuration errors never retry.
        assert len(list(attempts_dir.iterdir())) == 1

    def test_serial_path_retries_flaky_failures(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner

        real = runner.execute_point
        marker = tmp_path / "flaked"

        def flaky(canonical):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient")
            return real(canonical)

        monkeypatch.setattr(runner, "execute_point", flaky)
        spec = SweepSpec(**{**SMALL_SPEC,
                            "topology_grid": {"n": [12], "depth": 3}})
        outcome = run_sweep(spec, workers=1, retries=1, backoff=0.01)
        assert len(outcome.results) == 1

    def test_invalid_runner_arguments_raise(self):
        with pytest.raises(ConfigurationError):
            run_sweep(self._spec(), retries=-1)
        with pytest.raises(ConfigurationError):
            run_sweep(self._spec(), timeout=0)


# ----------------------------------------------------------------------
# Worker deaths at every point of the pool protocol
#
# Each case runs one two-point sweep (n=12 and n=18, two workers) in a
# child process of its own session, so a hung pool fails the test at
# ``_CASE_DEADLINE_S`` instead of hanging it.  The n=12 point's worker is
# killed at the case's protocol point; with ``reap`` set, the pool parent
# is held in a callback until the dead worker has been reaped, so the
# parent reads the worker's last message (and its end-of-file) only
# after the process is gone.

_CASE_DEADLINE_S = 20.0

#: kill point -> (attempts of the n=12 point, point_killed events,
#: point_timed_out events).  The n=18 point always completes at once.
_DEATH_OUTCOMES = {
    # Idle in a retry backoff: n=12 failed once, then the worker that ran
    # it (and, for "both", the n=18 worker too) is killed.
    "idle-one": (2, 0, 0),
    "idle-both": (2, 0, 0),
    # Dies the moment it receives the n=12 task.
    "task-received": (2, 1, 0),
    # Dies inside execute_point.
    "mid-point": (2, 1, 0),
    # Dies right after sending the n=12 result: the result counts.
    "result-sent": (1, 0, 0),
    # Dies at the stop sentinel; with ``reap``, both workers are killed
    # and reaped by the last on_point callback, before the sentinel is
    # sent.
    "stop-sentinel": (1, 0, 0),
    # Times out, and its result is sent after the deadline but before
    # the parent's kill: the late result is discarded and the point
    # retried.
    "late-done": (2, 0, 1),
}


def _wait_for(path, limit: float = 10.0) -> str:
    """The text of marker file ``path`` once it is written.  Every marker
    holds a non-empty text, and ``write_text`` creates the file before it
    writes, so an empty file is one still being written."""
    import time

    deadline = time.monotonic() + limit
    while not (path.exists() and (text := path.read_text())):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path.name} never appeared")
        time.sleep(0.005)
    return text


def _reap(pid: int, limit: float = 10.0) -> None:
    """Wait until the pool parent has reaped its child ``pid``."""
    import multiprocessing
    import time

    deadline = time.monotonic() + limit
    while any(p.pid == pid for p in multiprocessing.active_children()):
        if time.monotonic() > deadline:
            raise TimeoutError(f"worker {pid} was never reaped")
        time.sleep(0.005)


def _death_case(tmp, case: str, reap: bool, telemetry: bool = False) -> None:
    """One kill-matrix sweep; runs in a forked child as session leader.

    With ``telemetry``, a hub streams the workers' events into the run
    log, and a ``mid-point`` death comes right after the worker sent the
    point's ``point_running``.
    """
    import dataclasses
    import os
    import signal
    import time
    from multiprocessing.connection import Connection

    from repro.obs.runlog import RunLogger
    from repro.obs.telemetry import TelemetryHub
    import repro.sweep.runner as runner

    os.setsid()
    parent = os.getpid()
    timeout = 1.0 if case == "late-done" else 5.0
    real_execute = runner.execute_point
    real_send, real_recv = Connection.send, Connection.recv

    def once(name: str) -> bool:
        marker = tmp / name
        if marker.exists():
            return False
        marker.write_text("x")
        return True

    def die() -> None:
        (tmp / "dying").write_text(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)

    def hold_until_parent_busy() -> None:
        if reap:
            _wait_for(tmp / "parent-busy")

    def execute(canonical, **options):
        n = canonical["topology_params"]["n"]
        (tmp / f"pid-{n}").write_text(str(os.getpid()))
        if n == 12 and once("executed-12"):
            started = time.monotonic()
            if case.startswith("idle"):
                _wait_for(tmp / "done-18")
                raise RuntimeError("transient")
            if case == "mid-point":
                hold_until_parent_busy()
                if not telemetry:
                    die()
                sent = options["telemetry"]

                def emit(event):
                    sent.emit(event)
                    if event["event"] == "point_running":
                        die()

                # Runs the point for real, dying once its beat is sent.
                options["telemetry"] = dataclasses.replace(sent, emit=emit)
            if case == "result-sent":
                hold_until_parent_busy()
            if case == "late-done":
                _wait_for(tmp / "parent-busy")
                time.sleep(max(0.0, started + timeout + 0.3 - time.monotonic()))
        return real_execute(canonical, **options)

    def recv(self):
        task = real_recv(self)
        if os.getpid() != parent:
            if task is None:
                if case == "stop-sentinel" and not reap:
                    die()
            elif (case == "task-received"
                  and task[1]["topology_params"]["n"] == 12
                  and once("received-12")):
                hold_until_parent_busy()
                die()
        return task

    def send(self, message):
        real_send(self, message)
        if (os.getpid() != parent and message[0] == "done"
                and message[2]["point"]["topology_params"]["n"] == 12
                and once("sent-12") and case == "result-sent"):
            die()

    completed = []

    def on_point(point, payload, cached):
        n = dict(point.topology_params)["n"]
        completed.append(n)
        if n == 18:
            (tmp / "done-18").write_text("x")
            if case == "late-done":
                (tmp / "parent-busy").write_text("x")
                _wait_for(tmp / "sent-12")
            elif reap and case in ("task-received", "mid-point", "result-sent"):
                (tmp / "parent-busy").write_text("x")
                _reap(int(_wait_for(tmp / "dying")))
        if case == "stop-sentinel" and reap and len(completed) == 2:
            kill_workers([12, 18])

    def kill_workers(points) -> None:
        pids = [int((tmp / f"pid-{n}").read_text()) for n in points]
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if reap:
            for pid in pids:
                _reap(pid)

    class HookedLog(RunLogger):
        def event(self, kind, /, **fields):
            record = super().event(kind, **fields)
            if kind == "point_retried" and case.startswith("idle"):
                kill_workers([12, 18] if case == "idle-both" else [12])
            return record

    runner.execute_point = execute
    Connection.send, Connection.recv = send, recv
    spec = SweepSpec(**SMALL_SPEC)
    with HookedLog(tmp / "run.jsonl") as runlog:
        run_sweep(
            spec, workers=2, timeout=timeout, retries=1,
            backoff=0.5 if case.startswith("idle") else 0.05,
            on_point=on_point, runlog=runlog,
            telemetry=TelemetryHub(runlog=runlog) if telemetry else None,
        )


def _orphan_case(tmp) -> None:
    """A sweep whose parent blocks in its first on_point callback."""
    import os
    import time

    import repro.sweep.runner as runner

    os.setsid()
    real_execute = runner.execute_point

    def execute(canonical):
        n = canonical["topology_params"]["n"]
        (tmp / f"pid-{n}").write_text(str(os.getpid()))
        return real_execute(canonical)

    def on_point(point, payload, cached):
        (tmp / "parent-busy").write_text("x")
        time.sleep(_CASE_DEADLINE_S)

    runner.execute_point = execute
    spec = SweepSpec(**{**SMALL_SPEC, "topology_grid": {"n": [12, 18, 24], "depth": 3}})
    run_sweep(spec, workers=2, on_point=on_point)


def _ordering_case(tmp, sweeps: int) -> None:
    """``sweeps`` telemetered 2-worker sweeps of 18 short points, one run
    log each."""
    import os

    from repro.obs.runlog import RunLogger
    from repro.obs.telemetry import TelemetryHub

    os.setsid()
    spec = SweepSpec(
        name="ordering", topology="path", algorithm="bgi",
        topology_grid={"n": list(range(20, 74, 3))}, trials=2,
    )
    for sweep in range(sweeps):
        with RunLogger(tmp / f"run-{sweep}.jsonl") as runlog:
            run_sweep(spec, workers=2, telemetry=TelemetryHub(runlog=runlog))


def _run_case(target, *args) -> None:
    """Run ``target(*args)`` in a forked child; fail the test if it is
    still running at ``_CASE_DEADLINE_S`` or exits non-zero."""
    import multiprocessing
    import os
    import signal

    child = multiprocessing.get_context("fork").Process(target=target, args=args)
    child.start()
    child.join(_CASE_DEADLINE_S)
    if child.is_alive():
        os.killpg(child.pid, signal.SIGKILL)
        child.join()
        pytest.fail(f"{target.__name__}{args[1:]} still running after "
                    f"{_CASE_DEADLINE_S:g}s")
    assert child.exitcode == 0


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie (orphans may go unreaped)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestWorkerDeathMatrix:
    """A worker death is charged once, to the point that worker held."""

    @pytest.mark.parametrize(
        "case, reap",
        [(case, reap) for case in _DEATH_OUTCOMES for reap in (False, True)
         if not (case == "late-done" and reap)],
        ids=lambda value: (
            value if isinstance(value, str) else ("reaped" if value else "live")
        ),
    )
    def test_death_is_charged_once(self, tmp_path, case, reap):
        from repro.obs.runlog import assert_valid_runlog

        _run_case(_death_case, tmp_path, case, reap)
        events = assert_valid_runlog(tmp_path / "run.jsonl")
        completed = [e for e in events if e["event"] == "point_completed"]
        # No duplicate on_done: each point completes exactly once.
        assert sorted(e["index"] for e in completed) == [0, 1]
        attempts = {e["index"]: e["attempt"] for e in completed}
        kinds = [e["event"] for e in events]
        expected_attempts, killed, timed_out = _DEATH_OUTCOMES[case]
        assert attempts == {0: expected_attempts, 1: 1}
        assert kinds.count("point_killed") == killed
        assert kinds.count("point_timed_out") == timed_out
        assert "point_failed" not in kinds

    @pytest.mark.parametrize(
        "case, running",
        [("mid-point", {0: 2, 1: 1}), ("idle-one", {0: 1, 1: 1})],
        ids=["mid-point", "idle-one"],
    )
    def test_telemetered_death_loses_no_event(self, tmp_path, case, running):
        """With telemetry on, a worker SIGKILLed after it sent a point's
        ``point_running``, or while idle in a retry backoff, costs no
        sibling's events and does not stall the pool's stop."""
        from repro.obs.runlog import assert_valid_runlog
        from repro.sweep.runner import _STOP_TIMEOUT_S

        _run_case(_death_case, tmp_path, case, False, True)
        events = assert_valid_runlog(tmp_path / "run.jsonl")
        completed = [e for e in events if e["event"] == "point_completed"]
        assert sorted(e["index"] for e in completed) == [0, 1]
        beats = [e["index"] for e in events if e["event"] == "point_running"]
        # The killed attempt's beat arrived too: it was read before the
        # end-of-file of the dead worker's pipe.
        assert {i: beats.count(i) for i in set(beats)} == running
        point_spans = sorted(
            e["attrs"]["index"] for e in events
            if e["event"] == "span" and e["kind"] == "point"
        )
        assert point_spans == [0, 1]
        (finished,) = [e for e in events if e["event"] == "sweep_completed"]
        stop = finished["ts"] - max(e["ts"] for e in completed)
        assert stop < _STOP_TIMEOUT_S / 5, f"stopping the pool took {stop:.2f}s"

    def test_telemetry_arrives_in_order(self, tmp_path):
        """A point's ``point_running`` reaches the run log before its
        ``point_completed``, over repeated 2-worker sweeps."""
        from repro.obs.runlog import assert_valid_runlog

        sweeps = 5
        _run_case(_ordering_case, tmp_path, sweeps)
        for sweep in range(sweeps):
            # The validator rejects a point_running after its terminal event.
            events = assert_valid_runlog(tmp_path / f"run-{sweep}.jsonl")
            beats = {e["index"] for e in events if e["event"] == "point_running"}
            assert beats == set(range(18))

    def test_workers_exit_when_the_parent_dies(self, tmp_path):
        import multiprocessing
        import os
        import signal
        import time

        child = multiprocessing.get_context("fork").Process(
            target=_orphan_case, args=(tmp_path,)
        )
        child.start()
        try:
            _wait_for(tmp_path / "parent-busy", limit=_CASE_DEADLINE_S)
            pids = [int(_wait_for(tmp_path / f"pid-{n}")) for n in (12, 18)]
            os.kill(child.pid, signal.SIGKILL)
            child.join()
            deadline = time.monotonic() + 10.0
            while not all(_exited(pid) for pid in pids):
                assert time.monotonic() < deadline, "workers outlived the parent"
                time.sleep(0.01)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.join()
