"""Structured JSONL run logs.

Every instrumented run or sweep appends one JSON object per lifecycle
transition to a ``.jsonl`` file under ``benchmarks/results/runlogs/``
(or a caller-chosen path).  Events share a fixed envelope —

``{"ts": <epoch seconds>, "event": <kind>, "run_id": <hex>,
"git_sha": <short sha or "unknown">, ...}``

— plus event-specific fields (``seed``, ``engine``, ``index``,
``label``, ``timings``, ``metrics``, ...).  The full event vocabulary
and schema live in ``docs/OBSERVABILITY.md``.

Only the *parent* process writes: sweep workers report results and
telemetry through their pipes to the parent, and the parent logs on their
behalf, so lines never interleave.  By default every event is flushed
as written — a killed sweep leaves a valid (truncated) log, mirroring
the crash-safe cache.  Under high event rates (telemetry spans stream
one event per point span) per-event ``flush()`` dominates, so
``flush_interval`` batches flushes: a killed writer then loses at most
one batch (bounded by ``flush_batch`` events).

:func:`validate_runlog` is the schema checker used by tests and CI: it
asserts that every line parses, that timestamps are monotone
non-decreasing, that no worker lifecycle event is orphaned (every
``point_*`` event follows a ``point_spawned`` for the same index, every
spawned point reaches a terminal ``point_completed`` /
``point_failed``, and every point event's ``run_id`` matches a
``sweep_started`` envelope), and that telemetry events (``span``,
``point_running``) are well-formed and a point's ``point_running``
falls between its ``point_spawned`` and its terminal event.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
import uuid
from typing import Mapping, Sequence

__all__ = [
    "DEFAULT_RUNLOG_DIR",
    "RunLogger",
    "RunlogError",
    "assert_valid_runlog",
    "default_runlog_path",
    "git_sha",
    "new_run_id",
    "read_runlog",
    "validate_runlog",
]

#: Default directory for machine-written run logs.
DEFAULT_RUNLOG_DIR = pathlib.Path("benchmarks") / "results" / "runlogs"

#: Point-lifecycle events that require a preceding ``point_spawned``.
_NEEDS_SPAWN = frozenset(
    {"point_completed", "point_failed", "point_timed_out", "point_killed",
     "point_retried"}
)

#: Terminal outcomes a spawned point must eventually reach.
_TERMINAL = frozenset({"point_completed", "point_failed"})

#: Every point-scoped event kind; each must carry the ``run_id`` of a
#: ``sweep_started`` envelope present in the same log.
_POINT_EVENTS = _NEEDS_SPAWN | {"point_spawned", "point_cache_hit", "point_running"}

#: Span hierarchy accepted in ``span`` events (kept in sync with
#: :data:`repro.obs.spans.SPAN_KINDS` without importing it — this module
#: stays dependency-light so everything above it can import it freely).
_SPAN_KINDS = ("sweep", "point", "trial", "stage")

_GIT_SHA: str | None = None


class RunlogError(ValueError):
    """A run log failed to parse or violated the event schema."""


def git_sha() -> str:
    """Short git SHA of the working tree, or ``"unknown"`` outside a repo.

    Resolved once per process — run logs are written from one checkout.
    """
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            _GIT_SHA = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5.0, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = "unknown"
    return _GIT_SHA


def new_run_id() -> str:
    """Fresh 12-hex-digit id tying one invocation's events together."""
    return uuid.uuid4().hex[:12]


def default_runlog_path(name: str, directory: pathlib.Path | None = None) -> pathlib.Path:
    """Timestamped log path under :data:`DEFAULT_RUNLOG_DIR`."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    root = pathlib.Path(directory) if directory is not None else DEFAULT_RUNLOG_DIR
    return root / f"{name}-{stamp}-{new_run_id()[:4]}.jsonl"


class RunLogger:
    """Append-only JSONL event writer.

    Args:
        path: Log file (parent directories are created).  Opened in
            append mode so several invocations may share one file; their
            events stay distinguishable by ``run_id``.
        run_id: Override the generated invocation id (tests pin it).
        clock: Timestamp source, ``time.time`` by default.  Timestamps
            are clamped to be monotone non-decreasing within the logger
            even if the wall clock steps backwards.
        flush_interval: Seconds between forced flushes.  The default
            ``0.0`` flushes after *every* event — the original
            crash-safety contract.  A positive interval batches flushes
            for high event rates (streaming telemetry spans): events are
            still written to the OS immediately on flush, and a flush is
            forced whenever ``flush_batch`` events have accumulated, so
            a killed writer loses at most one batch.
        flush_batch: Maximum unflushed events regardless of the
            interval (only meaningful with ``flush_interval > 0``).
    """

    def __init__(
        self,
        path: pathlib.Path | str,
        run_id: str | None = None,
        clock=time.time,
        flush_interval: float = 0.0,
        flush_batch: int = 64,
    ) -> None:
        if flush_interval < 0:
            raise ValueError(f"flush_interval must be >= 0, got {flush_interval}")
        if flush_batch < 1:
            raise ValueError(f"flush_batch must be >= 1, got {flush_batch}")
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or new_run_id()
        self._clock = clock
        self._sha = git_sha()
        self._last_ts = float("-inf")
        self._handle = self.path.open("a", encoding="utf-8")
        self.flush_interval = flush_interval
        self.flush_batch = flush_batch
        self._unflushed = 0
        self._last_flush = time.monotonic()

    def event(self, kind: str, /, **fields) -> dict:
        """Write one event; returns the record that was written.

        ``kind`` is positional-only so event payloads may themselves
        carry a ``kind`` field (span events do).
        """
        ts = max(float(self._clock()), self._last_ts)
        self._last_ts = ts
        record = {"ts": ts, "event": kind, "run_id": self.run_id,
                  "git_sha": self._sha, **fields}
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._unflushed += 1
        if (
            self.flush_interval <= 0.0
            or self._unflushed >= self.flush_batch
            or time.monotonic() - self._last_flush >= self.flush_interval
        ):
            self.flush()
        return record

    def flush(self) -> None:
        """Force buffered events to the OS (a crash loses nothing flushed)."""
        self._handle.flush()
        self._unflushed = 0
        self._last_flush = time.monotonic()

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
        self._handle.close()

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_runlog(path: pathlib.Path | str) -> list[dict]:
    """Parse a JSONL run log into event dicts.

    Raises:
        RunlogError: On an unparseable or non-object line (with its line
            number).
    """
    events: list[dict] = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RunlogError(f"{path}:{number}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise RunlogError(f"{path}:{number}: event is not a JSON object")
            events.append(record)
    return events


def validate_runlog(events: Sequence[Mapping]) -> list[str]:
    """Schema-check parsed events; returns a list of violations (empty = valid).

    Checks, per ``run_id``:

    * envelope: every event carries ``ts``/``event``/``run_id``/``git_sha``;
    * timestamps are monotone non-decreasing in file order;
    * worker lifecycle: ``point_completed`` / ``point_failed`` /
      ``point_timed_out`` / ``point_killed`` / ``point_retried`` must
      follow a ``point_spawned`` for the same point index (cache hits
      are exempt — they are never spawned), and every spawned index must
      reach a terminal ``point_completed`` or ``point_failed``;
    * envelope matching: every point-scoped event's ``run_id`` must
      match a ``sweep_started`` envelope when the log contains any
      ``sweep_started`` at all (single-run logs written by ``repro run``
      have no sweep envelope and are exempt);
    * telemetry: ``span`` events carry a string ``span_id``, a ``name``,
      a ``kind`` from the span hierarchy, numeric ``start_ts`` /
      ``end_ts`` with ``end_ts >= start_ts``, and a ``parent_id`` that
      is a string or null; ``point_running`` carries an ``index``;
    * telemetry order: a ``point_running`` follows its index's
      ``point_spawned`` and precedes its ``point_completed`` /
      ``point_failed``.

    Unknown event kinds are accepted as they are.
    """
    errors: list[str] = []
    last_ts: dict[str, float] = {}
    spawned: dict[tuple[str, object], bool] = {}  # (run, index) -> reached terminal
    sweep_runs: set[str] = set()
    point_runs: dict[str, int] = {}  # run_id -> first position of a point event

    for position, event in enumerate(events):
        where = f"event #{position}"
        missing = [key for key in ("ts", "event", "run_id", "git_sha")
                   if key not in event]
        if missing:
            errors.append(f"{where}: missing envelope fields {missing}")
            continue
        run = event["run_id"]
        kind = event["event"]
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: non-numeric ts {ts!r}")
            continue
        previous = last_ts.get(run)
        if previous is not None and ts < previous:
            errors.append(
                f"{where}: timestamp went backwards for run {run} "
                f"({ts} < {previous})"
            )
        last_ts[run] = ts

        if kind == "sweep_started":
            sweep_runs.add(run)
        if kind in _POINT_EVENTS:
            point_runs.setdefault(run, position)

        if kind == "point_spawned":
            if "index" not in event:
                errors.append(f"{where}: point_spawned without an index")
            else:
                spawned.setdefault((run, event["index"]), False)
        elif kind in _NEEDS_SPAWN:
            key = (run, event.get("index"))
            if key not in spawned:
                errors.append(
                    f"{where}: orphan {kind} for point {event.get('index')!r} "
                    f"(no prior point_spawned)"
                )
            elif kind in _TERMINAL:
                spawned[key] = True
        elif kind == "point_running":
            if "index" not in event:
                errors.append(f"{where}: point_running without an index")
            else:
                terminal = spawned.get((run, event["index"]))
                if terminal is None:
                    errors.append(
                        f"{where}: point_running for point {event['index']!r} "
                        f"before its point_spawned"
                    )
                elif terminal:
                    errors.append(
                        f"{where}: point_running for point {event['index']!r} "
                        f"after its point_completed/point_failed"
                    )
        elif kind == "span":
            if not isinstance(event.get("span_id"), str):
                errors.append(f"{where}: span without a string span_id")
            if not event.get("name"):
                errors.append(f"{where}: span without a name")
            if event.get("kind") not in _SPAN_KINDS:
                errors.append(
                    f"{where}: span kind {event.get('kind')!r} not in {_SPAN_KINDS}"
                )
            start = event.get("start_ts")
            end = event.get("end_ts")
            if not isinstance(start, (int, float)) or not isinstance(end, (int, float)):
                errors.append(f"{where}: span without numeric start_ts/end_ts")
            elif end < start:
                errors.append(f"{where}: span ends before it starts ({end} < {start})")
            parent = event.get("parent_id")
            if parent is not None and not isinstance(parent, str):
                errors.append(f"{where}: span parent_id {parent!r} is not a string")

    if sweep_runs:
        for run, position in sorted(point_runs.items()):
            if run not in sweep_runs:
                errors.append(
                    f"event #{position}: point events for run {run} have no "
                    f"matching sweep_started envelope"
                )

    for (run, index), terminal in sorted(spawned.items(), key=lambda kv: str(kv[0])):
        if not terminal:
            errors.append(
                f"point {index!r} of run {run} was spawned but never reached "
                f"point_completed/point_failed"
            )
    return errors


def assert_valid_runlog(path: pathlib.Path | str) -> list[dict]:
    """Parse *and* validate a run log; raises :class:`RunlogError` if bad."""
    events = read_runlog(path)
    errors = validate_runlog(events)
    if errors:
        raise RunlogError(
            f"{path}: {len(errors)} schema violation(s):\n" + "\n".join(errors)
        )
    return events
