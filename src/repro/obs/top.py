"""``repro top`` — a live terminal view of a running sweep.

:class:`TopView` is a pure state machine: it is fed telemetry/runlog
event dicts (the same vocabulary :mod:`repro.obs.runlog` validates) and
renders a snapshot — points done/total with a progress bar, throughput
and ETA, cache hit ratio, retry/timeout/kill/failure counts, the span
count and per-worker state.  Being pure makes it trivially testable
and source-agnostic: the live command subscribes it to a
:class:`~repro.obs.telemetry.TelemetryHub`, while ``repro top --replay``
feeds it a recorded runlog.

:class:`LiveRenderer` is the thin terminal driver: a hub subscriber
that re-renders at most once per ``interval`` seconds, redrawing in
place on a TTY (ANSI cursor-up) and staying silent otherwise so piping
never produces control characters.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

__all__ = ["LiveRenderer", "TopView", "replay_events"]


def _format_seconds(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN
        return "?"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class TopView:
    """Aggregates sweep telemetry events into a renderable snapshot.

    Feed events in file/stream order with :meth:`feed`; ask for the
    current screen with :meth:`render`.  Unknown event kinds are ignored,
    so the view tolerates vocabulary growth.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.name: str | None = None
        self.total = 0
        self.pool_workers = 0
        self.executed = 0
        self.cache_hits = 0
        self.failures = 0
        self.retries = 0
        self.timeouts = 0
        self.kills = 0
        self.spans = 0
        self.finished: dict | None = None
        #: pid -> {"index": int, "label": str, "ts": float | None}
        self.worker_state: dict[int, dict] = {}
        self._started_clock: float | None = None
        self._finished_clock: float | None = None
        self._first_ts: float | None = None
        self._last_ts: float | None = None

    # -- event intake --------------------------------------------------

    def feed(self, event: Mapping) -> None:
        """Absorb one telemetry/runlog event."""
        if self._started_clock is None:
            self._started_clock = self._clock()
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if self._first_ts is None:
                self._first_ts = float(ts)
            self._last_ts = float(ts)
        kind = event.get("event")
        if kind == "sweep_started":
            self.name = event.get("name")
            self.total = int(event.get("points") or 0)
            self.pool_workers = int(event.get("workers") or 0)
        elif kind == "point_cache_hit":
            self.cache_hits += 1
        elif kind == "point_running":
            pid = event.get("pid")
            if pid is not None:
                self.worker_state[pid] = {
                    "index": event.get("index"),
                    "label": event.get("label"),
                    "ts": ts if isinstance(ts, (int, float)) else None,
                }
        elif kind == "point_completed":
            self.executed += 1
            self._clear_workers_running(event.get("index"))
        elif kind == "point_failed":
            self.failures += 1
            self._clear_workers_running(event.get("index"))
        elif kind == "point_retried":
            self.retries += 1
            self._clear_workers_running(event.get("index"))
        elif kind == "point_timed_out":
            self.timeouts += 1
        elif kind == "point_killed":
            self.kills += 1
        elif kind == "span":
            self.spans += 1
        elif kind == "sweep_completed":
            self.finished = dict(event)
            self._finished_clock = self._clock()

    def _clear_workers_running(self, index) -> None:
        if index is None:
            return
        for pid, state in list(self.worker_state.items()):
            if state.get("index") == index:
                del self.worker_state[pid]

    # -- derived numbers ----------------------------------------------

    @property
    def done(self) -> int:
        """Points settled so far (executed + cache hits + failed)."""
        return self.executed + self.cache_hits + self.failures

    @property
    def elapsed(self) -> float:
        """Seconds since the first event (event clock or wall clock)."""
        by_ts = (
            self._last_ts - self._first_ts
            if self._first_ts is not None and self._last_ts is not None
            else 0.0
        )
        if self._started_clock is None:
            by_clock = 0.0
        elif self._finished_clock is not None:
            by_clock = self._finished_clock - self._started_clock
        else:
            by_clock = self._clock() - self._started_clock
        return max(by_ts, by_clock, 0.0)

    @property
    def throughput(self) -> float:
        """Executed points per second (cache hits are free, not counted)."""
        elapsed = self.elapsed
        return self.executed / elapsed if elapsed > 0 else 0.0

    @property
    def eta(self) -> float | None:
        """Estimated seconds to completion, or ``None`` before any rate."""
        remaining = max(0, self.total - self.done)
        if remaining == 0:
            return 0.0
        rate = self.throughput
        return remaining / rate if rate > 0 else None

    # -- rendering -----------------------------------------------------

    def render(self, width: int = 78) -> str:
        """The current snapshot as a multi-line string (no ANSI codes)."""
        lines = []
        title = f"sweep {self.name}" if self.name else "sweep"
        bar_width = 24
        frac = (self.done / self.total) if self.total else 0.0
        filled = int(round(frac * bar_width))
        bar = "#" * filled + "-" * (bar_width - filled)
        eta = self.eta
        eta_text = _format_seconds(eta) if eta is not None else "?"
        lines.append(
            f"{title}  [{bar}] {self.done}/{self.total} "
            f"({frac * 100:.0f}%)  {self.throughput:.2f} pt/s  ETA {eta_text}"
        )
        hit_ratio = (self.cache_hits / self.total * 100) if self.total else 0.0
        lines.append(
            f"cache {self.cache_hits}/{self.total} ({hit_ratio:.0f}%)  "
            f"retries {self.retries}  timeouts {self.timeouts}  "
            f"kills {self.kills}  failed {self.failures}  "
            f"spans {self.spans}"
        )
        if self.worker_state:
            for pid in sorted(self.worker_state):
                state = self.worker_state[pid]
                busy = ""
                if state.get("ts") is not None and self._last_ts is not None:
                    busy = f"  ({_format_seconds(self._last_ts - state['ts'])})"
                lines.append(
                    f"  worker {pid}: running {state.get('label')}{busy}"
                )
        elif self.finished is None and self.pool_workers:
            lines.append(f"  {self.pool_workers} worker(s): idle")
        if self.finished is not None:
            lines.append(
                f"done in {_format_seconds(self.elapsed)}: "
                f"executed {self.finished.get('executed')}, "
                f"from cache {self.finished.get('from_cache')}, "
                f"failed {self.finished.get('failed')}"
            )
        return "\n".join(line[:width] for line in lines)


class LiveRenderer:
    """Hub subscriber that redraws a :class:`TopView` on a terminal.

    Args:
        stream: Output stream (``sys.stderr`` for the CLI so stdout stays
            pipeable).
        interval: Minimum seconds between redraws; events arriving faster
            only update the state.
        force_tty: Override TTY detection (tests).
    """

    def __init__(
        self,
        stream,
        interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        force_tty: bool | None = None,
    ) -> None:
        self.view = TopView(clock=clock)
        self.stream = stream
        self.interval = interval
        self._clock = clock
        self._last_render = float("-inf")
        self._last_height = 0
        if force_tty is None:
            self.is_tty = bool(getattr(stream, "isatty", lambda: False)())
        else:
            self.is_tty = force_tty

    def __call__(self, event: Mapping) -> None:
        """The subscriber callback: feed, then maybe redraw."""
        self.view.feed(event)
        now = self._clock()
        if self.is_tty and now - self._last_render >= self.interval:
            self._last_render = now
            self.redraw()

    def redraw(self) -> None:
        text = self.view.render()
        if self._last_height:
            # Move back to the top of the previous frame and clear down.
            self.stream.write(f"\x1b[{self._last_height}F\x1b[J")
        self.stream.write(text + "\n")
        self.stream.flush()
        self._last_height = text.count("\n") + 1

    def finish(self) -> None:
        """Draw the final frame (on any stream, TTY or not)."""
        if self.is_tty:
            self.redraw()
        else:
            self.stream.write(self.view.render() + "\n")
            self.stream.flush()


def replay_events(events: Sequence[Mapping], clock=time.monotonic) -> TopView:
    """Feed a recorded runlog through a fresh view (``repro top --replay``)."""
    view = TopView(clock=clock)
    for event in events:
        view.feed(event)
    return view
