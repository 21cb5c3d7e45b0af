"""The ``repro top`` state machine and terminal renderer."""

from __future__ import annotations

import io
import itertools

from repro.obs.top import LiveRenderer, TopView, replay_events


def sweep_events():
    """A small pooled sweep as (ts-carrying) runlog events."""
    return [
        {"ts": 10.0, "event": "sweep_started", "name": "quick", "points": 4,
         "workers": 2},
        {"ts": 10.1, "event": "point_cache_hit", "index": 0},
        {"ts": 10.2, "event": "point_spawned", "index": 1},
        {"ts": 10.3, "event": "point_running", "index": 1, "pid": 71,
         "label": "layered/kp n=12"},
        {"ts": 10.4, "event": "point_running", "index": 2, "pid": 72,
         "label": "layered/kp n=18"},
        {"ts": 11.0, "event": "span", "kind": "trial", "span_id": "t0"},
        {"ts": 12.0, "event": "point_completed", "index": 1},
        {"ts": 12.5, "event": "point_failed", "index": 2, "error": "boom"},
        {"ts": 13.0, "event": "point_running", "index": 3, "pid": 71,
         "label": "layered/kp n=24"},
    ]


class TestTopView:
    def test_counts_and_worker_state(self):
        view = replay_events(sweep_events(), clock=lambda: 0.0)
        assert view.name == "quick" and view.total == 4
        assert view.cache_hits == 1 and view.executed == 1 and view.failures == 1
        assert view.done == 3
        assert view.spans == 1
        # Workers 71/72 finished their points; 71 picked up point 3.
        assert set(view.worker_state) == {71}
        assert view.worker_state[71]["index"] == 3

    def test_elapsed_uses_event_clock_on_replay(self):
        view = replay_events(sweep_events(), clock=lambda: 0.0)
        assert view.elapsed == 3.0  # 13.0 - 10.0
        assert view.throughput == 1 / 3.0
        assert view.eta is not None and view.eta == 3.0  # 1 remaining point

    def test_elapsed_freezes_at_sweep_completed(self):
        ticks = itertools.count()
        view = TopView(clock=lambda: float(next(ticks)))
        view.feed({"event": "sweep_started", "points": 0})
        view.feed({"event": "sweep_completed", "executed": 0})
        frozen = view.elapsed
        assert view.elapsed == frozen  # later clock reads don't move it

    def test_unknown_events_ignored(self):
        view = TopView(clock=lambda: 0.0)
        view.feed({"event": "a_future_event_kind", "ts": 1.0})
        view.feed({"no_event_key": True})
        assert view.render()  # still renders something sane

    def test_render_snapshot(self):
        view = replay_events(sweep_events(), clock=lambda: 0.0)
        text = view.render()
        lines = text.splitlines()
        assert lines[0].startswith("sweep quick  [")
        assert "3/4 (75%)" in lines[0]
        assert "cache 1/4 (25%)" in lines[1]
        assert "failed 1" in lines[1] and "spans 1" in lines[1]
        assert any("worker 71: running layered/kp n=24" in ln for ln in lines)
        assert "\x1b" not in text  # pure text; ANSI belongs to the renderer

    def test_render_after_completion_shows_summary(self):
        events = sweep_events() + [
            {"ts": 14.0, "event": "point_completed", "index": 3},
            {"ts": 14.1, "event": "sweep_completed", "executed": 2,
             "from_cache": 1, "failed": 1},
        ]
        text = replay_events(events, clock=lambda: 0.0).render()
        assert "done in" in text
        assert "executed 2, from cache 1, failed 1" in text
        assert "worker" not in text  # all workers idle by then

    def test_render_empty_view(self):
        assert TopView(clock=lambda: 0.0).render().startswith("sweep")


class TestLiveRenderer:
    def test_non_tty_stays_silent_until_finish(self):
        stream = io.StringIO()
        renderer = LiveRenderer(stream, interval=0.0, clock=lambda: 0.0,
                                force_tty=False)
        for event in sweep_events():
            renderer(event)
        assert stream.getvalue() == ""  # no control chars into a pipe
        renderer.finish()
        assert "sweep quick" in stream.getvalue()
        assert "\x1b" not in stream.getvalue()

    def test_tty_redraws_in_place(self):
        ticks = itertools.count()
        stream = io.StringIO()
        renderer = LiveRenderer(stream, interval=0.0,
                                clock=lambda: float(next(ticks)),
                                force_tty=True)
        events = sweep_events()
        renderer(events[0])
        first = stream.getvalue()
        assert "\x1b[" not in first  # nothing to erase on the first frame
        for event in events[1:]:
            renderer(event)
        assert "\x1b[" in stream.getvalue()  # later frames cursor-up + clear

    def test_interval_throttles_redraws(self):
        stream = io.StringIO()
        renderer = LiveRenderer(stream, interval=100.0, clock=lambda: 0.0,
                                force_tty=True)
        renderer({"event": "sweep_started", "points": 1})
        burst = stream.getvalue()
        renderer({"event": "point_completed", "index": 0})
        assert stream.getvalue() == burst  # within the interval: no redraw
