"""Render run logs and metric snapshots as tables (``repro report``).

Consumes the JSONL events written by :mod:`repro.obs.runlog` and turns
them back into human-readable output: lifecycle summaries, per-point
timing tables, aggregated stage timings, and metric histograms drawn
with the same :func:`~repro.analysis.progress.ascii_sparkline` the
experiment tables use.

Kept out of ``repro.obs.__init__`` on purpose: this module imports
:mod:`repro.analysis`, which (through ``analysis.progress``) imports the
simulation stack — the rest of ``repro.obs`` must stay import-light so
the engines can depend on it without cycles.
"""

from __future__ import annotations

import pathlib
from typing import Mapping, Sequence

from ..analysis.progress import ascii_sparkline
from ..analysis.tables import render_table
from .metrics import MetricsRegistry
from .runlog import read_runlog
from .timings import Timings

__all__ = [
    "render_metrics",
    "render_report",
    "render_timings",
    "render_trajectory",
    "report_from_file",
    "report_json_from_file",
    "runlog_report_data",
    "trajectory_report_data",
]

#: Lifecycle kinds surfaced in the summary table, in display order.
_LIFECYCLE_KINDS = (
    "run_started", "run_completed", "sweep_started", "sweep_completed",
    "point_spawned", "point_completed", "point_cache_hit",
    "point_timed_out", "point_killed", "point_retried", "point_failed",
)


def render_timings(timings: Timings, title: str = "stage timings") -> str:
    """One table: stage, total seconds, hit count, mean milliseconds."""
    if not timings:
        return f"{title}: (empty)"
    return render_table(
        ["stage", "seconds", "count", "mean ms"],
        timings.render_rows(),
        title=title,
    )


def render_metrics(metrics: MetricsRegistry, title: str = "metrics") -> str:
    """Counters/gauges as one table, histograms as sparkline rows."""
    sections: list[str] = []
    scalar_rows: list[list[object]] = []
    for name, counter in sorted(metrics.counters.items()):
        scalar_rows.append([name, "counter", counter.value])
    for name, gauge in sorted(metrics.gauges.items()):
        scalar_rows.append([name, "gauge", gauge.value])
    if scalar_rows:
        sections.append(render_table(["metric", "kind", "value"], scalar_rows,
                                     title=title))
    histogram_rows: list[list[object]] = []
    for name, histogram in sorted(metrics.histograms.items()):
        histogram_rows.append([
            name,
            histogram.total,
            f"{histogram.mean:.1f}",
            "-" if histogram.minimum is None else f"{histogram.minimum:g}",
            "-" if histogram.maximum is None else f"{histogram.maximum:g}",
            ascii_sparkline([float(c) for c in histogram.counts], width=24),
        ])
    if histogram_rows:
        sections.append(render_table(
            ["histogram", "count", "mean", "min", "max", "buckets"],
            histogram_rows,
            title=f"{title}: histograms (buckets low -> high)",
        ))
    return "\n\n".join(sections) if sections else f"{title}: (empty)"


def _aggregate(events: Sequence[Mapping]) -> tuple[Timings, MetricsRegistry]:
    """Merge every event-attached timings/metrics snapshot."""
    timings = Timings()
    metrics = MetricsRegistry()
    for event in events:
        if event.get("timings"):
            timings.merge(event["timings"])
        if event.get("metrics"):
            metrics.merge(MetricsRegistry.from_dict(event["metrics"]))
    return timings, metrics


def _lifecycle_section(events: Sequence[Mapping]) -> str:
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("event", "?")
        counts[kind] = counts.get(kind, 0) + 1
    rows = [[kind, counts[kind]] for kind in _LIFECYCLE_KINDS if kind in counts]
    for kind in sorted(counts):
        if kind not in _LIFECYCLE_KINDS:
            rows.append([kind, counts[kind]])
    return render_table(["event", "count"], rows, title="lifecycle events")


def _header_section(events: Sequence[Mapping]) -> str:
    run_ids = sorted({str(e.get("run_id", "?")) for e in events})
    shas = sorted({str(e.get("git_sha", "?")) for e in events})
    timestamps = [e["ts"] for e in events if isinstance(e.get("ts"), (int, float))]
    span = f"{max(timestamps) - min(timestamps):.2f}s" if timestamps else "-"
    return (
        f"runlog: {len(events)} events, {len(run_ids)} run(s) "
        f"[{', '.join(run_ids)}]  git {', '.join(shas)}  span {span}"
    )


def _runs_section(events: Sequence[Mapping]) -> str | None:
    completed = [e for e in events if e.get("event") == "run_completed"]
    if not completed:
        return None
    rows = []
    for event in completed:
        rows.append([
            event.get("algorithm", "?"),
            event.get("engine", "?"),
            event.get("seed", "-"),
            event.get("n", "-"),
            event.get("time", "-"),
            "yes" if event.get("completed") else "no",
        ])
    return render_table(
        ["algorithm", "engine", "seed", "n", "slots", "completed"], rows,
        title="runs",
    )


def _points_section(events: Sequence[Mapping]) -> str | None:
    rows = []
    for event in events:
        kind = event.get("event")
        if kind == "point_cache_hit":
            rows.append([event.get("label", "?"), "cache", "-", "-", "-", "-"])
        elif kind == "point_completed":
            timings = Timings.from_dict(event.get("timings") or {})
            rows.append([
                event.get("label", "?"),
                "run",
                event.get("attempt", 1),
                f"{timings.seconds('pool.queue_wait'):.3f}",
                f"{timings.seconds('pool.execute'):.3f}",
                event.get("mean_time", "-"),
            ])
        elif kind == "point_failed":
            rows.append([
                event.get("label", "?"), "FAILED",
                event.get("attempts", "-"), "-", "-", "-",
            ])
    if not rows:
        return None
    return render_table(
        ["point", "source", "attempt", "queue wait (s)", "execute (s)",
         "mean slots"],
        rows,
        title="sweep points",
    )


def render_report(events: Sequence[Mapping]) -> str:
    """Full report for one parsed run log."""
    if not events:
        return "runlog: empty (no events)"
    sections = [_header_section(events), _lifecycle_section(events)]
    runs = _runs_section(events)
    if runs is not None:
        sections.append(runs)
    points = _points_section(events)
    if points is not None:
        sections.append(points)
    timings, metrics = _aggregate(events)
    if timings:
        sections.append(render_timings(timings, title="stage timings (aggregated)"))
    if metrics.counters or metrics.gauges or metrics.histograms:
        sections.append(render_metrics(metrics, title="metrics (aggregated)"))
    return "\n\n".join(sections)


def runlog_report_data(events: Sequence[Mapping]) -> dict:
    """Machine-readable form of the runlog report (``repro report --json``)."""
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("event", "?")
        counts[kind] = counts.get(kind, 0) + 1
    timings, metrics = _aggregate(events)
    timestamps = [e["ts"] for e in events if isinstance(e.get("ts"), (int, float))]
    return {
        "kind": "runlog",
        "events": len(events),
        "run_ids": sorted({str(e.get("run_id", "?")) for e in events}),
        "git_shas": sorted({str(e.get("git_sha", "?")) for e in events}),
        "span_s": (max(timestamps) - min(timestamps)) if timestamps else None,
        "lifecycle": counts,
        "timings": timings.to_dict(),
        "metrics": metrics.to_dict(),
    }


# ----------------------------------------------------------------------
# Benchmark trajectories (``BENCH_trajectory.jsonl``)


def _is_trajectory(records: Sequence[Mapping]) -> bool:
    """Bench-record files carry ``bench``/``times_s`` instead of ``event``."""
    return bool(records) and all(
        "bench" in r and "event" not in r for r in records
    )


def _host(record: Mapping) -> dict:
    """The host a record was timed on: its ``env`` fingerprint without
    ``git_sha``."""
    return {k: v for k, v in record.get("env", {}).items() if k != "git_sha"}


def _group_by_row(
    records: Sequence[Mapping],
) -> tuple[list[dict], dict[tuple[str, str, int], list[Mapping]]]:
    """Records keyed by ``(bench, "quick" | "full", host)``, the host as an
    index into the returned list of hosts (in order of first appearance).

    A quick and a full record time different workloads, and two hosts
    time the same workload at different speeds, so neither shares a
    trend."""
    hosts: list[dict] = []
    grouped: dict[tuple[str, str, int], list[Mapping]] = {}
    for record in records:
        host = _host(record)
        if host not in hosts:
            hosts.append(host)
        mode = "quick" if record.get("quick") else "full"
        key = (str(record.get("bench", "?")), mode, hosts.index(host))
        grouped.setdefault(key, []).append(record)
    return hosts, grouped


def _host_label(host: dict) -> str:
    return ", ".join(f"{k} {v}" for k, v in sorted(host.items())) or "unknown"


def render_trajectory(records: Sequence[Mapping]) -> str:
    """One table over a ``BENCH_trajectory.jsonl`` file: one row per
    bench, mode and host.

    ``vs first`` is the latest record's min over the oldest record's min
    — the cumulative drift across the row's records; the sparkline draws
    every record's min in file order.  A row holds one host's records
    only (hosts are listed under the table as ``h1``, ``h2``, ...), so
    neither column shows a change of host.  For a pair, ``latest ratio``
    is the latest record's min over its reference's.
    """
    if not records:
        return "trajectory: empty (no records)"
    shas = sorted({str(r.get("env", {}).get("git_sha", "?")) for r in records})
    hosts, grouped = _group_by_row(records)
    rows: list[list[object]] = []
    for (name, mode, host), group in sorted(grouped.items()):
        mins = [float(r["min_s"]) for r in group if "min_s" in r]
        if not mins:
            continue
        latest = group[-1]
        first_min, latest_min = mins[0], mins[-1]
        drift = latest_min / first_min if first_min > 0 else float("inf")
        rows.append([
            name,
            mode,
            f"h{host + 1}",
            len(group),
            f"{latest_min:.4f}",
            f"{float(latest.get('median_s', latest_min)):.4f}",
            f"{min(mins):.4f}",
            f"{drift:.2f}x",
            f"{float(latest['ratio']):.3f}x {latest['reference']}"
            if "reference" in latest else "-",
            ascii_sparkline(mins, width=min(24, max(2, len(mins)))),
        ])
    header = (
        f"bench trajectory: {len(records)} records, {len(rows)} row(s)  "
        f"git {', '.join(shas)}"
    )
    table = render_table(
        ["bench", "mode", "host", "records", "latest min (s)",
         "latest median (s)", "best (s)", "vs first", "latest ratio", "trend"],
        rows,
        title="benchmark trajectory (min seconds per record)",
    )
    legend = "\n".join(
        f"h{i + 1}: {_host_label(host)}" for i, host in enumerate(hosts)
    )
    return f"{header}\n\n{table}\n\n{legend}"


def trajectory_report_data(records: Sequence[Mapping]) -> dict:
    """Machine-readable form of the trajectory report:
    ``benches[bench][mode]`` for ``mode`` in ``"quick"``, ``"full"`` is a
    list of rows, one per host (``host``: the ``env`` fingerprint without
    ``git_sha``)."""
    hosts, grouped = _group_by_row(records)
    benches: dict[str, dict] = {}
    for (name, mode, host), group in sorted(grouped.items()):
        benches.setdefault(name, {}).setdefault(mode, []).append({
            "host": hosts[host],
            "records": len(group),
            "min_s": [float(r["min_s"]) for r in group if "min_s" in r],
            "latest": group[-1],
        })
    return {"kind": "trajectory", "records": len(records), "benches": benches}


def _read_any(path: pathlib.Path | str) -> tuple[list[dict], bool]:
    """Parse a JSONL file and classify it: ``(records, is_trajectory)``."""
    records = read_runlog(path)  # same line-by-line JSON-object grammar
    return records, _is_trajectory(records)


def report_from_file(path: pathlib.Path | str) -> str:
    """Render a JSONL run log — or a bench trajectory — as tables."""
    records, is_trajectory = _read_any(path)
    if is_trajectory:
        return render_trajectory(records)
    return render_report(records)


def report_json_from_file(path: pathlib.Path | str) -> dict:
    """Machine-readable report for ``repro report --json``."""
    records, is_trajectory = _read_any(path)
    if is_trajectory:
        return trajectory_report_data(records)
    return runlog_report_data(records)
