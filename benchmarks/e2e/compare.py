#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark records.

Usage::

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are each a record written by ``bench.py --json`` or a
directory of such records (``*.json``), one per run; a side should hold
ten runs on different seeds.  Runs of the two sides are paired by seed
(in order within a seed).  For every workload and metric the table shows
each side's median and quartiles, how many pairs the new side wins (ties
count for neither), and a verdict:

* ``improved``: the new side wins at least 9 in 10 pairs and its median
  is better than the base median by more than the base interquartile
  range;
* ``regressed``: the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``, and either both spreads
  are within the bound or every new run is worse than every base run;
* ``unresolved``: the spread (interquartile range over median) of either
  side exceeds the bound, so "no change" cannot be claimed;
* ``ok``: none of the above.

Per-layer metrics have no bound; they are listed with their pair counts
only, to show where a change in an end-to-end metric comes from.  The
exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def load_side(path: str) -> dict:
    """workload -> metric -> seed -> [values], plus metric units and kinds."""
    target = pathlib.Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"no records under {path}")
    values: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    units: dict = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        for workload, entry in record["workloads"].items():
            for section in ("metrics", "layers"):
                for name, metric in entry.get(section, {}).items():
                    values[workload][name][record["seed"]].append(metric["value"])
                    units[name] = metric["unit"]
    return {"values": values, "units": units}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: dict, new: dict) -> list[tuple[float, float]]:
    return [
        pair
        for seed in sorted(set(base) & set(new))
        for pair in zip(base[seed], new[seed])
    ]


def verdict(base: list, new: list, paired: list, bound: float, lower: bool) -> tuple[str, int]:
    """The verdict on one end-to-end metric, and the pairs the new side won."""
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    sign = 1.0 if lower else -1.0
    wins = sum(1 for b, n in paired if sign * (b - n) > 0)
    better_by = sign * (mb - mn)
    if paired and wins >= WIN_SHARE * len(paired) and better_by > q3b - q1b:
        return "improved", wins
    spread = max((q3b - q1b) / abs(mb), (q3n - q1n) / abs(mn))
    worse = -better_by / abs(mb)
    every_run_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if worse > bound and (spread <= bound or every_run_worse):
        return "regressed", wins
    if spread > bound:
        return "unresolved", wins
    return "ok", wins


def compare(base_path: str, new_path: str) -> tuple[list[list[str]], bool]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_side(base_path), load_side(new_path)
    rows, regressed = [], False
    for workload in sorted(set(base["values"]) & set(new["values"])):
        b_metrics, n_metrics = base["values"][workload], new["values"][workload]
        names = [m for m in b_metrics if m in n_metrics]
        names.sort(key=lambda m: (m not in bounds, m))
        for name in names:
            b_all = [v for vs in b_metrics[name].values() for v in vs]
            n_all = [v for vs in n_metrics[name].values() for v in vs]
            paired = pairs(b_metrics[name], n_metrics[name])
            q1b, mb, q3b = quartiles(b_all)
            q1n, mn, q3n = quartiles(n_all)
            result = wins_text = bound_text = "-"
            if name in bounds:
                bound = bounds[name]["bound"]
                result, wins = verdict(
                    b_all, n_all, paired, bound, bounds[name]["better"] == "lower"
                )
                wins_text, bound_text = f"{wins}/{len(paired)}", f"{bound:.0%}"
            regressed |= result == "regressed"
            change = (mn - mb) / abs(mb) if mb else float("nan")
            rows.append([
                workload, name, base["units"][name],
                f"{mb:.6g} [{q1b:.6g}, {q3b:.6g}]",
                f"{mn:.6g} [{q1n:.6g}, {q3n:.6g}]",
                f"{change:+.1%}", wins_text, bound_text, result,
            ])
    return rows, regressed


def render(rows: list[list[str]]) -> str:
    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "new median [q1, q3]", "change", "wins", "bound", "verdict"]
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [header, *rows]]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="record file or directory of records (parent)")
    parser.add_argument("new", help="record file or directory of records (change)")
    args = parser.parse_args(argv)
    rows, regressed = compare(args.base, args.new)
    print(render(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
