#!/usr/bin/env python3
"""Scenario: watching broadcasts unfold.

The same ad hoc network, four algorithms, and the shape of their
information spread: randomized schemes inform in waves, the DFS token
crawls but guarantees O(n log n).  Sparklines show coverage over time;
the milestone table shows slots to 50 / 90 / 100 % coverage and the front
speed (slots per BFS layer).

Run:  python examples/progress_curves.py
"""

from repro import run_broadcast, topology
from repro.analysis import (
    ascii_sparkline,
    progress_curve,
    progress_table_rows,
    render_table,
)
from repro.baselines import BGIBroadcast, RoundRobinBroadcast
from repro.core import OptimalRandomizedBroadcasting, SelectAndSend


def main() -> None:
    net = topology.random_geometric(150, seed=33)
    print(net.describe())
    print()

    results = {
        "kp-randomized": run_broadcast(
            net, OptimalRandomizedBroadcasting(net.r, stage_constant=8), seed=3
        ),
        "bgi-decay": run_broadcast(net, BGIBroadcast(net.r), seed=3),
        "select-and-send": run_broadcast(net, SelectAndSend()),
        "round-robin": run_broadcast(net, RoundRobinBroadcast(net.r)),
    }

    print("coverage over time (one char per time bucket, blank -> @ = 0 -> n):")
    for name, result in results.items():
        print(f"  {name:16s} |{ascii_sparkline(progress_curve(result))}|")
    print()

    print(
        render_table(
            ["algorithm", "total", "50%", "90%", "100%", "slots/layer"],
            progress_table_rows(results),
            title="milestones (slots)",
        )
    )


if __name__ == "__main__":
    main()
