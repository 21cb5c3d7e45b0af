"""E4 — Theorem 3: Select-and-Send broadcasts in O(n log n) on any network.

Also quantifies the price of the ad hoc assumption against the
known-neighbourhood O(n) DFS and the O(nD) round-robin.
"""

from __future__ import annotations

from ..analysis import fit_constant, render_table, select_and_send_bound
from ..baselines import KnownNeighborsDFS, RoundRobinBroadcast
from ..core import SelectAndSend
from ..sim import repeat_broadcast, run_broadcast
from ..topology import gnp_connected, grid, path, random_tree
from .base import ExperimentReport, register
from .forensic_golden import add_forensic_golden

FULL_SIZES = [64, 128, 256, 512]
QUICK_SIZES = [64, 128]


def _families(n: int, seed: int = 5):
    side = max(2, int(n**0.5))
    return {
        "path": path(n, relabel="shuffled", seed=seed),
        "random-tree": random_tree(n, seed=seed),
        "grid": grid(side, side),
        "gnp": gnp_connected(n, min(0.9, 6.0 / n), seed=seed),
    }


@register("e4")
def run(quick: bool = False) -> ExperimentReport:
    """Measure S&S across topology families; fit c * n log n."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    report = ExperimentReport("e4", "Select-and-Send O(n log n) across families")
    rows, times, params = [], [], []
    for n in sizes:
        for family, net in _families(n).items():
            # S&S is adaptive with exact idle hints: the batch path
            # routes it through the event engine, reproducing
            # the reference run bit for bit, faster (deterministic, so
            # one run covers the Monte-Carlo estimate exactly).
            (ss,) = repeat_broadcast(
                net, SelectAndSend(), runs=1, require_completion=True
            )
            dfs = run_broadcast(net, KnownNeighborsDFS(net), require_completion=True)
            rr = run_broadcast(net, RoundRobinBroadcast(net.r), require_completion=True)
            bound = select_and_send_bound(net.n, net.radius)
            rows.append(
                [family, net.n, net.radius, ss.time, ss.time / bound,
                 dfs.time, rr.time]
            )
            times.append(float(ss.time))
            params.append((net.n, net.radius))
    fit = fit_constant(times, params, select_and_send_bound)
    rows.append(["(fit)", "-", "-", f"c={fit.constant:.2f}",
                 f"spread={fit.max_ratio_spread:.2f}", "-", "-"])
    report.add_table(
        render_table(
            ["family", "n", "D", "S&S rounds", "S&S/(n log n)",
             "known-nbrs DFS", "round-robin"],
            rows,
        )
    )
    ratios = [t / select_and_send_bound(n, d) for t, (n, d) in zip(times, params)]
    report.check(
        "time is bounded by a small constant times n log n on every family",
        max(ratios) < 4.0,
        f"max ratio {max(ratios):.2f}",
    )
    import math

    report.check(
        "the ad hoc assumption costs at most an O(log n) factor over the "
        "known-neighbourhood DFS",
        all(
            row[3] <= 6 * math.log2(max(2, row[1])) * row[5]
            for row in rows[:-1]
        ),
    )

    add_forensic_golden(
        report, random_tree(64, seed=5), SelectAndSend,
        seed=0, engines=("reference", "event"),
        expected={
            "slots": 978,
            "informed": 64,
            "total_transmissions": 1078,
            "wasted_slot_fraction": 0.981595,
            "critical_path_depth": 8,
            "redundancy_ratio": 17.111111,
        },
        label="S&S on random_tree(64, seed=5)",
    )
    return report
