"""E1 — Theorem 1 vs BGI: the headline randomized separation.

Paper claim: the Kowalski–Pelc algorithm runs in expected time
``O(D log(n/D) + log^2 n)``, improving BGI's ``O(D log n + log^2 n)``;
the advantage factor grows like ``log n / log(n/D)``, i.e. with D.
"""

from __future__ import annotations

from ..analysis import render_table, summarize
from ..baselines import BGIBroadcast
from ..core import KnownRadiusKP
from ..sim import run_broadcast_batch
from ..topology import directed_complete_layered, km_hard_layered
from .base import ExperimentReport, register
from .forensic_golden import add_forensic_golden


def _batch_times(net, algorithm, runs: int) -> list[int]:
    """Trial times for seeds 0..runs-1, all trials in one batched run.

    ``engine="auto"`` dispatches per algorithm: the oblivious KP/BGI
    schedules here take the ``(trials, n)`` array engine, any adaptive
    algorithm would take the batched event engine — same results either
    way (the conformance suite pins trial-for-trial identity).
    """
    return [
        r.time
        for r in run_broadcast_batch(net, algorithm, trials=runs, engine="auto")
    ]

FULL_CASES = [
    (256, 4), (256, 16), (256, 64),
    (1024, 4), (1024, 32), (1024, 256),
    (4096, 8), (4096, 64), (4096, 512),
]
QUICK_CASES = [(256, 4), (256, 64), (1024, 256)]


@register("e1")
def run(quick: bool = False, seeds: int | None = None) -> ExperimentReport:
    """Measure KP vs BGI mean broadcast times on KM-hard layered networks.

    Args:
        quick: Use the reduced sweep and fewer seeds.
        seeds: Override the number of Monte-Carlo repetitions.
    """
    cases = QUICK_CASES if quick else FULL_CASES
    runs = seeds if seeds is not None else (5 if quick else 12)
    report = ExperimentReport(
        "e1", "KP optimal randomized vs BGI Decay on KM-hard layered networks"
    )
    rows = []
    ratios: dict[tuple[int, int], float] = {}
    for n, d in cases:
        net = km_hard_layered(n, d, seed=17)
        kp = summarize(_batch_times(net, KnownRadiusKP(net.r, d), runs))
        bgi = summarize(_batch_times(net, BGIBroadcast(net.r), runs))
        ratios[(n, d)] = bgi.mean / kp.mean
        rows.append(
            [n, d,
             f"{kp.mean:.0f} ± {kp.ci_high - kp.mean:.0f}",
             f"{bgi.mean:.0f} ± {bgi.ci_high - bgi.mean:.0f}",
             bgi.mean / kp.mean]
        )
    report.add_table(
        render_table(["n", "D", "KP (rounds)", "BGI (rounds)", "BGI/KP"], rows)
    )

    largest_d = max(cases, key=lambda case: case[1])
    report.check(
        "KP beats BGI clearly in the large-D regime (Theorem 1 improvement)",
        ratios[largest_d] > 1.3,
        f"BGI/KP at (n, D)={largest_d}: {ratios[largest_d]:.2f}",
    )
    report.check(
        "KP never loses badly anywhere in the sweep",
        all(ratio > 0.8 for ratio in ratios.values()),
        f"min ratio {min(ratios.values()):.2f}",
    )
    per_n: dict[int, list[tuple[int, float]]] = {}
    for (n, d), ratio in ratios.items():
        per_n.setdefault(n, []).append((d, ratio))
    monotone = all(
        [r for _, r in sorted(pairs)] == sorted(r for _, r in pairs)
        for pairs in per_n.values()
        if len(pairs) >= 3
    )
    report.check(
        "the advantage grows with D at fixed n (log n / log(n/D) shape)",
        monotone,
        "; ".join(
            f"n={n}: " + " -> ".join(f"{r:.2f}" for _, r in sorted(pairs))
            for n, pairs in sorted(per_n.items())
        ),
    )

    # Theorem 1 is stated (and proved) for directed radio networks as
    # well; spot-check on a directed complete layered network where every
    # arc points away from the source.
    undirected_sizes = [1] + [8] * 63
    directed_net = directed_complete_layered(undirected_sizes)
    directed_kp = summarize(
        _batch_times(directed_net, KnownRadiusKP(directed_net.r, 63), runs)
    )
    directed_bgi = summarize(
        _batch_times(directed_net, BGIBroadcast(directed_net.r), runs)
    )
    report.add_table(
        render_table(
            ["setting", "n", "D", "KP", "BGI", "BGI/KP"],
            [["directed layered", directed_net.n, directed_net.radius,
              f"{directed_kp.mean:.0f}", f"{directed_bgi.mean:.0f}",
              directed_bgi.mean / directed_kp.mean]],
        )
    )
    report.check(
        "the result holds in the directed setting too (Section 2 analyses "
        "directed graphs)",
        directed_bgi.mean / directed_kp.mean > 1.3,
        f"directed BGI/KP = {directed_bgi.mean / directed_kp.mean:.2f}",
    )

    golden_net = km_hard_layered(256, 16, seed=17)
    add_forensic_golden(
        report, golden_net, lambda: KnownRadiusKP(golden_net.r, 16),
        seed=3, engines=("reference", "event", "macro"),
        expected={
            "slots": 106,
            "informed": 256,
            "total_transmissions": 1118,
            "wasted_slot_fraction": 0.849057,
            "critical_path_depth": 16,
            "redundancy_ratio": 4.384314,
        },
        label="KP on km_hard_layered(256, 16, seed=17) @ seed 3",
    )
    return report
