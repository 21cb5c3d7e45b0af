"""E5 — Theorem 4: O(n + D log n) on complete layered networks, and the
refutation of the claimed undirected Omega(n log D) lower bound."""

from __future__ import annotations

from ..analysis import (
    claimed_cms_undirected_bound,
    complete_layered_bound,
    complete_layered_phase_cost_bound,
    fit_constant,
    render_table,
)
from ..core import CompleteLayeredBroadcast
from ..sim import repeat_broadcast
from ..topology import km_hard_layered, uniform_complete_layered
from .base import ExperimentReport, register
from .forensic_golden import add_forensic_golden

FULL_SHAPE = [
    (256, 8), (256, 32), (256, 96),
    (1024, 16), (1024, 32), (1024, 128), (1024, 340),
]
QUICK_SHAPE = [(256, 8), (256, 96), (1024, 128)]
FULL_REFUTATION = [(256, 32), (1024, 64), (2048, 90)]  # D ~ 2 sqrt(n)
QUICK_REFUTATION = [(256, 32), (1024, 64)]


@register("e5")
def run(quick: bool = False) -> ExperimentReport:
    """Shape fit + the asymptotic refutation sweep + KM-profile spot check."""
    report = ExperimentReport(
        "e5", "Complete-Layered: O(n + D log n), refuting the n log D claim"
    )
    shape_cases = QUICK_SHAPE if quick else FULL_SHAPE
    rows, times, params = [], [], []
    for n, d in shape_cases:
        net = uniform_complete_layered(n, d)
        # Complete-Layered is deterministic and hint-exact: the batch
        # path routes it through the event engine, one run
        # covering the estimate bit-identically to the reference.
        (result,) = repeat_broadcast(
            net, CompleteLayeredBroadcast(), runs=1, require_completion=True
        )
        rows.append([
            n, d, result.time,
            result.time / complete_layered_bound(n, d),
            result.time / complete_layered_phase_cost_bound(n, d),
        ])
        times.append(float(result.time))
        params.append((n, d))
    honest = fit_constant(times, params, complete_layered_phase_cost_bound)
    asymptotic = fit_constant(times, params, complete_layered_bound)
    rows.append(["(fit)", "-", "-",
                 f"c={asymptotic.constant:.2f} spread={asymptotic.max_ratio_spread:.2f}",
                 f"c={honest.constant:.2f} spread={honest.max_ratio_spread:.2f}"])
    report.add_table(
        render_table(
            ["n", "D", "rounds", "time/(n+D log n)", "time/6D(log n+2)"],
            rows,
        )
    )
    report.check(
        "the finite-n form of Theorem 4 captures the measurements tightly",
        honest.max_ratio_spread < 3.0,
        f"spread {honest.max_ratio_spread:.2f}, c = {honest.constant:.2f}",
    )

    refutation_cases = QUICK_REFUTATION if quick else FULL_REFUTATION
    rows2, ratios = [], []
    for n, d in refutation_cases:
        net = uniform_complete_layered(n, d)
        # Complete-Layered is deterministic and hint-exact: the batch
        # path routes it through the event engine, one run
        # covering the estimate bit-identically to the reference.
        (result,) = repeat_broadcast(
            net, CompleteLayeredBroadcast(), runs=1, require_completion=True
        )
        claimed = claimed_cms_undirected_bound(n, d)
        ratios.append(result.time / claimed)
        rows2.append([n, d, result.time, f"{claimed:.0f}", result.time / claimed])
    report.add_table(
        render_table(
            ["n", "D ~ 2 sqrt(n)", "rounds", "claimed n log D", "time/claim"],
            rows2,
        )
    )
    report.check(
        "along a D in o(n) sweep the measured time falls below the claimed "
        "Omega(n log D) and keeps diverging from it (Section 4.3 refutation)",
        ratios == sorted(ratios, reverse=True) and ratios[-1] < 1.0,
        " -> ".join(f"{ratio:.2f}" for ratio in ratios),
    )

    rows3 = []
    for seed in range(2 if quick else 3):
        net = km_hard_layered(1024, 64, seed=seed)
        # Complete-Layered is deterministic and hint-exact: the batch
        # path routes it through the event engine, one run
        # covering the estimate bit-identically to the reference.
        (result,) = repeat_broadcast(
            net, CompleteLayeredBroadcast(), runs=1, require_completion=True
        )
        rows3.append([seed, result.time,
                      result.time / complete_layered_bound(1024, 64)])
    report.add_table(
        render_table(["layer seed", "rounds", "time/(n+D log n)"], rows3)
    )
    report.check(
        "layer-size randomness (the randomized hard case) does not slow the "
        "deterministic algorithm",
        max(row[2] for row in rows3) < 6.0,
    )

    add_forensic_golden(
        report, uniform_complete_layered(256, 8), CompleteLayeredBroadcast,
        seed=0, engines=("reference", "event"),
        expected={
            "slots": 233,
            "informed": 256,
            "total_transmissions": 832,
            "wasted_slot_fraction": 0.965665,
            "critical_path_depth": 8,
            "redundancy_ratio": 3.262745,
        },
        label="Complete-Layered on uniform_complete_layered(256, 8)",
    )
    return report
