"""E9 — ablation of the Section 2 stage design: the universal-sequence
slot is what carries broadcasts past high-in-degree bottlenecks.

Logic in :mod:`repro.experiments.e9_ablation`.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_e9(benchmark, table_reporter):
    report = get_experiment("e9")()
    for table in report.tables:
        table_reporter.record("e9", table)
    table_reporter.record(
        "e9",
        "\n".join(
            f"[{'PASS' if claim.holds else 'FAIL'}] {claim.description}"
            + (f"  ({claim.details})" if claim.details else "")
            for claim in report.claims
        ),
    )
    assert report.ok, report.render()

    from repro.core import KnownRadiusKP
    from repro.sim import run_broadcast
    from repro.topology import complete_layered

    net = complete_layered([1] * 50 + [300] + [1] * 50)
    benchmark.pedantic(
        lambda: run_broadcast(
            net, KnownRadiusKP(net.r, net.radius), seed=0, engine="macro"
        ),
        rounds=3, iterations=1,
    )
