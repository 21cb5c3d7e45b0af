"""E8 — Section 1.2 corollary: complete layered networks are hardest
for randomized but not for deterministic broadcasting; radius-2 search.

Logic in :mod:`repro.experiments.e8_layered_hardness`.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_e8(benchmark, table_reporter):
    report = get_experiment("e8")()
    for table in report.tables:
        table_reporter.record("e8", table)
    table_reporter.record(
        "e8",
        "\n".join(
            f"[{'PASS' if claim.holds else 'FAIL'}] {claim.description}"
            + (f"  ({claim.details})" if claim.details else "")
            for claim in report.claims
        ),
    )
    assert report.ok, report.render()

    from repro.core import KnownRadiusKP
    from repro.sim import run_broadcast
    from repro.topology import km_hard_layered

    net = km_hard_layered(512, 128, seed=31)
    benchmark.pedantic(
        lambda: run_broadcast(
            net, KnownRadiusKP(net.r, 128), seed=0, engine="macro"
        ),
        rounds=3, iterations=1,
    )
