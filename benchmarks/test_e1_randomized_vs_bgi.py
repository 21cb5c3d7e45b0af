"""E1 — Theorem 1: KP randomized broadcast vs BGI Decay.

Claim: expected time ``O(D log(n/D) + log^2 n)`` versus BGI's
``O(D log n + log^2 n)``; the advantage grows with D.  Full logic lives in
:mod:`repro.experiments.e1_randomized_vs_bgi`; this wrapper asserts every
claim verdict and provides the wall-time benchmark target.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_e1(benchmark, table_reporter):
    report = get_experiment("e1")()
    for table in report.tables:
        table_reporter.record("e1", table)
    table_reporter.record(
        "e1",
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

    net = km_hard_layered(1024, 256, seed=17)
    benchmark.pedantic(
        lambda: run_broadcast(
            net, KnownRadiusKP(net.r, 256), seed=0, engine="macro"
        ),
        rounds=3, iterations=1,
    )
