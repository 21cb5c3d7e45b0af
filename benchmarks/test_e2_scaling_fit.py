"""E2 — Corollary 1: expected-time scaling and bound fitting.

Fits four candidate shapes to a (n, D) sweep; Theorem 1's finite-n form
``D(log(n/D)+2)`` must fit KP's measurements best.  Logic in
:mod:`repro.experiments.e2_scaling_fit`.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_e2(benchmark, table_reporter):
    report = get_experiment("e2")()
    for table in report.tables:
        table_reporter.record("e2", table)
    table_reporter.record(
        "e2",
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

    net = km_hard_layered(512, 64, seed=23)
    benchmark.pedantic(
        lambda: run_broadcast(
            net, KnownRadiusKP(net.r, 64), seed=1, engine="macro"
        ),
        rounds=3, iterations=1,
    )
