"""Every ratio gate of the benchmark registry, at full size.

A pair (:mod:`repro.obs.bench`) is a registered bench that names a
``reference`` entry, a ``max_ratio`` bound on its own best time over the
reference's, and a ``check`` that both sides computed the same thing.
``run_benchmark`` applies the check to the warmup outputs, then times the
two sides alternately.  This file runs each pair of
:mod:`repro.obs.suite` at full size and asserts its bound; the bound of
a ``strict_ratio`` pair holds only under ``REPRO_BENCH_STRICT=1``.  The
check always runs.  Nothing here writes a record into the tree: records
reach the trajectory only through ``repro bench``.

The overhead pairs (metrics, spans, forensics) share their plain side,
``batched_engine``.  What observability costs when it is off shows only
as absolute wall clock, which only a same-host run of two commits can
compare: the end-to-end benchmark ``benchmarks/e2e/bench.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.obs.bench import run_benchmark, strict_mode, validate_record
from repro.obs.suite import default_registry

PAIRS = [bench for bench in default_registry() if bench.reference is not None]


def test_the_registry_declares_nine_pairs():
    assert {bench.name: bench.reference for bench in PAIRS} == {
        "adaptive_engine": "adaptive_reference_engine",
        "batched_adaptive_engine": "batched_adaptive_serial",
        "interleaved_adaptive_engine": "interleaved_adaptive_reference",
        "kp_deep_layered": "bgi_deep_layered",
        "kp_repeat_union": "kp_repeat_reference",
        "obs_overhead": "batched_engine",
        "telemetry_overhead": "batched_engine",
        "forensics_overhead": "batched_engine",
        "topology_layered_csr": "topology_layered_legacy",
    }


@pytest.mark.parametrize("bench", PAIRS, ids=lambda bench: bench.name)
def test_pair_within_its_bound(bench, table_reporter):
    record = run_benchmark(bench)  # raises if the check fails
    assert validate_record(record) == []
    table_reporter.record(
        "pairs",
        render_table(
            ["side", "min (s)"],
            [
                [bench.reference, f"{record['reference_min_s']:.4f}"],
                [bench.name, f"{record['min_s']:.4f}"],
                ["ratio", f"{record['ratio']:.3f}x (bound {bench.max_ratio:.2f}x"
                 f"{', strict only' if bench.strict_ratio else ''})"],
            ],
            title=f"{bench.name} vs {bench.reference}",
        ),
    )
    if not bench.strict_ratio or strict_mode():
        assert record["ratio"] <= bench.max_ratio, (
            f"{bench.name} takes {record['ratio']:.3f}x {bench.reference} "
            f"(bound {bench.max_ratio:.3f}x)"
        )
