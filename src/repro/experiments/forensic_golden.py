"""Forensic goldens: pin `repro explain` scalars inside experiment reports.

Each experiment that owns a representative configuration re-runs it at
``TraceLevel.FULL`` on two or more engines, derives the forensic report
(propagation DAG, slot taxonomy, summary scalars) from each trace, and
checks two things under the usual claim discipline:

1. the reports are bit-identical across engines — the conformance
   guarantee, re-asserted on the exact configuration the experiment
   cites; and
2. the summary scalars match a pinned golden, so a semantics change that
   silently alters collision structure or propagation depth fails the
   experiment, not just a unit test.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..analysis import render_table
from ..obs.forensics import ForensicsReport, analyze
from ..sim import run_broadcast
from ..sim.trace import TraceLevel
from .base import ExperimentReport

__all__ = ["add_forensic_golden"]


def _run(net, algorithm, seed: int, engine: str) -> ForensicsReport:
    result = run_broadcast(
        net, algorithm, seed=seed, engine=engine, trace_level=TraceLevel.FULL,
    )
    return analyze(result, algorithm=algorithm)


def add_forensic_golden(
    report: ExperimentReport,
    net,
    make_algorithm: Callable[[], object],
    *,
    seed: int,
    engines: Sequence[str],
    expected: Mapping[str, float],
    label: str,
) -> None:
    """Append the forensic-golden table and claim checks to ``report``.

    Args:
        report: The experiment report to extend.
        net: The representative network.
        make_algorithm: Zero-arg factory (fresh instance per engine, so
            stateful protocols cannot leak state between runs).
        seed: Seed for the representative run.
        engines: Registered engine names, each passed to
            :func:`run_broadcast`.
        expected: The pinned golden scalars
            (``wasted_slot_fraction``/``critical_path_depth``/...).
        label: Configuration description used in claim text.
    """
    reports = {engine: _run(net, make_algorithm(), seed, engine) for engine in engines}
    payloads = {engine: r.to_dict() for engine, r in reports.items()}
    first = engines[0]
    mismatched = [e for e in engines[1:] if payloads[e] != payloads[first]]
    report.check(
        f"forensic report for {label} is bit-identical on engines "
        f"{'/'.join(engines)}",
        not mismatched,
        f"diverging: {mismatched}" if mismatched else
        f"{len(engines)} engines agree on {reports[first].slots} slots",
    )
    scalars = reports[first].scalars()
    report.add_table(
        render_table(
            ["forensic scalar", "measured", "golden"],
            [[key, scalars.get(key, "-"), expected[key]] for key in sorted(expected)],
            title=f"forensic golden — {label}",
        )
    )
    diffs = {
        key: (scalars.get(key), value)
        for key, value in expected.items()
        if scalars.get(key) != value
    }
    report.check(
        f"forensic scalars for {label} match the pinned golden",
        not diffs,
        "; ".join(f"{k}: {got} != {want}" for k, (got, want) in sorted(diffs.items()))
        or ", ".join(f"{k}={scalars[k]}" for k in sorted(expected)),
    )
