"""Up-front memory estimates for instrumentation that scales with n·steps,
and for topologies whose edge count outgrows n.

A ``TraceLevel.FULL`` trace stores per-slot Python records whose size is
proportional to the number of (node, slot) events; dense per-node metric
tallies store one int64 cell per (trial, node).  At sweep scale both are
fine, but at the million-node scale the macro-step path unlocks they OOM
the process long after the run started — the worst possible failure mode.
These checks run in the drivers *before* any engine state is allocated and
raise a :class:`~repro.sim.errors.ConfigurationError` naming the estimated
footprint and the override, instead of dying mid-run.  A complete layered
CSR topology knows its edge count before it allocates, and is checked the
same way by its builder (:func:`check_edge_budget`).

Overrides: pass ``allow_large=True`` to the driver, or set the environment
variable ``REPRO_ALLOW_LARGE_MEMORY=1`` (useful for CLI runs on big boxes);
the topology builders take only the environment variable.
"""

from __future__ import annotations

import os

from .errors import ConfigurationError
from .trace import TraceLevel

__all__ = [
    "ALLOW_LARGE_ENV",
    "CSR_EDGE_LIMIT",
    "FULL_TRACE_CELL_LIMIT",
    "DENSE_METRICS_CELL_LIMIT",
    "check_edge_budget",
    "check_memory_budget",
]

#: Environment override; any non-empty value other than "0" disables the guard.
ALLOW_LARGE_ENV = "REPRO_ALLOW_LARGE_MEMORY"

#: Maximum ``n * max_steps`` cells for a FULL trace before the guard trips.
#: 10^9 potential (node, slot) events estimate to roughly 8 GiB of trace
#: records — beyond what a run should allocate without an explicit opt-in.
FULL_TRACE_CELL_LIMIT = 1_000_000_000

#: Maximum ``trials * n`` cells for dense per-node metric tallies
#: (``transmissions_per_node``); 2^28 int64 cells are 2 GiB.
DENSE_METRICS_CELL_LIMIT = 1 << 28

#: Estimated bytes per FULL-trace (node, slot) cell.  Transmitter /
#: delivery / collision tuples hold boxed ints, so the true footprint is
#: workload-dependent; 8 bytes per potential cell is the deliberate
#: lower-bound estimate the error message reports.
_TRACE_BYTES_PER_CELL = 8

_METRICS_BYTES_PER_CELL = 8  # one int64 tally per (trial, node)

#: Maximum undirected edges a CSR topology builder allocates; 2^27 edges
#: are 2 GiB of ``indices``.
CSR_EDGE_LIMIT = 1 << 27

_CSR_BYTES_PER_EDGE = 16  # one int64 ``indices`` entry per direction


def _override_active() -> bool:
    value = os.environ.get(ALLOW_LARGE_ENV, "")
    return value not in ("", "0")


def check_memory_budget(
    n: int,
    max_steps: int,
    trace_level: TraceLevel = TraceLevel.NONE,
    trials: int = 1,
    dense_metrics: bool = False,
    allow_large: bool = False,
) -> None:
    """Refuse instrumentation whose estimated footprint exceeds the limits.

    Args:
        n: Network size.
        max_steps: The run's step budget (the resolved value, after
            ``default_max_steps``).
        trace_level: Requested trace detail; only ``FULL`` is guarded —
            ``PROGRESS`` stores one int per executed slot and never
            approaches these scales.
        trials: Batch width (1 for single runs).
        dense_metrics: Whether the driver would allocate per-node tallies
            (true exactly when a metrics registry was passed).
        allow_large: Caller override (``allow_large=True`` on the driver).

    Raises:
        ConfigurationError: With the estimated bytes and both overrides
            named, when a limit is exceeded and no override is active.
    """
    if allow_large or _override_active():
        return
    if trace_level is TraceLevel.FULL:
        cells = n * max_steps
        if cells > FULL_TRACE_CELL_LIMIT:
            est = cells * trials * _TRACE_BYTES_PER_CELL
            raise ConfigurationError(
                f"TraceLevel.FULL on n={n} with max_steps={max_steps} "
                f"(x{trials} trials) estimates to >= {est:,} bytes of trace "
                f"records (n * max_steps = {cells:,} cells, limit "
                f"{FULL_TRACE_CELL_LIMIT:,}). Lower max_steps, drop to "
                f"TraceLevel.PROGRESS, or override with allow_large=True "
                f"(or {ALLOW_LARGE_ENV}=1)."
            )
    if dense_metrics:
        cells = trials * n
        if cells > DENSE_METRICS_CELL_LIMIT:
            est = cells * _METRICS_BYTES_PER_CELL
            raise ConfigurationError(
                f"dense per-node metrics on n={n} with trials={trials} "
                f"estimate to {est:,} bytes of tallies (trials * n = "
                f"{cells:,} cells, limit {DENSE_METRICS_CELL_LIMIT:,}). "
                f"Run without a metrics registry, batch fewer trials, or "
                f"override with allow_large=True (or {ALLOW_LARGE_ENV}=1)."
            )


def check_edge_budget(edges: int, what: str) -> None:
    """Refuse a CSR topology of ``edges`` undirected edges past
    :data:`CSR_EDGE_LIMIT`, before any of it is allocated.

    Args:
        edges: The exact or estimated undirected edge count.
        what: The instance, for the message (e.g. ``"complete layered
            network with 17 layers"``).

    Raises:
        ConfigurationError: With the estimated bytes and the environment
            override named, when the limit is exceeded and
            ``REPRO_ALLOW_LARGE_MEMORY`` is not set.
    """
    if edges <= CSR_EDGE_LIMIT or _override_active():
        return
    est = edges * _CSR_BYTES_PER_EDGE
    raise ConfigurationError(
        f"{what} has {edges:,} undirected edges, an estimated {est:,} bytes "
        f"of CSR indices (limit {CSR_EDGE_LIMIT:,} edges). Use a smaller "
        f"instance, or override with {ALLOW_LARGE_ENV}=1."
    )
