"""Memory guards for instrumentation and topologies that outgrow n.

A ``TraceLevel.FULL`` trace stores its channel history as ``int64``
columns (:class:`~repro.sim.trace.TraceColumns`) whose size depends on
what the run does, not on its worst-case step budget: KP on
``G(10^5, 12/n)`` finishes in ~250 slots against a ``max_steps`` hint of
~600,000.  So the trace is not estimated up front; every byte appended to
its columns is charged against :data:`FULL_TRACE_BYTE_LIMIT`
(:class:`TraceBudget`), and the append that crosses the limit raises a
:class:`~repro.sim.errors.ConfigurationError` naming the bytes used, the
limit and both overrides — a named error at a known size, never an OOM
and never a silent fallback.  Dense per-node metric tallies store one
int64 cell per (trial, node) and are checked in the drivers *before* any
engine state is allocated (:func:`check_memory_budget`).  A complete
layered CSR topology knows its edge count before it allocates, and is
checked the same way by its builder (:func:`check_edge_budget`).

Overrides: pass ``allow_large=True`` to the driver (it holds
:func:`large_memory_allowed` open while its engines run), or set the
environment variable ``REPRO_ALLOW_LARGE_MEMORY=1`` (useful for CLI runs
on big boxes); the topology builders take only the environment variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ConfigurationError

__all__ = [
    "ALLOW_LARGE_ENV",
    "CSR_EDGE_LIMIT",
    "FULL_TRACE_BYTE_LIMIT",
    "DENSE_METRICS_CELL_LIMIT",
    "TraceBudget",
    "check_edge_budget",
    "check_memory_budget",
    "large_memory_allowed",
]

#: Environment override; any non-empty value other than "0" disables the guard.
ALLOW_LARGE_ENV = "REPRO_ALLOW_LARGE_MEMORY"

#: Bytes of FULL-trace columns one run may append before the guard trips
#: (one engine instance: a serial run, or a whole macro union).  Each
#: column entry is one int64 — a transmitter, a delivery's receiver or
#: sender, a collision receiver, a woken node, or a slot's step number or
#: row count.  KP on G(10^6, 12/n) (topology seed 0, trial seed 1, 232
#: slots) appends 425 MB, so the limit leaves 2.5x headroom at 10^6.
FULL_TRACE_BYTE_LIMIT = 1 << 30

#: Maximum ``trials * n`` cells for dense per-node metric tallies
#: (``transmissions_per_node``); 2^28 int64 cells are 2 GiB.
DENSE_METRICS_CELL_LIMIT = 1 << 28

_METRICS_BYTES_PER_CELL = 8  # one int64 tally per (trial, node)

#: Maximum undirected edges a CSR topology builder allocates; 2^27 edges
#: are 2 GiB of ``indices``.
CSR_EDGE_LIMIT = 1 << 27

_CSR_BYTES_PER_EDGE = 16  # one int64 ``indices`` entry per direction


_ALLOW_LARGE: ContextVar[bool] = ContextVar("repro_allow_large", default=False)


def _override_active() -> bool:
    value = os.environ.get(ALLOW_LARGE_ENV, "")
    return value not in ("", "0") or _ALLOW_LARGE.get()


@contextmanager
def large_memory_allowed(allowed: bool = True):
    """Lift the trace budget inside the block when ``allowed`` (the
    drivers' ``allow_large=True``)."""
    token = _ALLOW_LARGE.set(allowed or _ALLOW_LARGE.get())
    try:
        yield
    finally:
        _ALLOW_LARGE.reset(token)


class TraceBudget:
    """Bytes appended to one run's FULL-trace columns, charged as they are
    appended against :data:`FULL_TRACE_BYTE_LIMIT` (read when the budget
    is made)."""

    __slots__ = ("used", "limit")

    def __init__(self) -> None:
        self.used = 0
        self.limit = FULL_TRACE_BYTE_LIMIT

    def charge(self, nbytes: int) -> None:
        """Add ``nbytes``; raise once the total passes the limit.

        Raises:
            ConfigurationError: With the bytes used, the limit and both
                overrides named, unless an override is active (then the
                budget stops checking).
        """
        self.used += nbytes
        if self.used <= self.limit:
            return
        if _override_active():
            self.limit = float("inf")
            return
        raise ConfigurationError(
            f"TraceLevel.FULL trace columns reached {self.used:,} bytes, past "
            f"the limit of {self.limit:,} bytes (FULL_TRACE_BYTE_LIMIT). "
            f"Lower max_steps, drop to TraceLevel.PROGRESS, or override with "
            f"allow_large=True (or {ALLOW_LARGE_ENV}=1)."
        )


def check_memory_budget(
    n: int,
    trials: int = 1,
    dense_metrics: bool = False,
    allow_large: bool = False,
) -> None:
    """Refuse dense per-node metric tallies past
    :data:`DENSE_METRICS_CELL_LIMIT`, before anything is allocated.

    FULL traces are not estimated here: they are charged as they grow
    (:class:`TraceBudget`).

    Args:
        n: Network size.
        trials: Batch width (1 for single runs).
        dense_metrics: Whether the driver would allocate per-node tallies
            (true exactly when a metrics registry was passed).
        allow_large: Caller override (``allow_large=True`` on the driver).

    Raises:
        ConfigurationError: With the estimated bytes and both overrides
            named, when the limit is exceeded and no override is active.
    """
    if not dense_metrics or allow_large or _override_active():
        return
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
