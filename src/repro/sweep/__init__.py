"""Declarative parameter sweeps over topologies × algorithms × seeds.

A sweep is described by a :class:`SweepSpec` (topology family, parameter
grids, algorithm, trial count), expanded into self-contained
:class:`SweepPoint` cells, and executed by :func:`run_sweep` — cache
misses are sharded across worker processes while each point's trials run
as macro unions of network copies on the array engine.  Results persist in a
content-addressed JSON cache under ``benchmarks/results/sweep-cache``.
"""

from .cache import CODE_VERSION, DEFAULT_CACHE_DIR, ResultCache
from .registry import ALGORITHMS, TOPOLOGIES, build_algorithm, build_topology
from .runner import (
    PointResult,
    SweepExecutionError,
    SweepOutcome,
    engine_run_count,
    execute_point,
    reset_engine_run_counter,
    run_sweep,
)
from .spec import SweepPoint, SweepSpec, canonical_json

__all__ = [
    "ALGORITHMS",
    "CODE_VERSION",
    "DEFAULT_CACHE_DIR",
    "PointResult",
    "ResultCache",
    "SweepExecutionError",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "TOPOLOGIES",
    "build_algorithm",
    "build_topology",
    "canonical_json",
    "engine_run_count",
    "execute_point",
    "reset_engine_run_counter",
    "run_sweep",
]
