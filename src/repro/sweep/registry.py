"""The one name table: topology and algorithm families by name.

Every name a user types resolves here — ``repro run``, ``compare``,
``adversary``, ``explain`` and ``profile run`` take their ``--topology``
and ``--algorithm`` choices from :data:`TOPOLOGIES` and
:data:`ALGORITHMS`, and sweep specs name their families the same way.

Sweep points travel between processes as plain dicts; workers rebuild the
actual network (a :class:`~repro.sim.network.RadioNetwork`, or a
CSR-native :class:`~repro.topology.csr.CSRNetwork` for the ``*-csr``
families) and algorithm objects through these registries.  Keeping
construction here (rather than pickling live objects) makes points
cacheable by content and cheap to ship to a worker pool.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from .. import topology
from ..baselines import (
    BGIBroadcast,
    CentralizedGreedySchedule,
    InterleavedBroadcast,
    KnownNeighborsDFS,
    RoundRobinBroadcast,
    SelectiveFamilyBroadcast,
)
from ..core import (
    CompleteLayeredBroadcast,
    KnownRadiusKP,
    OptimalRandomizedBroadcasting,
    SelectAndSend,
)
from ..sim.errors import ConfigurationError

__all__ = [
    "TOPOLOGIES",
    "ALGORITHMS",
    "TOPOLOGY_AWARE",
    "build_topology",
    "build_algorithm",
]


def _gnp_p(n: int, p: float | None, avg_degree: float | None) -> float:
    """Edge probability of a ``gnp`` family: ``p`` as given, otherwise
    ``min(0.9, avg_degree / n)`` with ``avg_degree`` defaulting to 6.0."""
    if p is not None and avg_degree is not None:
        raise ConfigurationError("give gnp either p or avg_degree, not both")
    if p is not None:
        return p
    return min(0.9, (6.0 if avg_degree is None else avg_degree) / n)


def _square_grid(n: int):
    """The ``side x side`` grid with ``n = side²`` nodes, ``side >= 2``;
    any other ``n`` is refused, naming the two nearest valid sizes."""
    side = math.isqrt(max(n, 0))
    if side < 2 or side * side != n:
        low = max(side, 2)
        raise ConfigurationError(
            f"grid needs n = side² with side >= 2, got n={n}; "
            f"nearest valid sizes: {low * low} and {(low + 1) ** 2}"
        )
    return topology.grid(side, side)


#: Topology family name -> factory over keyword parameters.
TOPOLOGIES: dict[str, Callable[..., Any]] = {
    "path": lambda n: topology.path(n),
    "star": lambda n: topology.star(n),
    "grid": _square_grid,
    "tree": lambda n, seed=0: topology.random_tree(n, seed=seed),
    "gnp": lambda n, p=None, seed=0, avg_degree=None: topology.gnp_connected(
        n, _gnp_p(n, p, avg_degree), seed=seed
    ),
    "geometric": lambda n, seed=0: topology.random_geometric(n, seed=seed),
    "layered": lambda n, depth: topology.uniform_complete_layered(n, depth),
    "km-layered": lambda n, depth, seed=0: topology.km_hard_layered(n, depth, seed=seed),
    # CSR-native builders: same distributions, flat-array construction;
    # required for million-node topologies (see docs/PERFORMANCE.md).
    "gnp-csr": lambda n, p=None, seed=0, avg_degree=None: topology.gnp_random_csr(
        n, _gnp_p(n, p, avg_degree), seed=seed
    ),
    "layered-csr": lambda n, depth: topology.uniform_complete_layered_csr(n, depth),
    "km-layered-csr": lambda n, depth, seed=0: topology.km_hard_layered_csr(
        n, depth, seed=seed
    ),
}

#: Algorithm name -> factory taking the network plus keyword parameters.
#: Oblivious entries run as macro unions; the adaptive ones
#: (``select-and-send``, ``complete-layered``, ``interleaved``,
#: ``dfs-known-neighbors``) run on the event engine — ``repeat_broadcast``
#: picks the engine per algorithm.
ALGORITHMS: dict[str, Callable[..., Any]] = {
    "kp-known-d": lambda net, d=None, stage_constant=4660, extra_step="universal": KnownRadiusKP(
        net.r,
        d if d is not None else max(1, net.radius),
        stage_constant=stage_constant,
        extra_step=extra_step,
    ),
    "kp-optimal": lambda net, stage_constant=8, max_d=None: OptimalRandomizedBroadcasting(
        net.r, stage_constant=stage_constant, max_d=max_d
    ),
    "bgi": lambda net, phase_len=None: BGIBroadcast(net.r, phase_len=phase_len),
    "round-robin": lambda net: RoundRobinBroadcast(net.r),
    "selective-family": lambda net, family_kind="random", seed=0: SelectiveFamilyBroadcast(
        net.r, family_kind, seed=seed
    ),
    "select-and-send": lambda net: SelectAndSend(),
    "complete-layered": lambda net: CompleteLayeredBroadcast(),
    "interleaved": lambda net: InterleavedBroadcast(
        RoundRobinBroadcast(net.r), SelectAndSend()
    ),
    "centralized": lambda net: CentralizedGreedySchedule(net),
    "dfs-known-neighbors": lambda net: KnownNeighborsDFS(net),
}

#: Algorithms whose construction reads the whole topology (the
#: known-topology models): they need the real network, not just its
#: label bound and radius.
TOPOLOGY_AWARE = frozenset({"centralized", "dfs-known-neighbors"})


def build_topology(name: str, params: Mapping[str, Any]):
    """Instantiate a topology family with concrete parameters."""
    try:
        factory = TOPOLOGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology family {name!r}; available: {sorted(TOPOLOGIES)}"
        ) from None
    try:
        return factory(**dict(params))
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for topology {name!r}: {exc}") from exc


def build_algorithm(name: str, network, params: Mapping[str, Any]):
    """Instantiate an algorithm for ``network`` with concrete parameters."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None
    try:
        return factory(network, **dict(params))
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for algorithm {name!r}: {exc}") from exc
