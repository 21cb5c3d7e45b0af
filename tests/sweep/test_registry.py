"""The name registry: degenerate inputs enumerated from it, and its
parameter rules.

Every topology family is built at n in {1, 2, 3} (depth 1 and n - 1 for
the families that take one; ``grid`` also at n = 4, its smallest valid
size), every algorithm runs on every registered engine that can run it,
and each cell either gives the reference engine's ``(time, completed,
wake_times)`` everywhere or raises a
:class:`~repro.sim.errors.ConfigurationError` on every engine.
"""

from __future__ import annotations

import inspect

import pytest

from repro.sim import ENGINES, run_broadcast, simulate
from repro.sim.errors import ConfigurationError, ProtocolViolationError
from repro.sim.protocol import VectorizedAlgorithm
from repro.sim.trace import TraceLevel
from repro.sweep import (
    ALGORITHMS,
    ResultCache,
    SweepSpec,
    TOPOLOGIES,
    build_algorithm,
    build_topology,
    run_sweep,
)
from repro.topology import gnp_connected, path

SEEDS = [0, 1]


def _degenerate_topologies() -> list[tuple[str, dict]]:
    cells = []
    for name, factory in TOPOLOGIES.items():
        takes_depth = "depth" in inspect.signature(factory).parameters
        for n in (1, 2, 3):
            depths = sorted({1, n - 1}) if takes_depth else [None]
            for depth in depths:
                params = {"n": n} if depth is None else {"n": n, "depth": depth}
                cells.append((name, params))
    # n in {1, 2, 3} is refused for grid (n must be side², side >= 2);
    # its smallest valid size keeps the family a runnable cell.
    cells.append(("grid", {"n": 4}))
    return cells


def _cell_id(cell) -> str:
    name, params = cell
    return f"{name}[{','.join(f'{k}={v}' for k, v in params.items())}]"


def _outcome(topology: str, params: dict, algorithm: str, engine: str):
    """``(time, completed, wake_times)`` per seed, ``None`` if the engine
    cannot run the algorithm, or ``"ConfigurationError"``."""
    try:
        network = build_topology(topology, params)
        algo = build_algorithm(algorithm, network, {})
        if ENGINES[engine].oblivious_only and not isinstance(algo, VectorizedAlgorithm):
            return None
        results = simulate(network, algo, SEEDS, engine=engine)
    except ConfigurationError:
        return "ConfigurationError"
    return [(r.time, r.completed, dict(r.wake_times)) for r in results]


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
@pytest.mark.parametrize("cell", _degenerate_topologies(), ids=_cell_id)
def test_degenerate_cell_agrees_on_every_engine(cell, algorithm):
    topology, params = cell
    expected = _outcome(topology, params, algorithm, "reference")
    for engine in ENGINES:
        outcome = _outcome(topology, params, algorithm, engine)
        if outcome is not None:
            assert outcome == expected, engine


def test_matrix_covers_every_family_and_runs_something():
    cells = _degenerate_topologies()
    assert {name for name, _ in cells} == set(TOPOLOGIES)
    runnable = [
        (cell, algorithm)
        for cell in cells
        for algorithm in ALGORITHMS
        if _outcome(*cell, algorithm, "reference") != "ConfigurationError"
    ]
    # Every algorithm runs somewhere in the matrix.
    assert {algorithm for _, algorithm in runnable} == set(ALGORITHMS)


def _adjacency(network) -> dict:
    if hasattr(network, "to_radio_network"):
        network = network.to_radio_network()
    return dict(network.out_neighbors)


@pytest.mark.parametrize("topology", ["gnp", "gnp-csr"])
def test_gnp_probability_rule(topology):
    """``p`` defaults to ``min(0.9, avg_degree / n)``, ``avg_degree`` to 6."""

    def build(**params):
        return _adjacency(build_topology(topology, {"n": 60, "seed": 4, **params}))

    assert build() == build(p=0.1)
    assert build(avg_degree=12.0) == build(p=0.2)
    assert build(avg_degree=120.0) == build(p=0.9)
    assert build(avg_degree=12.0) != build()
    with pytest.raises(ConfigurationError, match="not both"):
        build(p=0.1, avg_degree=6.0)


def test_grid_side_follows_n():
    """``grid`` is the square of side √n; any other n is refused up front,
    naming the two nearest sizes, instead of silently building another n."""
    assert build_topology("grid", {"n": 16}).n == 16
    assert build_topology("grid", {"n": 4}).n == 4
    for n, nearest in [(17, "16 and 25"), (200, "196 and 225"),
                       (1, "4 and 9"), (2, "4 and 9"), (3, "4 and 9"), (0, "4 and 9")]:
        with pytest.raises(ConfigurationError, match=f"got n={n}; nearest valid sizes: {nearest}"):
            build_topology("grid", {"n": n})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        build_topology("grid", {"rows": 3, "cols": 3})


def test_km_layered_csr_point_runs_and_rereads_from_cache(tmp_path):
    """A CSR family is a sweep family: a 10^5-node point runs (~1 s) and
    its re-run is served from the cache."""
    spec = SweepSpec(
        name="km-csr", topology="km-layered-csr", algorithm="bgi",
        topology_grid={"n": 100_000, "depth": 64}, trials=2,
    )
    cache = ResultCache(tmp_path)
    cold = run_sweep(spec, cache=cache)
    warm = run_sweep(spec, cache=cache)
    assert (cold.executed, warm.executed, warm.from_cache) == (1, 0, 1)
    assert warm.results[0].payload == cold.results[0].payload
    assert cold.results[0].payload["n"] == 100_000


DETERMINISTIC = {
    "round-robin", "selective-family", "select-and-send", "complete-layered",
    "interleaved", "centralized", "dfs-known-neighbors",
}


def _traced_run(network, algorithm: str, seed: int):
    """Wake slots and FULL-trace records of one reference run, or the
    protocol violation it raised."""
    algo = build_algorithm(algorithm, network, {})
    try:
        result = run_broadcast(
            network, algo, seed=seed, engine="reference",
            trace_level=TraceLevel.FULL, max_steps=2000,
        )
    except ProtocolViolationError as exc:
        return str(exc)
    return result.time, dict(result.wake_times), result.trace.steps


def test_registry_declares_the_deterministic_algorithms():
    net = path(4)
    assert {
        name for name in ALGORITHMS
        if build_algorithm(name, net, {}).deterministic
    } == DETERMINISTIC


@pytest.mark.parametrize(
    "network", [path(7), gnp_connected(16, 0.25, seed=4)], ids=["path", "gnp"],
)
@pytest.mark.parametrize("algorithm", sorted(DETERMINISTIC))
def test_deterministic_flag_is_honest(network, algorithm):
    """Every engine runs one seed of a deterministic, loss-free call and
    hands its result to all the others, so the flag must hold: two seeds
    give the same execution, slot for slot."""
    assert _traced_run(network, algorithm, 0) == _traced_run(network, algorithm, 917)
