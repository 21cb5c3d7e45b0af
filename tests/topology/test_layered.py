"""Layered network generators (Section 4.3 substrate)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.errors import ConfigurationError
from repro.topology import (
    complete_layered,
    km_hard_layered,
    layer_sizes_for,
    random_layered,
    uniform_complete_layered,
)


def test_complete_layered_structure():
    net = complete_layered([1, 3, 2, 4])
    assert net.n == 10
    assert net.radius == 3
    assert net.is_complete_layered()
    assert [len(layer) for layer in net.layers()] == [1, 3, 2, 4]


def test_complete_layered_requires_unit_source_layer():
    with pytest.raises(ConfigurationError):
        complete_layered([2, 3])
    with pytest.raises(ConfigurationError):
        complete_layered([])
    with pytest.raises(ConfigurationError):
        complete_layered([1, 0, 2])


def test_complete_layered_relabel_preserves_structure():
    plain = complete_layered([1, 4, 5, 2])
    shuffled = complete_layered([1, 4, 5, 2], relabel_seed=7)
    assert shuffled.is_complete_layered()
    assert [len(l) for l in shuffled.layers()] == [len(l) for l in plain.layers()]
    assert shuffled.out_neighbors != plain.out_neighbors


def test_uniform_complete_layered_sizes():
    net = uniform_complete_layered(100, 9)
    sizes = [len(layer) for layer in net.layers()]
    assert sizes[0] == 1
    assert sum(sizes) == 100
    assert net.radius == 9


def test_uniform_complete_layered_too_small():
    with pytest.raises(ConfigurationError):
        uniform_complete_layered(4, 5)


def test_km_hard_layered_total_and_radius():
    net = km_hard_layered(200, 12, seed=5)
    assert net.n == 200
    assert net.radius == 12
    assert net.is_complete_layered()


def test_km_hard_layered_sizes_are_varied():
    net = km_hard_layered(512, 16, seed=1)
    sizes = {len(layer) for layer in net.layers()[1:]}
    assert len(sizes) > 2  # layer sizes vary (that is the hardness source)


def test_random_layered_radius_and_connectivity():
    net = random_layered(80, 8, edge_prob=0.4, seed=2)
    assert net.n == 80
    assert net.radius == 8


def test_random_layered_full_prob_is_complete():
    net = random_layered(40, 4, edge_prob=1.0, seed=0)
    assert net.is_complete_layered()


def test_random_layered_relabel():
    net = random_layered(40, 4, edge_prob=0.5, seed=1, relabel_seed=3)
    assert net.radius == 4


def test_random_layered_rejects_bad_prob():
    with pytest.raises(ConfigurationError):
        random_layered(30, 3, edge_prob=0.0)


def test_layer_sizes_for_splits_evenly():
    sizes = layer_sizes_for(10, 3)
    assert sizes[0] == 1
    assert sum(sizes) == 10
    assert max(sizes[1:]) - min(sizes[1:]) <= 1


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda depth: st.tuples(
            st.just(depth), st.integers(min_value=depth + 1, max_value=120)
        )
    ),
    st.integers(min_value=0, max_value=99),
)
def test_km_hard_layered_property(depth_n, seed):
    depth, n = depth_n
    net = km_hard_layered(n, depth, seed=seed)
    assert net.n == n
    assert net.radius == depth
    assert net.is_complete_layered()


def test_directed_complete_layered_arcs_forward_only():
    from repro.topology import directed_complete_layered

    net = directed_complete_layered([1, 3, 2])
    assert net.is_directed
    assert net.radius == 2
    # Arcs go forward: layer-2 nodes have no out-neighbours.
    for v in net.layers()[2]:
        assert net.out_neighbors[v] == ()
    # In-neighbourhood of a layer-2 node is the whole of layer 1.
    for v in net.layers()[2]:
        assert net.in_neighbors[v] == net.layers()[1]


def test_directed_layered_runs_kp(topology_zoo=None):
    from repro.core import KnownRadiusKP
    from repro.sim import run_broadcast
    from repro.topology import directed_complete_layered

    net = directed_complete_layered([1, 8, 16, 4, 10])
    algo = KnownRadiusKP(net.r, net.radius)
    assert run_broadcast(net, algo, seed=2).completed
    assert run_broadcast(net, algo, seed=2, engine="macro").completed
