"""Layered radio networks.

Complete layered networks (Section 4.3) are central to the paper twice
over: they are the *hardest* instances for randomized broadcasting (the
Kushilevitz–Mansour lower bound is proved on them) yet admit a fast
O(n + D log n) deterministic algorithm — the paper's Corollary in
Section 1.2.  This module generates them, plus sparse layered variants
used for the randomized experiments.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from ..sim.errors import ConfigurationError
from ..sim.network import RadioNetwork

__all__ = [
    "complete_layered",
    "directed_complete_layered",
    "uniform_complete_layered",
    "km_hard_layered",
    "random_layered",
    "layer_sizes_for",
    "uniform_layer_sizes",
    "km_hard_layer_sizes",
    "layer_order_labels",
]


def complete_layered(
    layer_sizes: Sequence[int], relabel_seed: int | None = None, r: int | None = None
) -> RadioNetwork:
    """Complete layered network with the given layer sizes.

    Layer 0 is the source layer and must have size 1; adjacent pairs of
    nodes are *exactly* those in consecutive layers (paper, Section 1.3).

    Args:
        layer_sizes: Size of every layer; ``layer_sizes[0] == 1``.
        relabel_seed: When given, labels other than the source are randomly
            permuted with this seed (layer structure is unchanged).
        r: Label bound; defaults to ``n - 1``.

    Returns:
        A network of radius ``len(layer_sizes) - 1``.
    """
    if not layer_sizes or layer_sizes[0] != 1:
        raise ConfigurationError("layer_sizes[0] must be 1 (the source layer)")
    if any(size < 1 for size in layer_sizes):
        raise ConfigurationError("every layer must be non-empty")
    n = sum(layer_sizes)
    labels = layer_order_labels(n, relabel_seed)
    layers: list[list[int]] = []
    cursor = 0
    for size in layer_sizes:
        layers.append(labels[cursor : cursor + size])
        cursor += size
    edges = [
        (u, v)
        for j in range(len(layers) - 1)
        for u in layers[j]
        for v in layers[j + 1]
    ]
    return RadioNetwork.undirected(range(n), edges, r=r)


def directed_complete_layered(
    layer_sizes: Sequence[int], relabel_seed: int | None = None, r: int | None = None
) -> RadioNetwork:
    """Directed complete layered network: arcs point away from the source.

    Section 2 analyses the randomized algorithm on *directed* graphs (its
    result holds there too); this is the directed counterpart of
    :func:`complete_layered` — every node of layer ``j`` has an arc to
    every node of layer ``j + 1`` and none back, so the information flow
    is strictly forward and in-neighbourhoods equal the previous layer.
    """
    undirected = complete_layered(layer_sizes, relabel_seed=relabel_seed, r=r)
    layer_of = undirected.distances_from_source()
    arcs = [
        (u, v)
        for u, nbrs in undirected.out_neighbors.items()
        for v in nbrs
        if layer_of[v] == layer_of[u] + 1
    ]
    return RadioNetwork.directed(undirected.nodes, arcs, r=undirected.r)


def uniform_complete_layered(
    n: int, depth: int, relabel_seed: int | None = None
) -> RadioNetwork:
    """Complete layered network with ``depth`` equal-size layers after the source.

    The first ``depth - 1`` non-source layers get ``(n - 1) // depth`` nodes
    and the last layer absorbs the remainder.
    """
    return complete_layered(uniform_layer_sizes(n, depth), relabel_seed=relabel_seed)


def km_hard_layered(n: int, depth: int, seed: int = 0) -> RadioNetwork:
    """Kushilevitz–Mansour-style hard instance for randomized broadcasting.

    The KM Omega(D log(n/D)) lower bound is proved on complete layered
    networks whose layer sizes are *unknown* powers of two: a broadcasting
    algorithm cannot know the right transmission probability for the next
    layer and must sweep ~log(n/D) probabilities per layer.  This generator
    draws each layer size as ``2^u`` with ``u`` uniform in
    ``[0, log2(n/depth)]``, then pads/truncates to exactly ``n`` nodes.

    Args:
        n: Total number of nodes.
        depth: Number of non-source layers (the radius).
        seed: Seed for the layer-size draws.
    """
    return complete_layered(km_hard_layer_sizes(n, depth, seed), relabel_seed=seed)


def random_layered(
    n: int,
    depth: int,
    edge_prob: float = 0.5,
    seed: int = 0,
    relabel_seed: int | None = None,
) -> RadioNetwork:
    """Sparse layered network: consecutive-layer edges drawn independently.

    Every node keeps at least one edge to the previous layer so the network
    stays connected with radius exactly ``depth``.  With ``edge_prob=1.0``
    this coincides with :func:`uniform_complete_layered`.
    """
    if not 0.0 < edge_prob <= 1.0:
        raise ConfigurationError(f"edge_prob must be in (0, 1], got {edge_prob}")
    rng = random.Random(seed)
    sizes = layer_sizes_for(n, depth)
    layers: list[list[int]] = []
    cursor = 0
    for size in sizes:
        layers.append(list(range(cursor, cursor + size)))
        cursor += size
    edges: list[tuple[int, int]] = []
    for j in range(len(layers) - 1):
        for v in layers[j + 1]:
            parents = [u for u in layers[j] if rng.random() < edge_prob]
            if not parents:
                parents = [rng.choice(layers[j])]
            edges.extend((u, v) for u in parents)
    net = RadioNetwork.undirected(range(n), edges)
    if relabel_seed is not None:
        from .generators import relabel_network

        net = relabel_network(net, relabel_seed)
    return net


def layer_sizes_for(n: int, depth: int) -> list[int]:
    """Evenly split ``n`` nodes into a source layer plus ``depth`` layers."""
    _check_depth(n, depth)
    base, extra = divmod(n - 1, depth)
    return [1] + [base + (1 if i < extra else 0) for i in range(depth)]


def _check_depth(n: int, depth: int) -> None:
    if depth < 1 or n < depth + 1:
        raise ConfigurationError(f"need n >= depth + 1, got n={n}, depth={depth}")


def uniform_layer_sizes(n: int, depth: int) -> list[int]:
    """Layer sizes of :func:`uniform_complete_layered`: the first
    ``depth - 1`` non-source layers get ``(n - 1) // depth`` nodes and the
    last layer absorbs the remainder."""
    _check_depth(n, depth)
    base = (n - 1) // depth
    sizes = [1] + [base] * (depth - 1)
    sizes.append(n - sum(sizes))
    return sizes


def km_hard_layer_sizes(n: int, depth: int, seed: int = 0) -> list[int]:
    """Layer sizes of :func:`km_hard_layered`: each non-source layer
    ``2^u`` with ``u`` drawn from ``random.Random(seed)``, uniform in
    ``[0, log2(n/depth)]``, padded or truncated to exactly ``n`` nodes."""
    _check_depth(n, depth)
    rng = random.Random(seed)
    max_exp = max(0, int(math.log2(max(1, (n - 1) // depth))))
    sizes = [1]
    remaining = n - 1
    for i in range(depth):
        layers_left = depth - i
        if layers_left == 1:
            size = remaining
        else:
            size = min(1 << rng.randint(0, max_exp), remaining - (layers_left - 1))
            size = max(1, size)
        sizes.append(size)
        remaining -= size
    if remaining > 0:
        sizes[-1] += remaining
    return sizes


def layer_order_labels(n: int, relabel_seed: int | None = None) -> list[int]:
    """Labels in layer order (position -> label) of a complete layered
    network: the identity, or with ``relabel_seed`` the non-source labels
    shuffled by ``random.Random(relabel_seed)``."""
    labels = list(range(n))
    if relabel_seed is not None:
        rng = random.Random(relabel_seed)
        tail = labels[1:]
        rng.shuffle(tail)
        labels = [0, *tail]
    return labels
