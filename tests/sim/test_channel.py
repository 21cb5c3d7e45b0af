"""Property test: the channel kernel against a per-edge count.

Every array engine resolves the channel through
:class:`~repro.sim.channel.ChannelKernel`, whose resolver switches from
``np.unique`` to a union-sized ``np.bincount`` once the transmitters'
rows hold ``size // 8`` entries.  The engine-level oracle
(``test_semantics_property.py``) runs networks of at most 16 nodes, where
that crossover is at most 2 entries, so it almost never reaches the
``np.unique`` side.  Here larger directed, undirected and CSR-native
networks, as one copy and as a union of three, are resolved on both
sides of the crossover and compared with a brute-force walk over every
edge.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channel import ASLEEP, ChannelKernel
from repro.sim.network import RadioNetwork
from repro.topology.csr import gnp_random_csr


def _network(kind: str, rng: random.Random):
    n = rng.randint(40, 120)
    if kind == "csr":
        return gnp_random_csr(n, rng.uniform(2.0, 8.0) / n, seed=rng.randrange(1 << 30))
    # Sparse, gappy labels so that label order and index order differ
    # from the identity.
    labels = [0] + sorted(rng.sample(range(1, 4 * n), n - 1))
    edges = {(labels[rng.randrange(i)], labels[i]) for i in range(1, n)}
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.sample(labels, 2)
        edges.add((u, v))
    build = RadioNetwork.directed if kind == "directed" else RadioNetwork.undirected
    return build(labels, sorted(edges))


def _rows(kernel: ChannelKernel) -> list[list[int]]:
    """Every union index's out-neighbours, in the kernel's row order:
    the network's neighbour tuples, or the CSR arrays of a CSR-native
    topology, walked one edge at a time."""
    n = kernel.n
    csr = getattr(kernel.network, "csr_arrays", None)
    if csr is not None:
        indptr, indices = csr()
        base = [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(n)]
    else:
        out = kernel.network.out_neighbors
        base = [[kernel.index[w] for w in out[int(label)]] for label in kernel.labels]
    return [[t * n + w for w in base[v]] for t in range(kernel.trials) for v in range(n)]


def _brute(rows, tx, half_duplex):
    """Per-edge resolution: ``(once in scan order, its senders, sorted
    colliders)``."""
    hits: Counter = Counter()
    sender: dict[int, int] = {}
    order: list[int] = []
    for u in tx:
        for w in rows[u]:
            hits[w] += 1
            if w not in sender:
                sender[w] = u
                order.append(w)
    deaf = set(tx) if half_duplex else set()
    once = [w for w in order if hits[w] == 1 and w not in deaf]
    colliding = sorted(w for w, c in hits.items() if c >= 2 and w not in deaf)
    return once, [sender[w] for w in once], colliding


def _transmitter_sets(kernel, rows, rng):
    """A single transmitter, a set whose rows hold fewer than ``size //
    8`` entries and one whose rows hold at least that many (the two sides
    of the resolver's crossover), each in a random order.  The small set
    takes the shortest rows first, so it holds several transmitters."""
    order = list(range(kernel.size))
    rng.shuffle(order)
    threshold = kernel.size // 8
    small, entries = [], 0
    for u in sorted(order, key=lambda u: len(rows[u])):
        if entries + len(rows[u]) >= threshold:
            break
        small.append(u)
        entries += len(rows[u])
    rng.shuffle(small)
    large, entries = [], 0
    for u in order:
        if entries >= threshold:
            break
        large.append(u)
        entries += len(rows[u])
    assert entries >= threshold
    return [order[-1:], small, large]


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("kind", ["undirected", "directed", "csr"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_resolve_matches_a_per_edge_count(kind, trials, seed):
    rng = random.Random(seed)
    kernel = ChannelKernel(_network(kind, rng)).union(trials)
    rows = _rows(kernel)
    for tx_list in _transmitter_sets(kernel, rows, rng):
        tx = np.array(tx_list, dtype=np.int64)
        for half_duplex in (False, True):
            once, senders, colliding = _brute(rows, tx_list, half_duplex)
            got_once, got_coll, got_sent = kernel.resolve(
                tx, collisions=True, senders=True, half_duplex=half_duplex
            )
            assert got_once.tolist() == once
            assert got_sent.tolist() == senders
            assert got_coll.tolist() == colliding
            plain_once, no_coll, no_sent = kernel.resolve(tx, half_duplex=half_duplex)
            assert plain_once.tolist() == sorted(once)
            assert no_coll.size == 0 and no_sent.size == 0


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("kind", ["undirected", "directed", "csr"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_gathers_match_the_rows(kind, trials, seed):
    rng = random.Random(seed)
    kernel = ChannelKernel(_network(kind, rng)).union(trials)
    rows = _rows(kernel)
    wake = np.array(
        [ASLEEP if rng.random() < 0.4 else rng.randrange(50) for _ in rows],
        dtype=np.int64,
    )
    for picked in (rng.sample(range(kernel.size), 1),
                   rng.sample(range(kernel.size), rng.randint(2, kernel.size))):
        idx = np.array(picked, dtype=np.int64)
        cat, lengths = kernel.gather(idx)
        assert cat.tolist() == [w for u in picked for w in rows[u]]
        assert lengths.tolist() == [len(rows[u]) for u in picked]
        useful, cat2, owner, asleep = kernel.sleeping_neighbours(idx, wake)
        assert useful.tolist() == [
            any(wake[w] == ASLEEP for w in rows[u]) for u in picked
        ]
        assert cat2.tolist() == cat.tolist()
        assert owner.tolist() == [i for i, u in enumerate(picked) for _ in rows[u]]
        assert asleep.tolist() == (wake[cat] == ASLEEP).tolist()
        # Receiver-side count: each owner entry is one transmitting
        # in-neighbour of that row's node.
        passes = owner[np.array([rng.random() < 0.5 for _ in owner], dtype=bool)]
        counts = Counter(passes.tolist())
        assert kernel.hear_once(idx, passes).tolist() == [
            u for i, u in enumerate(picked) if counts[i] == 1
        ]


def test_union_shares_the_csr_arrays():
    kernel = ChannelKernel(gnp_random_csr(40, 0.1, seed=2))
    union = kernel.union(3)
    assert union.indptr is kernel.indptr and union.indices is kernel.indices
    assert (union.trials, union.size) == (3, 120) and (kernel.trials, kernel.size) == (1, 40)
    assert union.symmetric and union.avg_degree == kernel.avg_degree
    assert not ChannelKernel(RadioNetwork.undirected([0, 1], [(0, 1)])).symmetric
