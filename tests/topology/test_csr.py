"""CSR-native topology generation: structure, determinism, pinned
bit-identity, properties of the assembly/BFS helpers, and exact
equivalence with the legacy (dict-of-sets) layered builders."""

from __future__ import annotations

import hashlib
import re
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.guard as guard
import repro.topology.csr as csr_module
from repro.core.randomized import KnownRadiusKP
from repro.sim import run_broadcast
from repro.sim.channel import ChannelKernel, ragged_positions
from repro.sim.errors import ConfigurationError
from repro.topology import (
    CSRNetwork,
    complete_layered,
    complete_layered_csr,
    gnp_random_csr,
    km_hard_layered,
    km_hard_layered_csr,
    uniform_complete_layered,
    uniform_complete_layered_csr,
)
from repro.topology.csr import (
    _augment_to_connected,
    _bfs_depths,
    _bfs_fill,
    _csr_from_edges,
    _decode_pair_positions,
    _insert_edges,
    _sample_pair_positions,
    _scalar_draws,
)


def _assert_canonical(net: CSRNetwork) -> None:
    """Kernel-ready CSR form: strictly increasing rows, symmetric, no
    self-loops."""
    indptr, indices = net.csr_arrays()
    assert indices.dtype == np.int64 and indptr.dtype == np.int64
    assert np.all((indices >= 0) & (indices < net.n))
    src = np.repeat(np.arange(net.n), np.diff(indptr))
    assert not np.any(src == indices), "self-loops"
    # Row-major keys strictly increase iff every row is strictly
    # increasing (sorted, no duplicate edges).
    keys = src * net.n + indices
    assert np.all(np.diff(keys) > 0), "unsorted row or duplicate edge"
    assert np.array_equal(np.sort(indices * net.n + src), keys), "asymmetric edge"


def _edge_set(net) -> set[tuple[int, int]]:
    """Undirected edge set of any network exposing ``out_neighbors``."""
    return {
        (min(u, v), max(u, v))
        for u, nbrs in net.out_neighbors.items()
        for v in nbrs
    }


def _csr_edge_set(net: CSRNetwork) -> set[tuple[int, int]]:
    indptr, indices = net.csr_arrays()
    src = np.repeat(np.arange(net.n), np.diff(indptr))
    return {(min(u, v), max(u, v)) for u, v in zip(src.tolist(), indices.tolist())}


class TestCSRNetworkStructure:
    def test_gnp_is_simple_symmetric_and_connected(self):
        net = gnp_random_csr(800, 9 / 800, seed=4)
        _assert_canonical(net)
        depths = net.depths_array()
        assert depths[0] == 0 and np.all(depths >= 0), "disconnected node"

    def test_gnp_deterministic_per_seed(self):
        a = gnp_random_csr(300, 10 / 300, seed=9)
        b = gnp_random_csr(300, 10 / 300, seed=9)
        c = gnp_random_csr(300, 10 / 300, seed=10)
        assert np.array_equal(a.csr_arrays()[1], b.csr_arrays()[1])
        assert not np.array_equal(a.csr_arrays()[1], c.csr_arrays()[1])

    def test_gnp_density_tracks_p(self):
        n, p = 2000, 8 / 2000
        net = gnp_random_csr(n, p, seed=0)
        expected = p * n * (n - 1) / 2
        assert 0.7 * expected < net.num_edges < 1.4 * expected

    def test_sparse_gnp_augmented_to_connected(self):
        # Far below the connectivity threshold: augmentation must kick in
        # and still yield one component with every edge symmetric.
        net = gnp_random_csr(500, 1.5 / 500, seed=2)
        assert np.all(net.depths_array() >= 0)
        pairs = _csr_edge_set(net)
        assert len(pairs) >= net.n - 1
        # The augmentation edges are inserted into the sorted rows in
        # place; the result must still be in canonical form.
        _assert_canonical(net)

    def test_resample_mode_raises_when_hopeless(self):
        with pytest.raises(ConfigurationError):
            gnp_random_csr(400, 0.5 / 400, seed=0, connect="resample",
                           max_attempts=3)

    def test_layers_and_radius_match_bfs(self):
        net = gnp_random_csr(400, 10 / 400, seed=1)
        depths = net.depths_array()
        assert net.radius == int(depths.max())
        for d, layer in enumerate(net.layers()):
            assert sorted(layer) == np.flatnonzero(depths == d).tolist()


def _rows_of(n, rows):
    """CSR arrays from a list of ``n`` neighbour lists, taken as given."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    return indptr, np.array([v for row in rows for v in row], dtype=np.int64)


class TestCSRNetworkValidation:
    """The public constructor refuses arrays outside the canonical form
    the engines read; the in-module builders skip the check."""

    def test_asymmetric_rows_are_refused(self):
        # Regression: an asymmetric 40-node network used to be accepted,
        # and the reference and macro engines then disagreed on it (the
        # macro engine reads a row as in-neighbours, to_radio_network()
        # symmetrised).
        rng = np.random.default_rng(0)
        n = 40
        for _ in range(20):
            src, dst = rng.integers(0, n, size=(2, 120))
            keys = np.unique((src * n + dst)[src != dst])
            if np.array_equal(np.sort(keys % n * n + keys // n), keys):
                continue  # symmetric by chance
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
            with pytest.raises(ConfigurationError, match="not symmetric"):
                CSRNetwork(indptr, keys % n, validate=False)

    def test_one_missing_reverse_entry_is_named(self):
        indptr, indices = _rows_of(3, [[1, 2], [0], [1]])
        with pytest.raises(
            ConfigurationError, match="2 is in row 0 but 0 is not in row 2"
        ):
            CSRNetwork(indptr, indices)

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[2, 1], [0], [0]], "strictly increasing"),  # unsorted row
            ([[1, 1], [0, 0]], "strictly increasing"),  # repeated edge
            ([[0, 1], [0]], "self-loop"),
            ([[1], [0, 2]], r"outside \[0, 2\)"),
            ([[-1], [0]], r"outside \[0, 2\)"),
        ],
        ids=["unsorted", "repeated", "self-loop", "too-large", "negative"],
    )
    def test_malformed_rows_are_refused(self, rows, match):
        indptr, indices = _rows_of(len(rows), rows)
        with pytest.raises(ConfigurationError, match=match):
            CSRNetwork(indptr, indices, validate=False)

    def test_malformed_indptr_is_refused(self):
        with pytest.raises(ConfigurationError, match="malformed CSR indptr"):
            CSRNetwork(np.array([0, 2, 1, 2]), np.array([1, 2]))
        with pytest.raises(ConfigurationError, match="at least the source"):
            CSRNetwork(np.array([0]), np.array([], dtype=np.int64))

    def test_builders_output_passes_the_public_check(self):
        for net in (
            gnp_random_csr(500, 1.5 / 500, seed=2),
            gnp_random_csr(300, 10 / 300, seed=9),
            km_hard_layered_csr(97, 6, seed=3),
            uniform_complete_layered_csr(80, 4, relabel_seed=7),
        ):
            again = CSRNetwork(net.indptr.copy(), net.indices.copy(), r=net.r)
            assert np.array_equal(again.depths_array(), net.depths_array())

    def test_unreachable_nodes_still_refused_after_the_row_check(self):
        indptr, indices = _rows_of(4, [[1], [0], [3], [2]])
        with pytest.raises(ConfigurationError, match="2 of 4 nodes unreachable"):
            CSRNetwork(indptr, indices)
        assert CSRNetwork(indptr, indices, validate=False).n == 4


class TestLegacyEquivalence:
    """The CSR builders reproduce the legacy generators edge for edge."""

    def test_km_hard_layered_exact(self):
        for n, depth, seed in [(60, 4, 0), (97, 6, 3), (200, 8, 11)]:
            legacy = km_hard_layered(n, depth, seed=seed)
            csr = km_hard_layered_csr(n, depth, seed=seed)
            assert csr.n == legacy.n and csr.r == legacy.r
            assert _csr_edge_set(csr) == _edge_set(legacy)

    def test_uniform_complete_layered_exact(self):
        for n, depth, relabel in [(50, 5, None), (80, 4, 7)]:
            legacy = uniform_complete_layered(n, depth, relabel_seed=relabel)
            csr = uniform_complete_layered_csr(n, depth, relabel_seed=relabel)
            assert _csr_edge_set(csr) == _edge_set(legacy)

    def test_complete_layered_exact(self):
        legacy = complete_layered([1, 4, 9, 2], relabel_seed=13)
        csr = complete_layered_csr([1, 4, 9, 2], relabel_seed=13)
        assert _csr_edge_set(csr) == _edge_set(legacy)

    def test_to_radio_network_round_trip(self):
        csr = km_hard_layered_csr(80, 5, seed=1)
        net = csr.to_radio_network()
        assert _edge_set(net) == _csr_edge_set(csr)
        assert net.r == csr.r and net.source == 0


class TestEdgeBudget:
    """Complete layered CSR builders refuse, before allocating, an
    instance whose exact edge count is past the memory guard's budget."""

    def test_million_node_instance_fails_fast(self, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(ConfigurationError) as excinfo:
            km_hard_layered_csr(10**6, 16)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        message = str(excinfo.value)
        assert "496,399,232 undirected edges" in message
        assert guard.ALLOW_LARGE_ENV in message
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_ten_thousand_nodes_still_build(self, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        net = km_hard_layered_csr(10**4, 16)
        assert net.n == 10**4

    def test_budget_counts_exact_edges_and_env_overrides(self, monkeypatch):
        sizes = [1, 4, 9, 2]  # 4 + 36 + 18 edges
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        monkeypatch.setattr(guard, "CSR_EDGE_LIMIT", 58)
        assert complete_layered_csr(sizes).num_edges == 58
        monkeypatch.setattr(guard, "CSR_EDGE_LIMIT", 57)
        with pytest.raises(ConfigurationError, match="58 undirected edges"):
            complete_layered_csr(sizes)
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "1")
        assert complete_layered_csr(sizes).num_edges == 58


class TestGnpEdgeBudget:
    """``gnp_random_csr`` checks its expected edge count, ``p n(n-1)/2``,
    against the same guard before it draws an edge."""

    def test_dense_million_node_draw_fails_fast(self, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(ConfigurationError) as excinfo:
            gnp_random_csr(10**6, 0.5)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        message = str(excinfo.value)
        assert "249,999,750,000 undirected edges" in message
        assert guard.ALLOW_LARGE_ENV in message
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_sparse_million_node_draw_is_within_budget(self, monkeypatch):
        """G(10^6, 12/n) passes the guard; the spy stops the build
        before the (seconds-long) draw."""
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        checked = []

        class Checked(Exception):
            pass

        def spy(edges, what):
            guard.check_edge_budget(edges, what)
            checked.append(edges)
            raise Checked

        monkeypatch.setattr(csr_module, "check_edge_budget", spy)
        with pytest.raises(Checked):
            gnp_random_csr(10**6, 12 / 10**6)
        assert checked == [5_999_994]

    def test_budget_is_the_expected_count(self, monkeypatch):
        monkeypatch.delenv(guard.ALLOW_LARGE_ENV, raising=False)
        monkeypatch.setattr(guard, "CSR_EDGE_LIMIT", 495)  # 0.1 * 100 * 99 / 2
        assert gnp_random_csr(100, 0.1, seed=1).n == 100
        monkeypatch.setattr(guard, "CSR_EDGE_LIMIT", 494)
        with pytest.raises(ConfigurationError, match="495 undirected edges"):
            gnp_random_csr(100, 0.1, seed=1)
        monkeypatch.setenv(guard.ALLOW_LARGE_ENV, "1")
        assert gnp_random_csr(100, 0.1, seed=1).n == 100


class TestEngineAdoption:
    def test_channel_kernel_adopts_csr_zero_copy(self):
        net = gnp_random_csr(200, 12 / 200, seed=5)
        kernel = ChannelKernel(net)
        indptr, indices = net.csr_arrays()
        assert kernel.indptr is indptr and kernel.indices is indices
        assert kernel.index[7] == 7 and kernel.index.get(net.n) is None
        with pytest.raises(KeyError):
            kernel.index[net.n]

    def test_fast_engine_identical_on_csr_and_converted(self):
        csr = km_hard_layered_csr(90, 5, seed=4)
        legacy = csr.to_radio_network()
        for seed in (0, 1):
            a = run_broadcast(csr, KnownRadiusKP(csr.r, csr.radius),
                              seed=seed, engine="macro")
            b = run_broadcast(legacy, KnownRadiusKP(legacy.r, csr.radius),
                              seed=seed, engine="macro")
            assert a.wake_times == b.wake_times
            assert a.time == b.time and a.layer_times == b.layer_times


def _sha256(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


class TestGnpBitIdentity:
    """Pinned sha256 digests of ``(indptr, indices, depths)``.

    Generation is a pure function of ``(n, p, seed, connect)``: any change
    to the sampling, CSR assembly, augmentation or BFS that alters a
    single array byte — or one RNG draw — fails here.
    """

    @pytest.mark.parametrize(
        "n, c, seed, connect, edges, indptr_digest, indices_digest, depths_digest",
        [
            # Connected on the first draw.
            (2000, 12.0, 0, "augment", 12081,
             "52982a2f69565953fefb734d38ab4ad9c365e9f0829c8884d9e71f1c444c7094",
             "be7335040c5f38f9a60a04097a86f935752594250e7aa79771ad96eed976d67b",
             "67a714a9b24d374e6e0a417347351492ebd82ad1afda0247f3c05a7f1a87280c"),
            # Giant component plus 858 stray components, 78 of size >= 3.
            (3000, 1.5, 1, "augment", 3143,
             "7791e66a7778790ffad479cc5eec0f42359324597d551b49eb8cc713b45cbd7d",
             "4d4f8914815dfd2cd8e14dff993563a15ef945c4281cc6096c009633813e32c1",
             "22f20997679a4676eecc0d14395b40f61fd8bdc485bb6ee2135b3669f1abf207"),
            # Subcritical: the source itself is isolated; 1826 stray
            # components, the largest of 62 nodes.
            (3000, 0.8, 1, "augment", 3000,
             "1bcaafd9c0ff2eb8a5e506b71d9ceb2d5a1ae1f460a66dc495a4a2ccc5a926bc",
             "804fb68cd13469d1900ee5ea97113ebc3627fd501da6f1b48123db4ce39eceb7",
             "ec9ee161e76488ba9e8b5c7ba1611113db03b2379253bb1585c696db4972a986"),
            # Three disconnected draws rejected, the fourth kept.
            (1500, 6.0, 0, "resample", 4564,
             "dc6b42d7807dfb22464e4febbbe73c68c91d271137f2aff241440887c7012653",
             "9f5d8e5b234a0ef62dac76e1d0da2150c5cfadd99a866c37ca9604f7856c3bec",
             "9080ba21d78e3f0a816f26844bf087713126c4cc3d9919c5a3d6ea6c577aa6a8"),
        ],
        ids=["connected", "augment-giant", "augment-subcritical", "resample"],
    )
    def test_gnp_arrays_pinned(
        self, n, c, seed, connect, edges, indptr_digest, indices_digest, depths_digest
    ):
        net = gnp_random_csr(n, c / n, seed=seed, connect=connect)
        assert net.num_edges == edges
        assert _sha256(net.indptr) == indptr_digest
        assert _sha256(net.indices) == indices_digest
        assert _sha256(net.depths_array()) == depths_digest


# ----------------------------------------------------------------------
# Properties of the assembly and BFS helpers against independent
# references (numpy lexsort, networkx)
# ----------------------------------------------------------------------


@st.composite
def _edge_lists(draw, max_n: int = 40):
    """``(n, src, dst)``: a simple undirected graph as an unsorted edge
    list, each edge in a random orientation."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(
        st.tuples(node, node).filter(lambda e: e[0] != e[1]),
        unique_by=lambda e: (min(e), max(e)),
        max_size=3 * n,
    ))
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return n, src, dst


def _lexsort_csr(n, src, dst):
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.lexsort((all_dst, all_src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_src, minlength=n), out=indptr[1:])
    return indptr, all_dst[order]


def _networkx_depths(n, src, dst, source=0) -> np.ndarray:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    want = np.full(n, -1, dtype=np.int64)
    for v, d in nx.single_source_shortest_path_length(g, source).items():
        want[v] = d
    return want


class TestAssemblyProperties:
    @settings(max_examples=60, deadline=None)
    @given(_edge_lists())
    def test_csr_from_edges_matches_lexsort(self, graph):
        n, src, dst = graph
        indptr, indices = _csr_from_edges(n, src, dst)
        ref_indptr, ref_indices = _lexsort_csr(n, src, dst)
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(indices, ref_indices)

    @settings(max_examples=60, deadline=None)
    @given(_edge_lists(), st.data())
    def test_insert_edges_matches_rebuild(self, graph, data):
        n, src, dst = graph
        split = data.draw(st.integers(0, src.size))
        indptr, indices = _csr_from_edges(n, src[:split], dst[:split])
        got = _insert_edges(n, indptr, indices, src[split:], dst[split:])
        want = _csr_from_edges(n, src, dst)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=60, deadline=None)
    @given(_edge_lists(max_n=60), st.data())
    def test_bfs_depths_match_networkx(self, graph, data):
        # Sparse random graphs, often disconnected: unreachable nodes
        # must read -1.
        n, src, dst = graph
        source = data.draw(st.integers(0, n - 1))
        depths = _bfs_depths(n, *_csr_from_edges(n, src, dst), source=source)
        assert np.array_equal(depths, _networkx_depths(n, src, dst, source))

    def test_bfs_depths_on_a_long_path(self):
        # Depth far above every frontier size (one node per level), with
        # shuffled labels so frontiers jump around the arrays.
        n = 5000
        order = np.random.default_rng(7).permutation(n)
        order = np.concatenate([[0], order[order != 0]])
        depths = _bfs_depths(n, *_csr_from_edges(n, order[:-1], order[1:]))
        want = np.empty(n, dtype=np.int64)
        want[order] = np.arange(n)
        assert np.array_equal(depths, want)


@st.composite
def _shaped_graphs(draw):
    """``(n, src, dst)`` of a graph whose BFS forces one direction, with
    optional disconnected extras: stars, complete graphs and dense
    G(n, p) reach a level whose rows outweigh the unvisited ones
    (bottom-up); paths and random trees keep every level small
    (top-down)."""
    shape = draw(st.sampled_from(["star", "complete", "dense", "path", "tree"]))
    k = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "star":
        src, dst = np.zeros(k - 1, dtype=np.int64), np.arange(1, k)
    elif shape in ("complete", "dense"):
        i, j = np.triu_indices(k, 1)
        keep = np.ones(i.size, bool) if shape == "complete" else rng.random(i.size) < 0.6
        src, dst = i[keep], j[keep]
    elif shape == "path":
        src, dst = np.arange(k - 1), np.arange(1, k)
    else:
        src = np.array([rng.integers(v) for v in range(1, k)], dtype=np.int64)
        dst = np.arange(1, k)
    # Disconnected extras: one isolated node, or a path of up to six.
    extra = draw(st.integers(0, 6))
    tail = np.arange(k + 1, k + extra) if extra > 1 else np.empty(0, np.int64)
    src = np.concatenate([src, tail - 1]).astype(np.int64)
    dst = np.concatenate([dst, tail]).astype(np.int64)
    n = k + extra
    perm = rng.permutation(n)  # shuffle labels so the hub is anywhere
    return n, perm[src], perm[dst]


def _float_decode(pos: np.ndarray, n: int):
    """The float decode the integer one replaced: invert the row start
    ``i(2n-1-i)/2`` with a float64 square root, then correct by one row
    where rounding misplaced a position."""
    b = 2 * n - 1

    def row_start(i):
        return i * (b - i) // 2

    i = np.floor((b - np.sqrt(b * b - 8.0 * pos.astype(np.float64))) / 2.0)
    i = np.clip(i.astype(np.int64), 0, n - 2)
    while True:
        too_big = row_start(i) > pos
        too_small = row_start(i + 1) <= pos
        if not (too_big.any() or too_small.any()):
            return i, pos - row_start(i) + i + 1
        i = i - too_big.astype(np.int64) + too_small.astype(np.int64)


class TestDirectionOptimizingBFS:
    @settings(max_examples=150, deadline=None)
    @given(_shaped_graphs(), st.data())
    def test_depths_match_networkx_on_shaped_graphs(self, graph, data):
        n, src, dst = graph
        source = data.draw(st.integers(0, n - 1))
        depths = _bfs_depths(n, *_csr_from_edges(n, src, dst), source=source)
        assert np.array_equal(depths, _networkx_depths(n, src, dst, source))

    def test_dense_gnp_and_unreached_nodes(self):
        # A dense graph plus isolated nodes that stay in the unvisited set
        # of every bottom-up level and must end at -1.
        rng = np.random.default_rng(3)
        i, j = np.triu_indices(300, 1)
        keep = rng.random(i.size) < 0.2
        n = 310
        depths = _bfs_depths(n, *_csr_from_edges(n, i[keep], j[keep]), source=5)
        assert np.array_equal(depths, _networkx_depths(n, i[keep], j[keep], 5))
        assert np.all(depths[300:] == -1)

    @settings(max_examples=80, deadline=None)
    @given(_edge_lists(max_n=30), st.data())
    def test_seeds_join_at_their_start_depths(self, graph, data):
        # Several seeds, possibly in one component and at equal start
        # depths: a node ends at the least start depth plus distance.
        n, src, dst = graph
        seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=4, unique=True))
        starts = data.draw(st.lists(st.integers(0, 4), min_size=len(seeds),
                                    max_size=len(seeds)))
        order = np.argsort(starts, kind="stable")
        indptr, indices = _csr_from_edges(n, src, dst)
        depths = np.full(n, -1, dtype=np.int64)
        left = _bfs_fill(indptr, indices, depths,
                         np.array(seeds, dtype=np.int64)[order],
                         [starts[k] for k in order], len(indices))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        want = np.full(n, -1, dtype=np.int64)
        for seed, start in zip(seeds, starts):
            for v, d in nx.single_source_shortest_path_length(g, seed).items():
                if want[v] < 0 or start + d < want[v]:
                    want[v] = start + d
        assert np.array_equal(depths, want)
        assert left == int(np.diff(indptr)[depths < 0].sum())


class TestGnpDepths:
    """The depths ``gnp_random_csr`` returns — the first BFS, then only
    the stray components' depths after augmentation — equal a fresh BFS
    of the returned arrays."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3000),
        st.sampled_from([0.3, 1.0, 3.0, 12.0]),
        st.integers(0, 2**16),
    )
    def test_returned_depths_equal_a_fresh_bfs(self, n, c, seed):
        net = gnp_random_csr(n, min(1.0, c / n), seed=seed)
        fresh = _bfs_depths(n, net.indptr, net.indices)
        assert np.array_equal(net.depths_array(), fresh)

    def test_hundreds_of_stray_components(self):
        net = gnp_random_csr(3000, 0.3 / 3000, seed=4)
        assert net.num_edges > 2000  # mostly augmentation edges
        fresh = _bfs_depths(net.n, net.indptr, net.indices)
        assert np.array_equal(net.depths_array(), fresh)
        _assert_canonical(net)


def _augment_one_component_at_a_time(indptr, indices, depths, rng):
    """The stray-component augmentation as a loop over components: a
    BFS from each component's smallest unvisited label, members listed
    level by level in sorted order, one scalar draw pair per component."""
    reached = depths >= 0
    source_comp = np.flatnonzero(reached)
    extra_src: list[int] = []
    extra_dst: list[int] = []
    visited = reached.copy()
    for v in np.flatnonzero(~reached).tolist():
        if visited[v]:
            continue
        comp = [v]
        visited[v] = True
        frontier = np.array([v], dtype=np.int64)
        while frontier.size:
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            nbrs = indices[ragged_positions(starts, lengths)]
            nbrs = np.unique(nbrs[~visited[nbrs]])
            visited[nbrs] = True
            comp.extend(nbrs.tolist())
            frontier = nbrs
        extra_src.append(comp[int(rng.integers(len(comp)))])
        extra_dst.append(int(source_comp[int(rng.integers(len(source_comp)))]))
    return np.array(extra_src, dtype=np.int64), np.array(extra_dst, dtype=np.int64)


class TestStrayComponents:
    """All stray components labelled at once draw exactly what the
    one-component-at-a-time loop draws."""

    @pytest.mark.parametrize("n", [2, 40, 700, 5000])
    @pytest.mark.parametrize("c", [0.3, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_per_component_loop(self, n, c, seed):
        rng = np.random.default_rng(seed)
        pos = _sample_pair_positions(n * (n - 1) // 2, min(1.0, c / n), rng)
        indptr, indices = _csr_from_edges(n, *_decode_pair_positions(pos, n))
        depths = np.full(n, -1, dtype=np.int64)
        stray = _bfs_fill(indptr, indices, depths, np.zeros(1, np.int64), [0],
                          len(indices))
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        got = _augment_to_connected(indptr, indices, depths, rng, stray)
        want = _augment_one_component_at_a_time(indptr, indices, depths, twin)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_a_long_path_component(self):
        """Labels arranged so minimum-label propagation needs many
        hooking rounds: one stray path 1 - 99 - 2 - 98 - 3 - ..."""
        order = [1]
        lo, hi = 2, 99
        while lo <= hi:
            order += [hi, lo] if hi != lo else [lo]
            lo, hi = lo + 1, hi - 1
        indptr, indices = _csr_from_edges(
            100, np.array(order[:-1]), np.array(order[1:])
        )
        depths = np.full(100, -1, dtype=np.int64)
        stray = _bfs_fill(indptr, indices, depths, np.zeros(1, np.int64), [0],
                          len(indices))
        got = _augment_to_connected(indptr, indices, depths,
                                    np.random.default_rng(5), stray)
        want = _augment_one_component_at_a_time(indptr, indices, depths,
                                                np.random.default_rng(5))
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == [0]

    def test_numpy_draw_properties_the_batching_relies_on(self):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert a.integers(1) == 0  # a bound of 1 draws nothing ...
        assert a.integers(1 << 40) == b.integers(1 << 40)  # ... the streams agree
        for bound in (2, 3, 7, 1000, 2**31 + 5):
            assert [int(a.integers(bound)) for _ in range(9)] == (
                b.integers(bound, size=9).tolist()
            )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([1, 1, 2, 3, 5, 100, 25_000]), max_size=40),
           st.integers(0, 2**16))
    def test_scalar_draws_equal_a_loop_of_scalar_calls(self, bounds, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _scalar_draws(a, np.array(bounds, dtype=np.int64))
        assert got.tolist() == [int(b.integers(bound)) for bound in bounds]
        assert a.bit_generator.state == b.bit_generator.state


class TestPairDecode:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10**6), st.data())
    def test_integer_decode_equals_float_decode(self, n, data):
        num_pairs = n * (n - 1) // 2
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        size = min(num_pairs, data.draw(st.integers(0, 500)))
        pos = rng.choice(num_pairs, size=size, replace=False).astype(np.int64)
        pos = np.unique(np.concatenate([pos, [0, num_pairs - 1]]))
        got_i, got_j = _decode_pair_positions(pos, n)
        want_i, want_j = _float_decode(pos, n)
        assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j)
        assert np.all((0 <= got_i) & (got_i < got_j) & (got_j < n))

    def test_every_pair_in_order(self):
        n = 9
        i, j = _decode_pair_positions(np.arange(n * (n - 1) // 2), n)
        assert list(zip(i.tolist(), j.tolist())) == [
            (a, b) for a in range(n) for b in range(a + 1, n)
        ]

    def test_no_positions(self):
        for n in (1, 2, 50):
            i, j = _decode_pair_positions(np.empty(0, dtype=np.int64), n)
            assert i.size == 0 and j.size == 0


class TestGnpDegenerateInputs:
    """``n`` in {1, 2, 3} x ``p`` in {1e-9, 1} x both connect modes:
    each case returns the arrays and depths pinned on the builder before
    the direction-optimizing BFS and integer decode, or raises the same
    ``ConfigurationError``."""

    PATH = ([0, 1, 2], [1, 0], [0, 1])
    STAR = ([0, 2, 3, 4], [1, 2, 0, 0], [0, 1, 1])
    TRIANGLE = ([0, 2, 4, 6], [1, 2, 0, 2, 0, 1], [0, 1, 1])
    SINGLE = ([0, 0], [], [0])

    @pytest.mark.parametrize(
        "n, p, connect, want",
        [
            (1, 1e-9, "augment", SINGLE),
            (1, 1e-9, "resample", SINGLE),
            (1, 1.0, "augment", SINGLE),
            (1, 1.0, "resample", SINGLE),
            (2, 1e-9, "augment", PATH),
            (2, 1e-9, "resample", "no connected G(2, 1e-09) instance found in 200"),
            (2, 1.0, "augment", PATH),
            (2, 1.0, "resample", PATH),
            (3, 1e-9, "augment", STAR),
            (3, 1e-9, "resample", "no connected G(3, 1e-09) instance found in 200"),
            (3, 1.0, "augment", TRIANGLE),
            (3, 1.0, "resample", TRIANGLE),
        ],
        ids=lambda value: value if isinstance(value, (int, float)) else None,
    )
    def test_pinned(self, n, p, connect, want):
        if isinstance(want, str):
            with pytest.raises(ConfigurationError, match=re.escape(want)):
                gnp_random_csr(n, p, connect=connect)
            return
        net = gnp_random_csr(n, p, connect=connect)
        assert net.indptr.tolist() == want[0]
        assert net.indices.tolist() == want[1]
        assert net.depths_array().tolist() == want[2]
