"""CSR-native topology generation for million-node instances.

The classic generators (:mod:`repro.topology.generators`,
:mod:`repro.topology.layered`) build a :class:`~repro.sim.network.
RadioNetwork` — per-node Python tuples, dict neighbour maps — which the
engines then recompile into flat CSR arrays via
:class:`~repro.sim.channel.ChannelKernel`.  At 10^6 nodes that detour
costs minutes and gigabytes before a single slot runs.  This module
samples instances *directly into* the flat CSR form the kernels consume:

* :class:`CSRNetwork` — an identity-labelled (``label == index``) network
  backed by ``(indptr, indices)`` arrays, duck-compatible with the array
  engines (the :class:`~repro.sim.channel.ChannelKernel`
  recognises :meth:`CSRNetwork.csr_arrays` and adopts the arrays without
  copying).
* :func:`gnp_random_csr` — G(n, p) via geometric-gap skip sampling over
  the n(n-1)/2 pair indices: O(E) draws and memory, never O(n^2).
* :func:`complete_layered_csr` / :func:`uniform_complete_layered_csr` /
  :func:`km_hard_layered_csr` — the layered families of
  :mod:`repro.topology.layered`, built edge-for-edge identically (same
  seeds, same RNG draws, same relabelling) but assembled as arrays.

Small instances from the CSR builders are *equal* to their networkx-path
counterparts (asserted by ``tests/topology/test_csr.py``), so the choice
of builder is purely an execution strategy.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from ..sim.errors import ConfigurationError
from ..sim.network import RadioNetwork

__all__ = [
    "CSRNetwork",
    "gnp_random_csr",
    "complete_layered_csr",
    "uniform_complete_layered_csr",
    "km_hard_layered_csr",
]


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenate the CSR neighbour lists of ``rows`` (vectorised)."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    cum = np.cumsum(lengths) - lengths  # exclusive prefix sum
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lengths)
    return indices[pos]


def _bfs_depths(
    n: int, indptr: np.ndarray, indices: np.ndarray, source: int = 0
) -> np.ndarray:
    """Frontier BFS over CSR arrays; unreachable nodes keep depth -1.

    Each frontier is deduplicated in O(|frontier|) by a last-writer-wins
    ``owner`` array instead of a sort: a node survives at the one slot
    that wrote it last.  Frontiers come out unsorted, but depths depend
    only on the frontier *sets*.
    """
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    owner = np.empty(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        nbrs = _gather_rows(indptr, indices, frontier)
        nbrs = nbrs[depths[nbrs] < 0]
        if nbrs.size == 0:
            break
        slots = np.arange(nbrs.size, dtype=np.int64)
        owner[nbrs] = slots
        frontier = nbrs[owner[nbrs] == slots]
        depth += 1
        depths[frontier] = depth
    return depths


class CSRNetwork:
    """An identity-labelled radio network held as flat CSR arrays.

    Node labels are exactly ``0 .. n-1`` (label == array index), the
    source is label 0, and ``indices[indptr[v]:indptr[v + 1]]`` is node
    ``v``'s sorted out-neighbour list — the same convention
    :class:`~repro.sim.channel.ChannelKernel` compiles a
    :class:`~repro.sim.network.RadioNetwork` into, which is what lets the
    kernel adopt these arrays as-is (zero-copy) via :meth:`csr_arrays`.

    The array engine (:class:`~repro.sim.macro.MacroStepEngine`) runs on
    a ``CSRNetwork`` directly.  The per-node reference engines
    need dict neighbour maps; convert with :meth:`to_radio_network`
    (small instances only).

    Args:
        indptr: ``int64`` array of shape ``(n + 1,)``.
        indices: ``int64`` flat neighbour array (symmetric: ``(u, v)``
            present iff ``(v, u)`` is).
        r: Public label bound; defaults to ``n - 1``.
        depths: Optional precomputed BFS depths from the source (layered
            builders know them by construction); computed on demand
            otherwise.
        validate: Verify reachability of every node from the source
            (raises :class:`~repro.sim.errors.ConfigurationError`).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        r: int | None = None,
        depths: np.ndarray | None = None,
        validate: bool = True,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        n = len(indptr) - 1
        if n < 1:
            raise ConfigurationError("CSRNetwork needs at least the source node")
        if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
            raise ConfigurationError("malformed CSR indptr")
        self.n = n
        self.r = n - 1 if r is None else int(r)
        if self.r < n - 1:
            raise ConfigurationError(
                f"label bound r={self.r} below the largest label {n - 1}"
            )
        self.source = 0
        self.indptr = indptr
        self.indices = indices
        self._depths = depths
        self._layers_cache: tuple[tuple[int, ...], ...] | None = None
        if validate and depths is None:
            self._depths = _bfs_depths(n, indptr, indices)
        if self._depths is not None and int(self._depths.min()) < 0:
            unreached = int((self._depths < 0).sum())
            raise ConfigurationError(
                f"{unreached} of {n} nodes unreachable from the source"
            )

    # -- structural queries (RadioNetwork-compatible surface) ------------

    @property
    def nodes(self) -> range:
        """Labels in increasing order (identity labelling)."""
        return range(self.n)

    def __contains__(self, label: int) -> bool:
        return 0 <= int(label) < self.n

    def degree(self, label: int) -> int:
        return int(self.indptr[int(label) + 1] - self.indptr[int(label)])

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def max_in_degree(self) -> int:
        if len(self.indices) == 0:
            return 0
        return int((self.indptr[1:] - self.indptr[:-1]).max())

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(indptr, indices)`` pair, adopted as-is by the kernels."""
        return self.indptr, self.indices

    # -- distances --------------------------------------------------------

    def depths_array(self) -> np.ndarray:
        """BFS depth of every node from the source, as an int64 array."""
        if self._depths is None:
            self._depths = _bfs_depths(self.n, self.indptr, self.indices)
            if int(self._depths.min()) < 0:
                raise ConfigurationError("network is not connected")
        return self._depths

    @property
    def radius(self) -> int:
        return int(self.depths_array().max())

    def distances_from_source(self) -> dict[int, int]:
        return {i: int(d) for i, d in enumerate(self.depths_array())}

    def layers(self) -> tuple[tuple[int, ...], ...]:
        """BFS layers as label tuples (built lazily — O(n) Python objects;
        the array drivers use :meth:`depths_array` instead)."""
        if self._layers_cache is None:
            depths = self.depths_array()
            order = np.argsort(depths, kind="stable")
            bounds = np.searchsorted(
                depths[order], np.arange(int(depths.max()) + 2)
            )
            self._layers_cache = tuple(
                tuple(int(v) for v in order[bounds[j]:bounds[j + 1]])
                for j in range(len(bounds) - 1)
            )
        return self._layers_cache

    # -- conversions ------------------------------------------------------

    def to_radio_network(self) -> RadioNetwork:
        """Materialise as a :class:`~repro.sim.network.RadioNetwork`
        (per-node tuples; intended for small instances / reference runs)."""
        indptr, indices = self.indptr, self.indices
        edges = [
            (u, int(v))
            for u in range(self.n)
            for v in indices[indptr[u]:indptr[u + 1]]
            if u < v
        ]
        return RadioNetwork.undirected(range(self.n), edges, r=self.r)

    def describe(self) -> str:
        return (
            f"CSRNetwork: n={self.n}, edges={self.num_edges}, "
            f"radius={self.radius}, r={self.r}, "
            f"max_in_degree={self.max_in_degree}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRNetwork(n={self.n}, edges={self.num_edges}, r={self.r})"


# ----------------------------------------------------------------------
# Edge-list -> CSR assembly
# ----------------------------------------------------------------------


def _csr_from_edges(n: int, src: np.ndarray, dst: np.ndarray):
    """Symmetrise ``(src, dst)`` pairs into sorted CSR arrays.

    Both orientations of every edge are packed into one row-major key
    ``row * n + col`` and sorted in place — a single-key sort, which
    orders entries exactly as a ``(row, col)`` lexsort would.
    """
    keys = np.concatenate([src * n + dst, dst * n + src])
    keys.sort()
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    rows *= n
    keys -= rows  # keys now hold the column of every entry
    return indptr, keys


def _insert_edges(n, indptr, indices, src, dst):
    """Insert new undirected ``(src, dst)`` edges into sorted CSR arrays.

    Only the new directed entries are placed, each after the entries of
    its row with a smaller column; the existing ``2E`` entries are never
    re-sorted.  New entries sharing a position arrive in sorted order and
    ``np.insert`` keeps it, so every row stays sorted.
    """
    add_indptr, cols = _csr_from_edges(n, src, dst)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(add_indptr))
    # Offset of each new entry inside its row: the count of smaller columns.
    row_lengths = indptr[rows + 1] - indptr[rows]
    entry = np.repeat(np.arange(cols.size, dtype=np.int64), row_lengths)
    smaller = _gather_rows(indptr, indices, rows) < cols[entry]
    at = indptr[rows] + np.bincount(entry[smaller], minlength=cols.size)
    return indptr + add_indptr, np.insert(indices, at, cols)


# ----------------------------------------------------------------------
# G(n, p)
# ----------------------------------------------------------------------


def _sample_pair_positions(num_pairs: int, p: float, rng) -> np.ndarray:
    """Skip-sample positions in ``[0, num_pairs)``, each kept w.p. ``p``.

    Equivalent to ``flatnonzero(uniform(num_pairs) < p)`` but O(E): draw
    geometric gaps (chunked) and cumulative-sum them — never materialises
    an O(n^2) array.
    """
    if num_pairs <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(num_pairs, dtype=np.int64)
    chunks: list[np.ndarray] = []
    chunk = max(1024, min(1 << 20, int(num_pairs * p) + 16))
    position = np.int64(-1)
    while True:
        gaps = rng.geometric(p, size=chunk).astype(np.int64)
        positions = position + np.cumsum(gaps)
        if positions[-1] < num_pairs:
            chunks.append(positions)
            position = positions[-1]
            continue
        chunks.append(positions[positions < num_pairs])
        break
    return np.concatenate(chunks)


def _decode_pair_positions(pos: np.ndarray, n: int):
    """Map linear pair positions to ``(i, j)`` with ``0 <= i < j < n``.

    Pairs are in lexicographic order: position 0 is ``(0, 1)``, the last
    is ``(n-2, n-1)``.  Row ``i`` starts at ``f(i) = i(2n-1-i)/2``; the
    float64 root is exact to an ulp for any ``n(n-1)/2 < 2^53`` and the
    integer correction passes absorb the rounding.
    """
    b = 2 * n - 1

    def row_start(i: np.ndarray) -> np.ndarray:
        return i * (b - i) // 2

    i = np.floor((b - np.sqrt(b * b - 8.0 * pos.astype(np.float64))) / 2.0)
    i = i.astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    while True:  # converges in <= 2 passes; sqrt error is < 1 row
        too_big = row_start(i) > pos
        too_small = row_start(i + 1) <= pos
        if not (too_big.any() or too_small.any()):
            break
        i = i - too_big.astype(np.int64) + too_small.astype(np.int64)
    j = pos - row_start(i) + i + 1
    return i, j


def gnp_random_csr(
    n: int,
    p: float,
    seed: int = 0,
    connect: str = "augment",
    max_attempts: int = 200,
    r: int | None = None,
) -> CSRNetwork:
    """Sample G(n, p) straight into CSR arrays — O(E) time and memory.

    In the sparse regime the experiments care about (``p = c/n`` with
    ``c`` below ``ln n``) a G(n, p) draw has isolated vertices with
    constant probability, so a rejection loop such as
    :func:`~repro.topology.generators.gnp_connected` would never
    terminate at 10^6 nodes.  The default ``connect="augment"`` instead
    patches each stray component with one seeded random edge into the
    source component — a vanishing-measure edit (o(n) edges in
    expectation) that preserves the degree structure the asymptotic
    experiments measure.

    Args:
        n: Number of nodes (labels ``0 .. n-1``, source 0).
        p: Edge probability.
        seed: Seed for the edge draws and the augmentation choices.
        connect: ``"augment"`` (default, add one edge per stray
            component) or ``"resample"`` (reject-and-retry with
            ``seed + attempt``, the :func:`gnp_connected` discipline —
            only sensible above the connectivity threshold).
        max_attempts: Retry budget for ``connect="resample"``.
        r: Label bound; defaults to ``n - 1``.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"p must be in (0, 1], got {p}")
    if connect not in ("augment", "resample"):
        raise ConfigurationError(
            f"unknown connect mode {connect!r}; expected 'augment' or 'resample'"
        )
    num_pairs = n * (n - 1) // 2
    attempts = max_attempts if connect == "resample" else 1
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        pos = _sample_pair_positions(num_pairs, p, rng)
        src, dst = _decode_pair_positions(pos, n) if pos.size else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        indptr, indices = _csr_from_edges(n, src, dst)
        depths = _bfs_depths(n, indptr, indices)
        if int(depths.min()) >= 0:
            return CSRNetwork(indptr, indices, r=r, depths=depths)
        if connect == "augment":
            extra_src, extra_dst = _augment_to_connected(indptr, indices, depths, rng)
            indptr, indices = _insert_edges(n, indptr, indices, extra_src, extra_dst)
            depths = _bfs_depths(n, indptr, indices)
            return CSRNetwork(indptr, indices, r=r, depths=depths)
    raise ConfigurationError(
        f"no connected G({n}, {p}) instance found in {max_attempts} attempts"
    )


def _augment_to_connected(indptr, indices, depths, rng):
    """One seeded random edge from every stray component into the source
    component; returns the ``(src, dst)`` arrays of the added edges.

    Components are discovered in increasing order of their smallest
    label, and each one's members are listed level by level in sorted
    order — the ``rng`` draws index into that list."""
    reached = depths >= 0
    source_comp = np.flatnonzero(reached)
    extra_src: list[int] = []
    extra_dst: list[int] = []
    visited = reached.copy()
    for v in np.flatnonzero(~reached).tolist():
        if visited[v]:
            continue
        # Collect v's whole component so later members are skipped.
        comp = [v]
        visited[v] = True
        frontier = np.array([v], dtype=np.int64)
        while frontier.size:
            nbrs = _gather_rows(indptr, indices, frontier)
            nbrs = np.unique(nbrs[~visited[nbrs]])
            visited[nbrs] = True
            comp.extend(nbrs.tolist())
            frontier = nbrs
        extra_src.append(comp[int(rng.integers(len(comp)))])
        extra_dst.append(int(source_comp[int(rng.integers(len(source_comp)))]))
    return (
        np.array(extra_src, dtype=np.int64),
        np.array(extra_dst, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Layered families (edge-for-edge equal to repro.topology.layered)
# ----------------------------------------------------------------------


def complete_layered_csr(
    layer_sizes: Sequence[int], relabel_seed: int | None = None, r: int | None = None
) -> CSRNetwork:
    """CSR counterpart of :func:`~repro.topology.layered.complete_layered`.

    Same layer structure, same ``relabel_seed`` permutation (the exact
    ``random.Random(relabel_seed).shuffle`` draw), so the generated
    network equals the networkx-path builder's node for node.
    """
    if not layer_sizes or layer_sizes[0] != 1:
        raise ConfigurationError("layer_sizes[0] must be 1 (the source layer)")
    if any(size < 1 for size in layer_sizes):
        raise ConfigurationError("every layer must be non-empty")
    n = int(sum(layer_sizes))
    labels = list(range(n))
    if relabel_seed is not None:
        shuffle_rng = random.Random(relabel_seed)
        tail = labels[1:]
        shuffle_rng.shuffle(tail)
        labels = [0, *tail]
    labels_arr = np.array(labels, dtype=np.int64)  # layer position -> label
    bounds = np.zeros(len(layer_sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(layer_sizes, dtype=np.int64), out=bounds[1:])
    num_layers = len(layer_sizes)

    depths = np.empty(n, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    neighbour_rows: list[np.ndarray] = []
    for j in range(num_layers):
        members = labels_arr[bounds[j]:bounds[j + 1]]
        depths[members] = j
        parts = []
        if j > 0:
            parts.append(labels_arr[bounds[j - 1]:bounds[j]])
        if j + 1 < num_layers:
            parts.append(labels_arr[bounds[j + 1]:bounds[j + 2]])
        row = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        neighbour_rows.append(row)
        deg[members] = row.size
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for j in range(num_layers):
        row = neighbour_rows[j]
        if row.size == 0:
            continue
        members = labels_arr[bounds[j]:bounds[j + 1]]
        starts = indptr[members]
        pos = (
            starts[:, None] + np.arange(row.size, dtype=np.int64)[None, :]
        ).ravel()
        indices[pos] = np.tile(row, members.size)
    return CSRNetwork(indptr, indices, r=r, depths=depths)


def uniform_complete_layered_csr(
    n: int, depth: int, relabel_seed: int | None = None
) -> CSRNetwork:
    """CSR counterpart of
    :func:`~repro.topology.layered.uniform_complete_layered` (same sizes)."""
    if depth < 1 or n < depth + 1:
        raise ConfigurationError(f"need n >= depth + 1, got n={n}, depth={depth}")
    base = (n - 1) // depth
    sizes = [1] + [base] * (depth - 1)
    sizes.append(n - sum(sizes))
    return complete_layered_csr(sizes, relabel_seed=relabel_seed)


def km_hard_layered_csr(n: int, depth: int, seed: int = 0) -> CSRNetwork:
    """CSR counterpart of :func:`~repro.topology.layered.km_hard_layered`.

    Reuses the exact layer-size draw sequence (``random.Random(seed)``)
    and relabel shuffle, so for any ``(n, depth, seed)`` the instance is
    the same hard network — only the representation differs.
    """
    if depth < 1 or n < depth + 1:
        raise ConfigurationError(f"need n >= depth + 1, got n={n}, depth={depth}")
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
    return complete_layered_csr(sizes, relabel_seed=seed)
