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

import bisect
from typing import Sequence

import numpy as np

from ..sim.channel import ragged_positions
from ..sim.errors import ConfigurationError
from ..sim.guard import check_edge_budget
from ..sim.network import RadioNetwork
from .layered import km_hard_layer_sizes, layer_order_labels, uniform_layer_sizes

__all__ = [
    "CSRNetwork",
    "gnp_random_csr",
    "complete_layered_csr",
    "uniform_complete_layered_csr",
    "km_hard_layered_csr",
]


_EMPTY = np.empty(0, dtype=np.int64)


def _bfs_depths(
    n: int, indptr: np.ndarray, indices: np.ndarray, source: int = 0
) -> np.ndarray:
    """BFS depths from ``source`` over symmetric CSR arrays; unreachable
    nodes keep depth -1."""
    depths = np.full(n, -1, dtype=np.int64)
    seed = np.array([source], dtype=np.int64)
    _bfs_fill(indptr, indices, depths, seed, [0], len(indices))
    return depths


def _bfs_fill(
    indptr: np.ndarray,
    indices: np.ndarray,
    depths: np.ndarray,
    seeds: np.ndarray,
    seed_depths: Sequence[int],
    unvisited_edges: int,
) -> int:
    """Level-synchronous BFS over symmetric CSR arrays, filling ``depths``
    in place; returns the row-length sum of the nodes left at -1.

    Nodes with ``depths >= 0`` on entry must have no neighbour at -1 (a
    finished BFS's reached set); they are left as they are.  The distinct
    ``seeds``, sorted by ``seed_depths``, join the frontier at their start
    depth unless reached earlier, so a reached node ends at the least
    start depth plus distance over all seeds.  ``unvisited_edges`` is the
    row-length sum of the nodes at -1 on entry.

    Each level runs in whichever direction gathers fewer entries:

    * top-down gathers the frontier's rows and deduplicates the unvisited
      neighbours in ``O(|frontier|)`` by a last-writer-wins ``owner``
      array instead of a sort (a node survives at the one slot that wrote
      it last);
    * bottom-up, once the frontier's rows outweigh the unvisited nodes'
      rows, gathers every unvisited node's own row — symmetric, so it
      lists the node's in-neighbours — and lets the node join if any
      entry sits at the current depth.

    A one-node frontier reads its row as a slice.  Frontiers come out
    unsorted, but depths depend only on the frontier *sets*, so the
    direction never changes a depth.
    """
    owner = np.empty(len(depths), dtype=np.int64)
    unvisited = None  # the nodes at -1, listed at the first bottom-up level
    num_seeds = len(seeds)
    next_seed = 0
    depth = int(seed_depths[0]) if num_seeds else 0
    frontier = _EMPTY
    while True:
        if next_seed < num_seeds and seed_depths[next_seed] == depth:
            end = bisect.bisect_right(seed_depths, depth, next_seed)
            joined = seeds[next_seed:end]
            joined = joined[depths[joined] < 0]
            depths[joined] = depth
            frontier = np.concatenate((frontier, joined))
            next_seed = end
        if not frontier.size:
            if next_seed == num_seeds:
                return unvisited_edges
            depth = int(seed_depths[next_seed])
            continue
        if frontier.size == 1:
            v = int(frontier[0])
            row = indices[indptr[v]:indptr[v + 1]]
            frontier_edges = row.size
        else:
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            frontier_edges = int(lengths.sum())
        unvisited_edges -= frontier_edges
        if frontier_edges > unvisited_edges:
            if unvisited is None:
                unvisited = np.flatnonzero(depths < 0)
            else:
                unvisited = unvisited[depths[unvisited] < 0]
            starts = indptr[unvisited]
            lengths = indptr[unvisited + 1] - starts
            nbrs = indices[ragged_positions(starts, lengths)]
            depths[np.repeat(unvisited, lengths)[depths[nbrs] == depth]] = depth + 1
            frontier = unvisited[depths[unvisited] > depth]
        elif frontier.size == 1:
            # One strictly increasing row (deep, thin graphs): nothing to
            # deduplicate and no gather.
            frontier = row[depths[row] < 0]
            depths[frontier] = depth + 1
        else:
            nbrs = indices[ragged_positions(starts, lengths, frontier_edges)]
            nbrs = nbrs[depths[nbrs] < 0]
            slots = np.arange(nbrs.size, dtype=np.int64)
            owner[nbrs] = slots
            frontier = nbrs[owner[nbrs] == slots]
            depths[frontier] = depth + 1
        depth += 1


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
            present iff ``(v, u)`` is).  Rows that are not symmetric,
            not strictly increasing, out of range or hold a self-loop are
            refused with a :class:`~repro.sim.errors.ConfigurationError`:
            the array engine reads a row as the node's in-neighbours,
            the per-node engines as its out-neighbours.
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
        _check_rows(indptr, indices)
        self._adopt(indptr, indices, r, depths, validate)

    @classmethod
    def _from_valid_rows(
        cls, indptr: np.ndarray, indices: np.ndarray, r: int | None, depths: np.ndarray
    ) -> "CSRNetwork":
        """Wrap ``int64`` arrays this module built in the canonical form by
        construction, skipping :func:`_check_rows`."""
        net = cls.__new__(cls)
        net._adopt(indptr, indices, r, depths, validate=True)
        return net

    def _adopt(self, indptr, indices, r, depths, validate) -> None:
        n = len(indptr) - 1
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


def _check_rows(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Refuse CSR arrays outside the canonical form the engines assume:
    ``n >= 1`` rows, each strictly increasing over ``[0, n)`` without its
    own node, and symmetric.

    Row-major keys ``row * n + col`` strictly increase iff every row is
    strictly increasing; the rows are symmetric iff the sorted transposed
    keys ``col * n + row`` equal them — one sort and one key comparison.
    """
    n = len(indptr) - 1
    if n < 1:
        raise ConfigurationError("CSRNetwork needs at least the source node")
    lengths = np.diff(indptr)
    if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices) or (lengths < 0).any():
        raise ConfigurationError("malformed CSR indptr")
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n):
        raise ConfigurationError(f"CSR neighbour label outside [0, {n})")
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    if (rows == indices).any():
        raise ConfigurationError("CSR rows hold a self-loop")
    keys = rows * n + indices
    if (keys[1:] <= keys[:-1]).any():
        raise ConfigurationError(
            "CSR rows must be strictly increasing (sorted, no repeated neighbour)"
        )
    transposed = indices * n + rows
    transposed.sort()
    if not np.array_equal(transposed, keys):
        u, v = divmod(int(np.setdiff1d(keys, transposed)[0]), n)
        raise ConfigurationError(
            f"CSR rows are not symmetric: {v} is in row {u} but {u} is not "
            f"in row {v}"
        )


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
    starts = indptr[rows]
    row_lengths = indptr[rows + 1] - starts
    entry = np.repeat(np.arange(cols.size, dtype=np.int64), row_lengths)
    smaller = indices[ragged_positions(starts, row_lengths)] < cols[entry]
    at = starts + np.bincount(entry[smaller], minlength=cols.size)
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
    """Map increasing linear pair positions to ``(i, j)`` with
    ``0 <= i < j < n``.

    Pairs are in lexicographic order: position 0 is ``(0, 1)``, the last
    is ``(n-2, n-1)``, and row ``i`` starts at ``f(i) = i(2n-1-i)/2``.
    Since ``pos`` is sorted (as :func:`_sample_pair_positions` returns
    it), one ``searchsorted`` of the ``n - 1`` row starts into it counts
    the positions of every row, and a ``repeat`` spreads the rows over
    them — integer arithmetic throughout, exact for every ``n``.
    """
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    row_start = rows * (2 * n - 1 - rows) // 2
    counts = np.diff(np.searchsorted(pos, row_start), append=pos.size)
    i = np.repeat(rows, counts)
    j = pos - np.repeat(row_start - rows - 1, counts)
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

    The expected edge count, ``p * n(n-1)/2``, is checked against the
    memory guard (:func:`~repro.sim.guard.check_edge_budget`) before any
    edge is drawn.
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
    check_edge_budget(round(p * num_pairs), f"G({n:,}, {p:g}), in expectation,")
    attempts = max_attempts if connect == "resample" else 1
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        pos = _sample_pair_positions(num_pairs, p, rng)
        indptr, indices = _csr_from_edges(n, *_decode_pair_positions(pos, n))
        depths = np.full(n, -1, dtype=np.int64)
        source = np.zeros(1, dtype=np.int64)
        stray_edges = _bfs_fill(indptr, indices, depths, source, [0], len(indices))
        if int(depths.min()) >= 0:
            return CSRNetwork._from_valid_rows(indptr, indices, r, depths)
        if connect == "augment":
            extra_src, extra_dst = _augment_to_connected(
                indptr, indices, depths, rng, stray_edges
            )
            # Each stray component hangs off the source component by its one
            # new edge (u, w): no reached depth changes, and a stray node
            # sits at depth[w] + 1 plus its distance from u in its own
            # component — one multi-source BFS over the old arrays.
            start = depths[extra_dst] + 1
            order = np.argsort(start, kind="stable")
            _bfs_fill(indptr, indices, depths, extra_src[order],
                      start[order].tolist(), stray_edges)
            indptr, indices = _insert_edges(n, indptr, indices, extra_src, extra_dst)
            return CSRNetwork._from_valid_rows(indptr, indices, r, depths)
    raise ConfigurationError(
        f"no connected G({n}, {p}) instance found in {max_attempts} attempts"
    )


def _augment_to_connected(indptr, indices, depths, rng, stray_edges):
    """One seeded random edge from every stray component into the source
    component; returns the ``(src, dst)`` arrays of the added edges.

    Components are taken in increasing order of their smallest label
    (their root), and each one's members are listed level by level in
    sorted order, by distance from the root; per component, one
    ``rng.integers(size)`` draw picks the member and one
    ``rng.integers(len(source component))`` draw the attachment point.
    All components are labelled at once: minimum-label propagation with
    pointer jumping finds each node's root, then one multi-source BFS
    from every root gives the levels.  ``stray_edges`` is the row-length
    sum of the nodes at depth -1.
    """
    stray = np.flatnonzero(depths < 0)
    source_comp = np.flatnonzero(depths >= 0)
    local = np.empty(len(depths), dtype=np.int64)
    local[stray] = np.arange(stray.size)
    starts = indptr[stray]
    lengths = indptr[stray + 1] - starts
    nbrs = local[indices[ragged_positions(starts, lengths)]]
    linked = lengths > 0
    firsts = (np.cumsum(lengths) - lengths)[linked]
    # root[i]: a member of stray[i]'s component, at most i (local order is
    # label order), and a pointer tree over the component.  Each round
    # hooks every tree root to the least root next to its members, then
    # jumps pointers until each points at its tree root.  The minimum
    # member never moves, so at the fixed point every member points at it.
    root = np.arange(stray.size)
    while True:
        low = root.copy()
        if firsts.size:
            np.minimum.at(
                low, root[linked], np.minimum.reduceat(root[nbrs], firsts)
            )
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped
        if np.array_equal(low, root):
            break
        root = low
    heads = np.flatnonzero(root == np.arange(stray.size))
    level = depths.copy()
    _bfs_fill(indptr, indices, level, stray[heads], [0] * heads.size, stray_edges)
    members = stray[np.lexsort((stray, level[stray], root))]
    sizes = np.bincount(root)[heads]
    bounds = np.empty(2 * heads.size, dtype=np.int64)
    bounds[0::2] = sizes
    bounds[1::2] = source_comp.size
    picks = _scalar_draws(rng, bounds)
    firsts = np.cumsum(sizes) - sizes
    return members[firsts + picks[0::2]], source_comp[picks[1::2]]


def _scalar_draws(rng, bounds: np.ndarray) -> np.ndarray:
    """``[rng.integers(b) for b in bounds]``, drawn the way that loop of
    scalar calls draws them, in fewer calls.

    Two properties of numpy's ``Generator.integers`` (pinned by
    ``tests/topology/test_csr.py``) make this exact: a bound of 1 returns
    0 without touching the stream, and ``rng.integers(b, size=k)`` draws
    what ``k`` scalar ``rng.integers(b)`` calls would.  So bound-1 draws
    are skipped and every run of equal bounds is one call.
    """
    out = np.zeros(bounds.size, dtype=np.int64)
    live = np.flatnonzero(bounds > 1)
    runs = bounds[live]
    cuts = [0, *(np.flatnonzero(np.diff(runs)) + 1).tolist(), runs.size]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo == 1:
            out[live[lo]] = rng.integers(int(runs[lo]))
        elif hi > lo:
            out[live[lo:hi]] = rng.integers(int(runs[lo]), size=hi - lo)
    return out


# ----------------------------------------------------------------------
# Layered families (edge-for-edge equal to repro.topology.layered)
# ----------------------------------------------------------------------


def complete_layered_csr(
    layer_sizes: Sequence[int], relabel_seed: int | None = None, r: int | None = None
) -> CSRNetwork:
    """CSR counterpart of :func:`~repro.topology.layered.complete_layered`.

    Same layer structure, same ``relabel_seed`` permutation (the exact
    ``random.Random(relabel_seed).shuffle`` draw), so the generated
    network equals the networkx-path builder's node for node.  The edge
    count, ``sum(sizes[j] * sizes[j + 1])``, is checked against the
    memory guard (:func:`~repro.sim.guard.check_edge_budget`) before
    anything is allocated.
    """
    if not layer_sizes or layer_sizes[0] != 1:
        raise ConfigurationError("layer_sizes[0] must be 1 (the source layer)")
    if any(size < 1 for size in layer_sizes):
        raise ConfigurationError("every layer must be non-empty")
    check_edge_budget(
        sum(int(a) * int(b) for a, b in zip(layer_sizes, layer_sizes[1:])),
        f"complete layered network of {int(sum(layer_sizes)):,} nodes in "
        f"{len(layer_sizes)} layers",
    )
    n = int(sum(layer_sizes))
    # layer position -> label
    labels_arr = np.array(layer_order_labels(n, relabel_seed), dtype=np.int64)
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
    return CSRNetwork._from_valid_rows(indptr, indices, r, depths)


def uniform_complete_layered_csr(
    n: int, depth: int, relabel_seed: int | None = None
) -> CSRNetwork:
    """CSR counterpart of
    :func:`~repro.topology.layered.uniform_complete_layered` (same sizes)."""
    return complete_layered_csr(uniform_layer_sizes(n, depth), relabel_seed=relabel_seed)


def km_hard_layered_csr(n: int, depth: int, seed: int = 0) -> CSRNetwork:
    """CSR counterpart of :func:`~repro.topology.layered.km_hard_layered`.

    Same layer-size draw (:func:`~repro.topology.layered.km_hard_layer_sizes`)
    and relabel shuffle, so for any ``(n, depth, seed)`` the instance is
    the same hard network — only the representation differs.
    """
    return complete_layered_csr(km_hard_layer_sizes(n, depth, seed), relabel_seed=seed)
