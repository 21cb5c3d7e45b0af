"""Precompiled radio-channel kernel shared by the non-reference engines.

Channel resolution — "which listeners have exactly one transmitting
in-neighbour, and who is it?" — is the inner loop of every engine.  The
reference :class:`~repro.sim.engine.SynchronousEngine` resolves it with
per-edge dict updates, which is exact but costs a Python-level operation
per edge per slot.  This module compiles the topology once into flat CSR
arrays, and :class:`ChannelKernel` is their only reader.  Over union
indices (node ``v`` of trial ``t`` is ``t * n + v``), it resolves a
transmitter set (:meth:`~ChannelKernel.resolve`: the event engine's
long-row slots and every transmitter-side slot of the macro engine),
tests which rows have a sleeping neighbour (the macro engine's frontier)
and gathers rows for the macro engine's receiver-side counting.

:func:`ragged_positions` is the one vectorised row gather every CSR
consumer shares: the kernel, the label-set plans and the CSR topology
builders (:mod:`repro.topology.csr`).

Node *indices* are positions in the sorted label array
(:attr:`ChannelKernel.labels`).
"""

from __future__ import annotations

import copy

import numpy as np

from .network import RadioNetwork

__all__ = ["ChannelKernel"]

#: Wake-row sentinel of a node that is not informed yet.
ASLEEP: int = np.iinfo(np.int64).max

_EMPTY = np.empty(0, dtype=np.int64)


def ragged_positions(
    starts: np.ndarray, lengths: np.ndarray, total: int | None = None
) -> np.ndarray:
    """Positions of the ranges ``starts[i] .. starts[i] + lengths[i]``,
    concatenated: ``values[ragged_positions(indptr[rows], lengths)]`` is
    the CSR rows ``rows`` of ``values``, one after another.

    ``total`` is ``lengths.sum()`` when the caller already has it.
    """
    if total is None:
        total = int(lengths.sum())
    cum = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) + np.repeat(starts - cum, lengths)


class _IdentityIndex:
    """Label -> index map for identity-labelled (CSR-native) networks.

    Behaves like the dict the kernel builds for a
    :class:`~repro.sim.network.RadioNetwork` — ``index[label] == label``
    for every valid label — without materialising n dict entries.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, label: int) -> int:
        i = int(label)
        if not 0 <= i < self.n:
            raise KeyError(label)
        return i

    def __contains__(self, label: int) -> bool:
        return 0 <= int(label) < self.n

    def get(self, label: int, default=None):
        i = int(label)
        return i if 0 <= i < self.n else default

    def __len__(self) -> int:
        return self.n


class ChannelKernel:
    """CSR neighbour lists and exactly-once resolution for one topology,
    over ``trials`` disjoint copies of it.

    Attributes:
        network: The compiled topology.
        n: Number of nodes.
        labels: ``int64`` array of node labels in increasing order; index
            ``i`` everywhere below refers to ``labels[i]``.
        index: Inverse map ``label -> index``.
        indptr / indices: Flat CSR out-neighbour lists over indices:
            node ``i`` reaches ``indices[indptr[i]:indptr[i + 1]]``.
        trials / size: Network copies (see :meth:`union`) and union
            indices (``trials * n``).
        avg_degree: Mean row length.
        symmetric: Whether rows are known to be in-neighbour lists too:
            only for CSR-native topologies, undirected by construction.
    """

    def __init__(self, network: RadioNetwork):
        self.network = network
        self.n = network.n
        csr = getattr(network, "csr_arrays", None)
        if csr is not None:
            # CSR-native topology (repro.topology.csr.CSRNetwork): labels
            # are the identity 0..n-1 and the arrays already follow this
            # kernel's convention — adopt them without copying.
            self.indptr, self.indices = csr()
            self.labels = np.arange(self.n, dtype=np.int64)
            self.index = _IdentityIndex(self.n)
        else:
            self.labels = np.array(network.nodes, dtype=np.int64)
            self.index = {
                int(label): i for i, label in enumerate(self.labels)
            }
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            cols: list[int] = []
            for i, label in enumerate(self.labels):
                nbrs = network.out_neighbors[int(label)]
                indptr[i + 1] = indptr[i] + len(nbrs)
                cols.extend(self.index[v] for v in nbrs)
            self.indptr = indptr
            self.indices = np.array(cols, dtype=np.int64)
        self.trials, self.size = 1, self.n
        self.avg_degree = self.indices.size / max(1, self.n)
        self.symmetric = csr is not None
        # Scratch flags over the union, all False between uses.
        self._flag = np.zeros(self.size, dtype=bool)

    def union(self, trials: int) -> ChannelKernel:
        """This kernel over ``trials`` disjoint copies of the network:
        union index ``t * n + v`` is node ``v`` of copy ``t``.  The copies
        share this kernel's CSR arrays; no edge joins two of them."""
        kernel = copy.copy(self)
        kernel.trials, kernel.size = trials, trials * self.n
        kernel._flag = np.zeros(kernel.size, dtype=bool)
        return kernel

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated neighbour rows of union indices ``rows``, as
        union indices, and each row's length.  The result may be a view of
        the CSR arrays: read it, do not write it."""
        indptr = self.indptr
        if rows.size == 1:
            u = int(rows[0])
            v = u % self.n
            cat = self.indices[indptr[v]:indptr[v + 1]]
            return (cat if u == v else cat + (u - v)), np.array([cat.size])
        nodes = rows if self.trials == 1 else rows % self.n
        starts = indptr[nodes]
        lengths = indptr[nodes + 1] - starts
        cat = self.indices[ragged_positions(starts, lengths)]
        if self.trials > 1:
            cat = cat + np.repeat(rows - nodes, lengths)
        return cat, lengths

    def resolve(
        self,
        tx: np.ndarray,
        collisions: bool = False,
        senders: bool = False,
        half_duplex: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one slot for a transmitter set.

        Returns ``(once, colliding, sent)`` for the union indices ``tx``:
        the receivers with exactly one transmitting in-neighbour, sorted
        — or, with ``senders``, in order of first occurrence along the
        transmitters' rows, with ``sent[i]`` the transmitter ``once[i]``
        hears — and, with ``collisions``, the sorted receivers with two
        or more.  With ``half_duplex`` transmitters are in neither list
        (callers that keep only sleepers skip that filter).  Arrays not
        asked for are empty.
        """
        cat, lengths = self.gather(tx)
        if not cat.size:
            return _EMPTY, _EMPTY, _EMPTY
        if cat.size >= self.size // 8:
            hits = np.bincount(cat, minlength=self.size)
            if half_duplex:
                hits[tx] = 0
            # Unique hearers first: once most of the network is awake the
            # exactly-once set is small, so callers' filters touch far
            # fewer than size entries.
            once = np.flatnonzero(hits == 1)
            colliding = np.flatnonzero(hits >= 2) if collisions else _EMPTY
        else:
            recv, cnt = np.unique(cat, return_counts=True)
            if half_duplex:
                is_tx = self._flag
                is_tx[tx] = True
                cnt[is_tx[recv]] = 0
                is_tx[tx] = False
            once = recv[cnt == 1]
            colliding = recv[cnt >= 2] if collisions else _EMPTY
        sent = _EMPTY
        if senders:
            # Each exactly-once receiver occurs once in ``cat``: its
            # position there names the row, hence the sender.
            flag = self._flag
            flag[once] = True
            pos = np.flatnonzero(flag[cat])
            flag[once] = False
            once = cat[pos]
            sent = tx[np.searchsorted(np.cumsum(lengths), pos, side="right")]
        return once, colliding, sent

    def sleeping_neighbours(self, rows: np.ndarray, wake: np.ndarray):
        """Which of the union indices ``rows`` have a neighbour with
        ``wake == ASLEEP``: returns ``(useful, cat, owner, asleep)`` —
        that test per row, the concatenated rows, each entry's position
        in ``rows`` and whether each entry is asleep."""
        cat, lengths = self.gather(rows)
        owner = np.repeat(np.arange(rows.size), lengths)
        asleep = wake[cat] == ASLEEP
        useful = np.zeros(rows.size, dtype=bool)
        useful[owner[asleep]] = True
        return useful, cat, owner, asleep

    @staticmethod
    def hear_once(rows: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Receiver-side resolution: the entries of ``rows`` that hear
        exactly one transmitter, where each entry of ``owners`` is the
        position in ``rows`` of one transmitting in-neighbour (a gathered
        row entry whose node transmits)."""
        return rows[np.bincount(owners, minlength=rows.size) == 1]
