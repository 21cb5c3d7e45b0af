"""Precompiled radio-channel kernel shared by the non-reference engines.

Channel resolution — "how many transmitting in-neighbours does each node
have, and who was the unique one?" — is the inner loop of every engine.
The reference :class:`~repro.sim.engine.SynchronousEngine` resolves it
with per-edge dict updates, which is exact but costs a Python-level
operation per edge per slot.  This module compiles the topology once into
flat CSR arrays so the fast engines share one kernel:

* :class:`~repro.sim.event.EventDrivenEngine` calls :meth:`ChannelKernel.
  resolve` for slots whose transmitters' rows are too long to resolve in
  Python (a Decay phase start, say) — one row gather plus one
  ``np.bincount``.
* :class:`~repro.sim.macro.MacroStepEngine` gathers the transmitters'
  (or the sleepers') neighbour lists from the same CSR arrays directly,
  for one trial or a union of trials.

:func:`ragged_positions` is the one vectorised row gather every CSR
consumer shares: the macro engine, the label-set plans and the CSR
topology builders (:mod:`repro.topology.csr`).

Node *indices* are positions in the sorted label array
(:attr:`ChannelKernel.labels`).
"""

from __future__ import annotations

import numpy as np

from .network import RadioNetwork

__all__ = ["ChannelKernel"]


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
    """CSR neighbour lists + bincount hit counting for one topology.

    Attributes:
        network: The compiled topology.
        n: Number of nodes.
        labels: ``int64`` array of node labels in increasing order; index
            ``i`` everywhere below refers to ``labels[i]``.
        index: Inverse map ``label -> index``.
        indptr / indices: Flat CSR out-neighbour lists over indices:
            node ``i`` reaches ``indices[indptr[i]:indptr[i + 1]]``.
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
        # Written fresh on every resolve(); only entries with hits == 1
        # this slot are ever read, and those were written this slot.
        self._sender_buf = np.empty(self.n, dtype=np.int64)

    # -- transmitter-set resolution (the event engine's long-row slots) --

    def resolve(self, tx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one slot for a set of transmitters.

        Args:
            tx: ``int64`` array of transmitting node *indices*.

        Returns:
            ``(hits, sender_of, touched)``: ``hits[i]`` is the number of
            transmitting in-neighbours of node ``i``; ``sender_of[i]`` is
            the index of the transmitter heard at ``i``, valid exactly
            where ``hits[i] == 1`` (elsewhere it holds stale data);
            ``touched`` is the concatenation of the transmitters'
            neighbour lists, in ``tx`` order — every index with
            ``hits > 0``, appearing once per hit, so callers can restrict
            their scans to the reached part of the network instead of all
            ``n`` nodes.
        """
        starts = self.indptr[tx]
        lengths = self.indptr[tx + 1] - starts
        cat = self.indices[ragged_positions(starts, lengths)]
        sender_of = self._sender_buf
        sender_of[cat] = np.repeat(tx, lengths)
        hits = np.bincount(cat, minlength=self.n)
        return hits, sender_of, cat
