"""Centralized broadcast scheduling with full topology knowledge.

The centralized setting (Chlamtac–Weinstein; Gaber–Mansour) is the paper's
reference point for what knowledge is worth: with the whole graph known,
``O(D log^2 n)`` is achievable, while the ad hoc lower bounds of Sections
1.1 and 3 show distributed algorithms cannot get close on all graphs.

This module computes a collision-aware schedule offline with a greedy
set-cover heuristic and replays it as an oblivious transmission schedule:
in each slot, a set of informed transmitters is chosen to maximise the
number of uninformed nodes hearing *exactly one* transmitter.  The greedy
guarantees at least one new node per slot (pick a single transmitter
covering a frontier node), so it always completes within ``n`` slots, and
on most graphs it approaches BFS-depth-times-log behaviour — an empirical
near-lower-envelope for the benchmarks.
"""

from __future__ import annotations

import random

import numpy as np

from ..sim.errors import ConfigurationError
from ..sim.macro import label_set_plan, label_table
from ..sim.network import RadioNetwork
from ..sim.protocol import BroadcastAlgorithm, ObliviousTransmitter, Protocol

__all__ = ["CentralizedGreedySchedule", "greedy_broadcast_schedule"]


def greedy_broadcast_schedule(network: RadioNetwork) -> list[frozenset[int]]:
    """Compute a complete broadcast schedule for ``network``.

    A CSR-native network is read through ``to_radio_network()``.

    Returns:
        A list of transmitter sets, one per slot; replaying them under the
        exactly-one collision rule informs every node.
    """
    if hasattr(network, "to_radio_network"):
        network = network.to_radio_network()
    out = network.out_neighbors
    informed: set[int] = {network.source}
    schedule: list[frozenset[int]] = []
    total = network.n
    while len(informed) < total:
        transmitters = _greedy_slot(out, informed)
        newly = _resolve(out, informed, transmitters)
        if not newly:
            raise ConfigurationError(
                "greedy scheduler stalled; network may be disconnected"
            )
        schedule.append(frozenset(transmitters))
        informed |= newly
    return schedule


def _greedy_slot(out, informed: set[int]) -> set[int]:
    """Pick transmitters for one slot, maximising exactly-one coverage."""
    # Candidate transmitters: informed nodes with uninformed out-neighbours.
    frontier_hits: dict[int, set[int]] = {}
    for v in informed:
        targets = {w for w in out[v] if w not in informed}
        if targets:
            frontier_hits[v] = targets
    if not frontier_hits:
        raise ConfigurationError("no transmitter can reach an uninformed node")
    chosen: set[int] = set()
    # hit_count[w]: transmitting in-neighbours of w among `chosen`.
    hit_count: dict[int, int] = {}

    def gain(candidate: int) -> int:
        delta = 0
        for w in frontier_hits[candidate]:
            count = hit_count.get(w, 0)
            if count == 0:
                delta += 1
            elif count == 1:
                delta -= 1  # would turn a delivery into a collision
        return delta

    candidates = sorted(frontier_hits, key=lambda v: -len(frontier_hits[v]))
    improved = True
    while improved:
        improved = False
        best, best_gain = None, 0
        for v in candidates:
            if v in chosen:
                continue
            g = gain(v)
            if g > best_gain:
                best, best_gain = v, g
        if best is not None:
            chosen.add(best)
            for w in frontier_hits[best]:
                hit_count[w] = hit_count.get(w, 0) + 1
            improved = True
    if not chosen:  # fall back to a single transmitter (always gains >= 1)
        chosen.add(candidates[0])
    return chosen


def _resolve(out, informed: set[int], transmitters: set[int]) -> set[int]:
    """Nodes newly informed by the slot under the exactly-one rule."""
    hits: dict[int, int] = {}
    for v in transmitters:
        for w in out[v]:
            if w not in informed:
                hits[w] = hits.get(w, 0) + 1
    return {w for w, count in hits.items() if count == 1}


class _CentralizedProtocol(ObliviousTransmitter):
    def __init__(self, label: int, r: int, rng: random.Random, slots: list[bool]):
        super().__init__(label, r, rng)
        self._slots = slots

    def wants_to_transmit(self, step: int) -> bool:
        return step < len(self._slots) and self._slots[step]


class CentralizedGreedySchedule(BroadcastAlgorithm):
    """Replays an offline greedy schedule (full-knowledge reference).

    Args:
        network: Topology (a ``RadioNetwork`` or a ``CSRNetwork``); the
            schedule is computed at construction.
    """

    deterministic = True

    def __init__(self, network: RadioNetwork):
        self._schedule = greedy_broadcast_schedule(network)
        self.schedule_length = len(self._schedule)
        self.name = f"centralized-greedy(T={self.schedule_length})"
        # The schedule's rows plus one empty row: the silence past its end.
        self._members, self._offsets = label_table([*self._schedule, ()])

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        slots = [label in s for s in self._schedule]
        return _CentralizedProtocol(label, r, rng, slots)

    def macro_plan(self, start: int, count: int, r: int):
        """Macro-step form: the schedule's rows as label-set slots, then
        silence."""
        steps = start + np.arange(count, dtype=np.int64)
        rows = np.minimum(steps, self.schedule_length)
        return label_set_plan(start, self._members, self._offsets, rows)

    def max_steps_hint(self, n: int, r: int) -> int | None:
        return self.schedule_length + 1
