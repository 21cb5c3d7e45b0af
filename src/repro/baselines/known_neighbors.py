"""Linear-time DFS broadcast when nodes know their neighbourhoods.

Section 1.1: under the stronger scenario of Bar-Yehuda, Goldreich and Itai
— each node knows the labels of its neighbours — "a simple linear-time
broadcasting algorithm based on DFS follows from [Awerbuch 1985]".  This
baseline implements it: the token carries the set of visited nodes, the
holder picks its lowest-labelled unvisited neighbour directly (no Echo
needed — the holder *knows* who its neighbours are), and each token move
costs exactly one slot, for at most ``2 (n - 1) + 1`` slots total.

It quantifies what the ad hoc assumption costs: E4 contrasts its ``O(n)``
against Select-and-Send's ``O(n log n)`` on identical topologies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..sim.errors import ProtocolViolationError
from ..sim.messages import Message
from ..sim.network import RadioNetwork
from ..sim.protocol import BroadcastAlgorithm, Protocol

__all__ = ["KnownNeighborsDFS"]


@dataclass(frozen=True, slots=True)
class _DfsToken:
    """The token: destination plus the DFS bookkeeping it carries."""

    to: int
    visited: frozenset[int]
    stack: tuple[int, ...]  # DFS ancestry, topmost last


class _KnownNeighborsProtocol(Protocol):
    def __init__(self, label: int, r: int, rng: random.Random, neighbors: tuple[int, ...]):
        super().__init__(label, r, rng)
        self._neighbors = neighbors
        self._pending: tuple[int, Any] | None = None  # (slot, payload)

    def on_wake(self, step: int, message: Message | None) -> None:
        if message is None:  # the source starts holding the token
            self._take_token(
                step,
                _DfsToken(to=self.label, visited=frozenset([self.label]), stack=()),
            )
        else:
            self._handle(step, message)

    def next_action(self, step: int) -> Any | None:
        if self._pending is not None and self._pending[0] == step:
            payload = self._pending[1]
            self._pending = None
            return payload
        return None

    def observe(self, step: int, message: Message | None) -> None:
        if message is not None:
            self._handle(step, message)

    def _handle(self, step: int, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, _DfsToken):
            raise ProtocolViolationError(f"unexpected payload {payload!r}")
        if payload.to == self.label:
            self._take_token(step, payload)

    def _take_token(self, step: int, token: _DfsToken) -> None:
        """Forward the token to the next DFS target in the next slot."""
        visited = token.visited | {self.label}
        unvisited = [w for w in self._neighbors if w not in visited]
        if unvisited:
            target = min(unvisited)
            next_token = _DfsToken(
                to=target, visited=visited, stack=token.stack + (self.label,)
            )
        elif token.stack:
            next_token = _DfsToken(
                to=token.stack[-1], visited=visited, stack=token.stack[:-1]
            )
        else:
            return  # DFS complete at the source
        self._pending = (step + 1, next_token)


class KnownNeighborsDFS(BroadcastAlgorithm):
    """O(n) DFS token broadcast under the known-neighbourhood model.

    Note: this algorithm lives in a *stronger* knowledge model than the
    paper's ad hoc setting — it is constructed with the topology so each
    protocol can be given its neighbour list, standing in for the
    "knows its neighbourhood" assumption of [3].

    Args:
        network: The topology the broadcast will run on (a
            ``RadioNetwork`` or a ``CSRNetwork``).
    """

    deterministic = True

    def __init__(self, network: RadioNetwork):
        if hasattr(network, "to_radio_network"):
            network = network.to_radio_network()
        self._neighbors = {v: tuple(network.out_neighbors[v]) for v in network.nodes}
        self.name = "dfs-known-neighbors"

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _KnownNeighborsProtocol(label, r, rng, self._neighbors[label])

    def max_steps_hint(self, n: int, r: int) -> int | None:
        return 2 * n + 4
