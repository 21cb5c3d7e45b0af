"""Layer-by-layer adversary for *oblivious* deterministic schedules.

The paper's Section 3 adversary handles arbitrary (adaptive) algorithms.
For the important special case of **oblivious** schedules — where node
``v``'s decision to transmit in slot ``t`` depends only on ``(v, t)`` and
its wake slot, never on message contents (round-robin, selective-family
schedules, and every fixed transmission matrix) — a much simpler adversary
in the style of Bruschi & Del Pinto's ``Omega(D log n)`` bound works:

build a complete layered network whose layers are *pairs*, chosen greedily
so that the schedule keeps both pair members transmitting together (or
both silent) for as long as possible after they wake.  While the pair is
unseparated, every slot collides at the next layer and the information
front is stuck; the first slot that schedules exactly one member is the
first possible hop.  The delay of layer ``j`` is therefore an exact,
schedule-derived quantity, and the broadcast time on the built network is
(at least) the sum of the per-layer delays.

The connection to selective families is the one the paper exploits: a
schedule that separates every pair within ``T`` slots of waking is an
``(n, 2)``-selective family of size ``T``, so ``T = Omega(log n)`` — each
pair layer buys ``Omega(log n)`` slots and ``D`` layers give
``Omega(D log n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.engine import SynchronousEngine
from ..sim.errors import ConfigurationError, SimulationError
from ..sim.fast import VectorizedAlgorithm
from ..sim.macro import plan_slot_mask
from ..sim.network import RadioNetwork
from ..sim.protocol import BroadcastAlgorithm

__all__ = ["ObliviousAdversaryResult", "ObliviousLayerAdversary", "verify_oblivious"]


@dataclass(frozen=True)
class ObliviousAdversaryResult:
    """Output of the oblivious-schedule adversary.

    Attributes:
        network: The constructed complete layered network (pair layers).
        algorithm_name: The schedule it was built against.
        layer_delays: Per pair-layer separation delay, in slots.
        predicted_floor: Sum of the delays — the earliest slot by which the
            last pair layer can possibly be informed.
        layers: The pair chosen for every layer, in order.
    """

    network: RadioNetwork
    algorithm_name: str
    layer_delays: tuple[int, ...]
    predicted_floor: int
    layers: tuple[tuple[int, ...], ...]


class ObliviousLayerAdversary:
    """Builds a pair-layer hard network for an oblivious schedule.

    Args:
        algorithm: A deterministic algorithm implementing the vectorised
            interface (its ``macro_plan`` *is* the schedule).
        n: Number of nodes; labels ``{0..n-1}``, ``r = n - 1``.
        depth: Number of pair layers to build (radius is ``depth + 1``
            including the final absorbing layer).
        candidate_pairs: How many candidate pairs to score per layer
            (greedy beam; the full quadratic scan is unnecessary).
        horizon: Scan limit when computing a pair's separation delay; a
            pair not separated within the horizon would stall the schedule
            forever, which is reported as an error (a correct broadcast
            schedule must separate every pair eventually).
    """

    def __init__(
        self,
        algorithm: BroadcastAlgorithm,
        n: int,
        depth: int,
        candidate_pairs: int = 128,
        horizon: int | None = None,
    ):
        if not algorithm.deterministic:
            raise ConfigurationError("the oblivious adversary needs a deterministic schedule")
        if not isinstance(algorithm, VectorizedAlgorithm):
            raise ConfigurationError(
                "the oblivious adversary reads the schedule through the "
                "vectorised interface; interactive protocols need the "
                "Section 3 adversary instead"
            )
        if depth < 1 or n < 2 * depth + 3:
            raise ConfigurationError(
                f"need n >= 2*depth + 3 (pairs + source + final layer), "
                f"got n={n}, depth={depth}"
            )
        self.algorithm = algorithm
        self.n = n
        self.r = n - 1
        self.depth = depth
        self.candidate_pairs = candidate_pairs
        self.horizon = horizon if horizon is not None else 8 * n + 64

    # ------------------------------------------------------------------

    def _schedule_matrix(
        self, labels: list[int], wake: int, start: int, end: int
    ) -> np.ndarray:
        """Schedule rows for several nodes all woken at ``wake``.

        The schedule's macro plans, one block of 64 slots at a time,
        evaluated slot by slot for every candidate at once — the
        schedules under attack are elementwise in the label, so batching
        does not change any row.  Deterministic schedules need no coins.
        """
        label_array = np.asarray(labels, dtype=np.int64)
        wakes = np.full(label_array.shape, wake, dtype=np.int64)
        matrix = np.zeros((len(labels), end - start), dtype=bool)
        prev = None
        for first in range(start, end, 64):
            plan = self.algorithm.macro_plan(first, min(64, end - first), self.r)
            for j in range(len(plan)):
                prev = matrix[:, first - start + j] = plan_slot_mask(
                    plan, j, label_array, wakes, prev=prev
                )
        return matrix

    def _transmits(self, label: int, wake: int, start: int, horizon: int) -> np.ndarray:
        """Boolean schedule row for one node woken at ``wake``."""
        return self._schedule_matrix([label], wake, start, horizon)[0]

    @staticmethod
    def _separation_delay_from_rows(row_a: np.ndarray, row_b: np.ndarray) -> int | None:
        """Offset of the first slot scheduling exactly one of the pair."""
        hits = np.flatnonzero(row_a ^ row_b)
        if hits.size == 0:
            return None
        return int(hits[0]) + 1

    # ------------------------------------------------------------------

    def build(self) -> ObliviousAdversaryResult:
        """Greedily choose the worst pair per layer and assemble the network."""
        pool = list(range(1, self.n))
        layers: list[tuple[int, ...]] = [(0,)]
        delays: list[int] = []

        # The source transmits on its own schedule; layer 1 wakes at the
        # source's first scheduled slot.
        source_row = self._transmits(0, -1, 0, self.horizon)
        first = np.flatnonzero(source_row)
        if first.size == 0:
            raise SimulationError(
                f"{self.algorithm.name}: the source never transmits"
            )
        wake = int(first[0])
        delays.append(wake + 1)  # slots until layer 1 is informed

        rng = np.random.default_rng(7)
        for _ in range(self.depth):
            candidates = self._candidate_pairs(pool, rng)
            involved = sorted({label for pair in candidates for label in pair})
            row_index = {label: i for i, label in enumerate(involved)}
            matrix = self._schedule_matrix(
                involved, wake, wake + 1, wake + 1 + self.horizon
            )
            best_pair, best_delay = None, -1
            for a, b in candidates:
                delay = self._separation_delay_from_rows(
                    matrix[row_index[a]], matrix[row_index[b]]
                )
                if delay is None:
                    raise SimulationError(
                        f"{self.algorithm.name}: pair ({a}, {b}) woken at "
                        f"{wake} is never separated within {self.horizon} "
                        f"slots — the schedule cannot broadcast on pair "
                        f"layers at all"
                    )
                if delay > best_delay:
                    best_pair, best_delay = (a, b), delay
            assert best_pair is not None
            layers.append(tuple(sorted(best_pair)))
            delays.append(best_delay)
            pool.remove(best_pair[0])
            pool.remove(best_pair[1])
            wake = wake + best_delay

        layers.append(tuple(sorted(pool)))  # absorbing final layer

        edges = [
            (u, v)
            for upper, lower in zip(layers, layers[1:])
            for u in upper
            for v in lower
        ]
        network = RadioNetwork.undirected(range(self.n), edges, r=self.r)
        return ObliviousAdversaryResult(
            network=network,
            algorithm_name=self.algorithm.name,
            layer_delays=tuple(delays),
            predicted_floor=sum(delays),
            layers=tuple(layers),
        )

    def _candidate_pairs(self, pool: list[int], rng: np.random.Generator):
        """A bounded sample of unordered pairs from the pool."""
        total_pairs = len(pool) * (len(pool) - 1) // 2
        if total_pairs <= self.candidate_pairs:
            return [
                (pool[i], pool[j])
                for i in range(len(pool))
                for j in range(i + 1, len(pool))
            ]
        seen: set[tuple[int, int]] = set()
        while len(seen) < self.candidate_pairs:
            a, b = rng.choice(len(pool), size=2, replace=False)
            pair = (pool[min(a, b)], pool[max(a, b)])
            seen.add(pair)
        return sorted(seen)


def verify_oblivious(
    result: ObliviousAdversaryResult, algorithm: BroadcastAlgorithm
) -> tuple[bool, int | None]:
    """Replay the schedule on the built network.

    Returns:
        ``(floor_respected, completion_time)`` — the real broadcast must
        not finish before the predicted floor (it informs the *last pair
        layer* no earlier than ``predicted_floor``; the absorbing layer
        adds more).
    """
    engine = SynchronousEngine(result.network, algorithm)
    limit = algorithm.max_steps_hint(result.network.n, result.network.r)
    if limit is None:
        limit = 64 * result.network.n * 16
    engine.run(limit)
    completion = engine.completion_time
    floor_respected = completion is None or completion >= result.predicted_floor
    return floor_respected, completion
