"""The lower-bound network construction ``G_A`` (Section 3, Fig. 1-2).

Given any deterministic broadcasting algorithm ``A``, this module builds —
layer by layer, while simulating ``A`` on abstract histories — an n-node
network of radius ``Theta(D)`` on which ``A`` needs
``Omega(n log n / log(n/D))`` steps.  The construction is *executable*
proof: after building, :func:`verify_construction` replays the real
algorithm on the finished network and checks that the real transmitter
sets coincide with the abstract ones step by step (Lemma 9), and that the
last even-layer node stays silent for the predicted number of steps.

Shape of ``G_A`` (Fig. 1): even layers are singletons ``L_2i = {i}``; each
odd layer ``L_(2i+1)`` splits into ``L'`` (attached only to node ``i``)
and ``L*`` (attached to nodes ``i`` and ``i + 1``); the final layer
``L_D`` holds every remaining label, attached to all of ``L*_(D-1)``.

Stage ``s`` (building ``L_(2s+1)``) runs the paper's Fig. 2:

1.  Wait until node ``s`` first transmits (part 4 of the previous stage).
2.  Window of ``W = ceil(k log(n/4) / (8 log k))`` steps: every reservoir
    node virtually hears node ``s``; the Jamming function answers what
    node ``s`` hears back and shrinks its blocks.
3.  Choose the layer: ``X'`` takes two elements of every block except the
    largest (``p*``); ``X*`` is a subset of block ``p*`` witnessing that
    the window's transmission sets restricted to ``p*`` are *not* a
    selective family.  The choice is explicitly checked to model every
    jamming answer.
4.  Extend the graph, reset the histories of unchosen reservoir nodes.

The paper's asymptotic regime (``n^(3/4) < D <= n/16``, so ``n > 2^16``)
is far beyond interactive simulation; the same construction runs at any
``4 <= k`` and the model check plus Lemma-9 verification certify every
instance it produces (DESIGN.md, substitution notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..combinatorics.selective import find_nonselective_witness
from ..sim.errors import ConfigurationError, SimulationError
from ..sim.event import EventDrivenEngine
from ..sim.messages import Message
from ..sim.network import RadioNetwork
from ..sim.protocol import BroadcastAlgorithm
from .jamming import JammingState, SILENCE
from .oracle import AbstractHistoryOracle

__all__ = [
    "AdversaryError",
    "StageRecord",
    "AdversaryResult",
    "LowerBoundConstruction",
    "build_strongest",
    "verify_construction",
    "VerificationReport",
    "adversary_parameters",
]


class AdversaryError(SimulationError):
    """The construction could not proceed (stalled algorithm, no witness)."""


def adversary_parameters(n: int, d_target: int) -> tuple[int, int]:
    """The stage parameters ``(k, W)`` for an ``(n, D)`` construction.

    ``k = ceil(n / 4D)`` rounded up to an even value of at least 4, and
    ``W = ceil(k log2(n/4) / (8 log2 k))`` — the jamming window length.
    """
    if d_target < 4 or d_target % 2:
        raise ConfigurationError(f"D must be even and >= 4, got {d_target}")
    if n < 4 * d_target:
        raise ConfigurationError(
            f"need n >= 4 D for a non-trivial reservoir, got n={n}, D={d_target}"
        )
    k = math.ceil(n / (4 * d_target))
    k = max(4, k + (k % 2))
    window = math.ceil(k * math.log2(n / 4) / (8 * math.log2(k)))
    return k, max(1, window)


@dataclass(frozen=True)
class StageRecord:
    """Everything stage ``s`` produced.

    Attributes:
        index: The stage number ``s`` (builds layer ``2s + 1``).
        window_start: Step of node ``s``'s first transmission.
        layer_prime: The labels of ``L'_(2s+1)`` (attached to ``s`` only).
        layer_star: The labels of ``L*_(2s+1)`` (attached to ``s`` and
            ``s + 1``).
        y_sets: The reservoir transmission sets ``Y_l`` over the window.
        answers: The jamming answer kinds, parallel to ``y_sets``.
    """

    index: int
    window_start: int
    layer_prime: tuple[int, ...]
    layer_star: tuple[int, ...]
    y_sets: tuple[frozenset[int], ...]
    answers: tuple[str, ...]


@dataclass(frozen=True)
class AdversaryResult:
    """Output of one construction run.

    Attributes:
        network: The finished network ``G_A``.
        algorithm_name: Which algorithm was attacked.
        n: Number of nodes.
        d_target: The radius parameter D handed to the construction
            (``network.radius == d_target``).
        k: Stage parameter.
        window: Window length W.
        stages: Per-stage records, in order.
        final_layer: The labels of ``L_D``.
        abstract_transmitters: step -> labels transmitting in the abstract
            execution (the Lemma 9 reference data).
        horizon: Number of abstract steps constructed; real and abstract
            histories are claimed equal on ``[0, horizon)``.
        silence_floor: The provable silence bound: node ``D/2 - 1``
            transmits no earlier than this step, hence broadcasting takes
            longer (Theorem 2's quantity ``(D/2 - 1) W`` up to the
            startup offset).
    """

    network: RadioNetwork
    algorithm_name: str
    n: int
    d_target: int
    k: int
    window: int
    stages: tuple[StageRecord, ...]
    final_layer: tuple[int, ...]
    abstract_transmitters: dict[int, frozenset[int]] = field(repr=False)
    horizon: int = 0
    silence_floor: int = 0

    def describe(self) -> str:
        return (
            f"G_A vs {self.algorithm_name}: n={self.n}, D={self.d_target}, "
            f"k={self.k}, W={self.window}, horizon={self.horizon}, "
            f"silence_floor={self.silence_floor}"
        )


class LowerBoundConstruction:
    """Builds ``G_A`` against one deterministic algorithm.

    Args:
        algorithm: The algorithm to attack.  Must be deterministic and its
            protocols pure functions of ``(label, r, observations)``.
        n: Number of nodes; labels are ``{0, ..., n-1}`` and ``r = n - 1``.
        d_target: Desired radius D (even, >= 4; the paper analyses
            ``D <= n/16``).
        max_wait_steps: Abort threshold for part 4 (a correct algorithm
            must eventually advance the token of information; hitting this
            limit means the algorithm never completes on ``G_A`` at all).
        window_override: Use this jamming-window length instead of the
            paper's ``ceil(k log(n/4) / (8 log k))``.  The paper's value is
            the largest for which witness *existence is provable*; in
            practice the witness search often succeeds for much longer
            windows, yielding empirically stronger silence floors (see
            :func:`build_strongest`).  Every build is still certified by
            the explicit model check and the Lemma 9 replay.
    """

    def __init__(
        self,
        algorithm: BroadcastAlgorithm,
        n: int,
        d_target: int,
        max_wait_steps: int | None = None,
        window_override: int | None = None,
    ):
        self.algorithm = algorithm
        self.n = n
        self.d_target = d_target
        self.r = n - 1
        self.k, self.window = adversary_parameters(n, d_target)
        if window_override is not None:
            if window_override < 1:
                raise ConfigurationError(
                    f"window_override must be positive, got {window_override}"
                )
            self.window = window_override
        self.max_wait_steps = (
            max_wait_steps
            if max_wait_steps is not None
            else 64 * n * max(4, n.bit_length()) + 16 * n
        )

    # ------------------------------------------------------------------

    def build(self) -> AdversaryResult:
        """Run the full construction and return the finished network."""
        num_stages = self.d_target // 2
        evens = list(range(num_stages))
        reservoir: set[int] = set(range(num_stages, self.n))
        adjacency: dict[int, set[int]] = {v: set() for v in range(self.n)}
        oracle = AbstractHistoryOracle(self.algorithm, self.r)
        oracle.wake(0, -1, None)

        abstract_tx: dict[int, frozenset[int]] = {}
        stages: list[StageRecord] = []
        prev_star: tuple[int, ...] = ()
        step = 0

        for s in range(num_stages):
            # ---- part 4 of the previous stage: wait for node s ----------
            waited = 0
            while True:
                actions = oracle.query_actions(step)
                if s in actions:
                    break
                deliveries = self._radio(adjacency, actions)
                abstract_tx[step] = frozenset(actions)
                oracle.finish_step(step, deliveries)
                step += 1
                waited += 1
                if waited > self.max_wait_steps:
                    raise AdversaryError(
                        f"stage {s}: node {s} did not transmit within "
                        f"{self.max_wait_steps} steps — {self.algorithm.name} "
                        f"stalls and never completes broadcasting on G_A"
                    )
            window_start = step

            # ---- part 2: the jamming window ------------------------------
            jamming = JammingState(reservoir, self.k)
            for l in range(self.window):
                actions = oracle.query_actions(step)
                y = frozenset(v for v in actions if v in reservoir)
                answer = jamming.step(y)
                deliveries = self._radio(adjacency, actions, exclude={s})
                if s in actions:
                    message_s = Message(sender=s, payload=actions[s])
                    for v in reservoir:
                        if v not in actions:
                            deliveries[v] = message_s
                else:
                    star_tx = [w for w in prev_star if w in actions]
                    if answer is SILENCE and len(star_tx) == 1:
                        w = star_tx[0]
                        deliveries[s] = Message(sender=w, payload=actions[w])
                    elif answer.kind == "single" and not star_tx:
                        v = answer.node
                        deliveries[s] = Message(sender=v, payload=actions[v])
                abstract_tx[step] = frozenset(actions)
                oracle.finish_step(step, deliveries)
                step += 1

            # ---- part 3: choose the layer ---------------------------------
            layer_prime, layer_star = self._choose_layer(jamming)
            chosen = set(layer_prime) | set(layer_star)
            if not jamming.models(chosen):
                problems = jamming.violation_report(chosen)
                raise AdversaryError(
                    f"stage {s}: chosen layer fails to model the jamming "
                    f"answers: {problems[:5]}"
                )
            # Prune unchosen reservoir transmitters out of the recorded
            # window steps (their real histories are empty there).
            ghost = reservoir - chosen
            for t in range(window_start, step):
                abstract_tx[t] = abstract_tx[t] - ghost
            oracle.reset_nodes(
                [v for v in ghost if oracle.awake(v)]
            )
            reservoir -= chosen

            # ---- extend the graph -----------------------------------------
            for x in chosen:
                adjacency[s].add(x)
                adjacency[x].add(s)
            if s + 1 < num_stages:
                for x in layer_star:
                    adjacency[x].add(s + 1)
                    adjacency[s + 1].add(x)
            stages.append(
                StageRecord(
                    index=s,
                    window_start=window_start,
                    layer_prime=layer_prime,
                    layer_star=layer_star,
                    y_sets=tuple(y for y, _ in jamming.history),
                    answers=tuple(a.kind for _, a in jamming.history),
                )
            )
            prev_star = layer_star

        # ---- final layer L_D ------------------------------------------------
        final_layer = tuple(sorted(reservoir))
        if not final_layer:
            raise AdversaryError(
                f"no labels left for the final layer; n={self.n} too small "
                f"for D={self.d_target} (k={self.k})"
            )
        for x in final_layer:
            for w in prev_star:
                adjacency[x].add(w)
                adjacency[w].add(x)

        edges = [
            (u, v) for u, nbrs in adjacency.items() for v in nbrs if u < v
        ]
        network = RadioNetwork.undirected(range(self.n), edges, r=self.r)
        silence_floor = stages[-1].window_start
        return AdversaryResult(
            network=network,
            algorithm_name=self.algorithm.name,
            n=self.n,
            d_target=self.d_target,
            k=self.k,
            window=self.window,
            stages=tuple(stages),
            final_layer=final_layer,
            abstract_transmitters=abstract_tx,
            horizon=step,
            silence_floor=silence_floor,
        )

    # ------------------------------------------------------------------

    def _choose_layer(self, jamming: JammingState) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Part 3 of Fig. 2: pick ``X'`` and the non-selectivity witness ``X*``."""
        p_star = jamming.largest_block()
        prime: list[int] = []
        for p, block in enumerate(jamming.blocks):
            if p == p_star:
                continue
            if len(block) < 2:
                raise AdversaryError(
                    f"block {p} shrank below two elements; cannot form X'"
                )
            prime.extend(sorted(block)[:2])
        ground = jamming.blocks[p_star]
        family = [y & ground for y, _ in jamming.history]
        witness = find_nonselective_witness(family, ground, self.k)
        if witness is None:
            raise AdversaryError(
                f"no non-selectivity witness found in block {p_star} "
                f"(|ground|={len(ground)}, window={len(family)}, k={self.k}); "
                f"the parameters sit outside the searchable regime — "
                f"decrease D or increase n"
            )
        return tuple(sorted(prime)), tuple(sorted(witness))

    @staticmethod
    def _radio(
        adjacency: dict[int, set[int]],
        actions: dict[int, object],
        exclude: set[int] | None = None,
    ) -> dict[int, Message]:
        """Radio semantics over the already-built part of the graph."""
        hits: dict[int, int] = {}
        incoming: dict[int, Message] = {}
        for sender, payload in actions.items():
            for receiver in adjacency.get(sender, ()):
                hits[receiver] = hits.get(receiver, 0) + 1
                incoming[receiver] = Message(sender=sender, payload=payload)
        deliveries: dict[int, Message] = {}
        for receiver, count in hits.items():
            if count != 1 or receiver in actions:
                continue
            if exclude and receiver in exclude:
                continue
            deliveries[receiver] = incoming[receiver]
        return deliveries


def build_strongest(
    algorithm_factory,
    n: int,
    d_target: int,
    max_doublings: int = 6,
) -> AdversaryResult:
    """Build ``G_A`` with the longest jamming window the search can certify.

    Starting from the paper's provable window, keep doubling it while the
    construction still succeeds (i.e. a non-selectivity witness exists at
    every stage and the layer choice models all jamming answers).  Longer
    windows jam the algorithm for more steps per layer, so the returned
    instance has the strongest empirical silence floor this adversary can
    certify at these parameters.

    Args:
        algorithm_factory: Zero-argument callable producing fresh instances
            of the deterministic algorithm under attack.
        n: Number of nodes.
        d_target: Target radius D.
        max_doublings: Cap on how many doublings to attempt.

    Returns:
        The :class:`AdversaryResult` of the longest successful window.
    """
    base = LowerBoundConstruction(algorithm_factory(), n, d_target)
    best = base.build()
    window = base.window
    for _ in range(max_doublings):
        window *= 2
        try:
            candidate = LowerBoundConstruction(
                algorithm_factory(), n, d_target, window_override=window
            ).build()
        except AdversaryError:
            break
        best = candidate
    return best


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying the real algorithm on ``G_A`` (Lemma 9 check).

    Attributes:
        histories_match: True when real per-step transmitter sets equal the
            abstract ones on the whole constructed horizon.
        first_mismatch: Step of the first discrepancy, or None.
        real_completion_time: Broadcast time of the real run (None if the
            step limit was hit first).
        silence_floor: The construction's predicted silence bound.
        silence_respected: Node ``D/2 - 1`` indeed stayed silent before
            ``silence_floor`` in the real run.
    """

    histories_match: bool
    first_mismatch: int | None
    real_completion_time: int | None
    silence_floor: int
    silence_respected: bool


def verify_construction(
    result: AdversaryResult,
    algorithm: BroadcastAlgorithm,
    completion_step_limit: int | None = None,
) -> VerificationReport:
    """Replay ``algorithm`` on ``G_A`` and compare against the abstract run.

    This is the executable Lemma 9: it certifies that the constructed
    network really forces the recorded behaviour, and measures the actual
    broadcasting time the adversary achieved.

    The replay runs on the event engine, which polls only the nodes whose
    idle hint expired and returns each slot's exact transmitter set; once
    node ``D/2 - 1`` has transmitted, the rest of the run jumps over its
    silent slots.
    """
    engine = EventDrivenEngine(result.network, algorithm)
    first_mismatch: int | None = None
    last_even = result.d_target // 2 - 1
    first_tx_last_even: int | None = None
    for t in range(result.horizon):
        transmitters = engine.run_step()
        if first_tx_last_even is None and last_even in transmitters:
            first_tx_last_even = t
        expected = result.abstract_transmitters.get(t, frozenset())
        if first_mismatch is None and frozenset(transmitters) != expected:
            first_mismatch = t
    if completion_step_limit is None:
        hint = algorithm.max_steps_hint(result.n, result.n - 1)
        completion_step_limit = hint if hint is not None else 128 * result.n * 16
    while first_tx_last_even is None and (
        engine.step < completion_step_limit and not engine.all_informed
    ):
        if last_even in engine.run_step():
            first_tx_last_even = engine.step - 1
    if engine.step < completion_step_limit:
        engine.run(completion_step_limit - engine.step)
    return VerificationReport(
        histories_match=first_mismatch is None,
        first_mismatch=first_mismatch,
        real_completion_time=engine.completion_time,
        silence_floor=result.silence_floor,
        silence_respected=(
            first_tx_last_even is None or first_tx_last_even >= result.silence_floor
        ),
    )
