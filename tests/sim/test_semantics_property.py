"""Property test: the engine against a brute-force model oracle.

The whole reproduction rests on the engine implementing Section 1.3
exactly.  This test re-implements the semantics in the most naive way
possible (sets and loops, no optimisations) and checks, over random graphs
and random transmission scripts, that both produce identical wake times —
for the reference engine and the single-run array engine alike.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SynchronousEngine
from repro.sim.macro import MacroStepEngine, label_set_plan, label_table
from repro.sim.network import RadioNetwork
from repro.sim.protocol import BroadcastAlgorithm, ObliviousTransmitter


def _random_connected_graph(n: int, rng: random.Random) -> RadioNetwork:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]  # random tree
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return RadioNetwork.undirected(range(n), sorted(set(edges)))


class _ScriptedOblivious(ObliviousTransmitter):
    def __init__(self, label, r, rng, script):
        super().__init__(label, r, rng)
        self._script = script

    def wants_to_transmit(self, step):
        return (self.label, step) in self._script


class _ScriptedAlgorithm(BroadcastAlgorithm):
    deterministic = True
    name = "scripted-oblivious"

    def __init__(self, script: frozenset[tuple[int, int]]):
        self.script = script
        self._by_step: dict[int, set[int]] = {}
        for label, step in script:
            self._by_step.setdefault(step, set()).add(label)

    def create(self, label, r, rng):
        return _ScriptedOblivious(label, r, rng, self.script)

    def macro_plan(self, start, count, r):
        """The script as label-set slots: slot ``t`` lists ``{v : (v, t)
        in script}``, of which the awake labels transmit."""
        steps = range(start, start + count)
        members, offsets = label_table(self._by_step.get(t, ()) for t in steps)
        return label_set_plan(start, members, offsets)


def _brute_force_wake_times(
    net: RadioNetwork, script: frozenset[tuple[int, int]], horizon: int
) -> dict[int, int]:
    """Naive executable model of Section 1.3."""
    wake = {0: -1}
    for t in range(horizon):
        transmitters = {
            v for v in net.nodes if v in wake and wake[v] < t and (v, t) in script
        }
        for u in net.nodes:
            if u in wake or u in transmitters:
                continue
            hearing = [v for v in net.in_neighbors[u] if v in transmitters]
            if len(hearing) == 1:
                wake[u] = t
    return wake


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=10**9),
)
def test_engines_match_brute_force_oracle(n, seed):
    rng = random.Random(seed)
    net = _random_connected_graph(n, rng)
    horizon = 3 * n + 5
    script = frozenset(
        (v, t)
        for v in net.nodes
        for t in range(horizon)
        if rng.random() < 0.3
    )
    algorithm = _ScriptedAlgorithm(script)

    expected = _brute_force_wake_times(net, script, horizon)

    engine = SynchronousEngine(net, algorithm)
    engine.run(horizon, stop_when_informed=False)
    assert engine.wake_times == expected

    # The array engine stops once everyone is informed; wake times are
    # final from then on, so the horizon's tail changes nothing.
    macro = MacroStepEngine(net, algorithm)
    macro.run(horizon)
    assert macro.wake_times() == expected
