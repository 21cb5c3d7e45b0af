"""Oblivious-schedule layer adversary (Bruschi–Del Pinto style)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.oblivious import ObliviousLayerAdversary, verify_oblivious
from repro.baselines import BGIBroadcast, RoundRobinBroadcast, SelectiveFamilyBroadcast
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.macro import label_set_plan


def test_rejects_randomized():
    with pytest.raises(ConfigurationError, match="deterministic"):
        ObliviousLayerAdversary(BGIBroadcast(63), 64, 4)


def test_rejects_interactive_protocols():
    from repro.core import SelectAndSend

    with pytest.raises(ConfigurationError, match="vectorised"):
        ObliviousLayerAdversary(SelectAndSend(), 64, 4)


def test_rejects_too_small_n():
    with pytest.raises(ConfigurationError, match="n >= 2"):
        ObliviousLayerAdversary(RoundRobinBroadcast(7), 8, 4)


def test_structure_pair_layers():
    result = ObliviousLayerAdversary(RoundRobinBroadcast(63), 64, 5).build()
    net = result.network
    assert net.is_complete_layered()
    assert net.radius == 6  # 5 pair layers + the absorbing final layer
    layers = net.layers()
    assert layers[0] == (0,)
    for j in range(1, 6):
        assert len(layers[j]) == 2
    assert len(result.layer_delays) == 6  # source hop + 5 pair layers


def test_floor_is_tight_for_round_robin():
    result = ObliviousLayerAdversary(RoundRobinBroadcast(127), 128, 6).build()
    ok, completion = verify_oblivious(result, RoundRobinBroadcast(127))
    assert ok
    # Last pair layer informed exactly at the predicted floor; the
    # absorbing layer needs at least one more lone transmission.
    assert completion >= result.predicted_floor


def test_floor_is_tight_for_selective_schedule():
    algo = SelectiveFamilyBroadcast(127, "random", max_scale=8, seed=4)
    result = ObliviousLayerAdversary(algo, 128, 6).build()
    ok, completion = verify_oblivious(
        result, SelectiveFamilyBroadcast(127, "random", max_scale=8, seed=4)
    )
    assert ok and completion >= result.predicted_floor


def test_round_robin_pays_theta_r_per_layer():
    """RR is an (n, 2)-selective family of size r+1: delays ~ r, not log n."""
    result = ObliviousLayerAdversary(RoundRobinBroadcast(255), 256, 6).build()
    pair_delays = result.layer_delays[1:]
    assert min(pair_delays) > 256 // 2


def test_selective_schedule_much_cheaper_per_layer():
    algo = SelectiveFamilyBroadcast(255, "random", max_scale=16, seed=1)
    result = ObliviousLayerAdversary(algo, 256, 6).build()
    rr = ObliviousLayerAdversary(RoundRobinBroadcast(255), 256, 6).build()
    assert result.predicted_floor < rr.predicted_floor


def test_never_separating_schedule_detected():
    class AllwaysAll:
        """Pathological schedule: everyone transmits every slot."""

        name = "always-all"
        deterministic = True

        def macro_plan(self, start, count, r):
            everyone = np.arange(r + 1)
            return label_set_plan(
                start, np.tile(everyone, count), everyone.size * np.arange(count + 1)
            )

        def create(self, label, r, rng):  # pragma: no cover - not used
            raise NotImplementedError

        def max_steps_hint(self, n, r):
            return 10

    adversary = ObliviousLayerAdversary(AllwaysAll(), 64, 3, horizon=100)
    with pytest.raises(SimulationError, match="never separated"):
        adversary.build()


def test_pairs_are_disjoint_across_layers():
    result = ObliviousLayerAdversary(RoundRobinBroadcast(63), 64, 5).build()
    seen: set[int] = set()
    for layer in result.layers:
        assert not (set(layer) & seen)
        seen |= set(layer)
    assert seen == set(range(64))


#: E11's adversary output, pinned: ``(pair layers, layer_delays,
#: predicted_floor)`` per schedule of ``_schedules(128)`` at depth 6, and
#: a Kautz–Singleton family at ``(64, 4)``.  The absorbing final layer is
#: every label left over.
E11_PINS = {
    "round-robin": (
        ((116, 127), (103, 114), (95, 98), (85, 86), (76, 81), (66, 71)),
        (1, 116, 115, 120, 118, 119, 118),
        707,
    ),
    "selective-family": (
        ((78, 120), (13, 74), (10, 17), (19, 42), (34, 107), (16, 95)),
        (1, 72, 10, 10, 41, 8, 5),
        147,
    ),
    "kautz-singleton": (
        ((3, 28), (6, 17), (39, 44), (4, 49)),
        (1, 12, 11, 13, 11),
        48,
    ),
}


@pytest.mark.parametrize("name", sorted(E11_PINS))
def test_e11_adversary_output_is_pinned(name):
    from repro.experiments.e11_oblivious_adversary import _schedules

    if name == "kautz-singleton":
        n, depth = 64, 4
        algo = SelectiveFamilyBroadcast(n - 1, "kautz-singleton", max_scale=4)
    else:
        n, depth = 128, 6
        algo = _schedules(n)[name]()
    result = ObliviousLayerAdversary(algo, n, depth).build()
    pairs, delays, floor = E11_PINS[name]
    used = {0}.union(*map(set, pairs))
    assert result.layers == ((0,), *pairs, tuple(sorted(set(range(n)) - used)))
    assert result.layer_delays == delays
    assert result.predicted_floor == floor
