"""The full G_A construction (Theorem 2) and its Lemma 9 verification."""

from __future__ import annotations

import math

import pytest

from repro.adversary.construction import (
    AdversaryError,
    LowerBoundConstruction,
    adversary_parameters,
    verify_construction,
)
from repro.baselines.round_robin import RoundRobinBroadcast
from repro.baselines.selective_schedule import SelectiveFamilyBroadcast
from repro.core.select_and_send import SelectAndSend
from repro.sim.errors import ConfigurationError


def test_parameters_match_paper_formulas():
    k, w = adversary_parameters(1024, 8)
    assert k == 32
    assert w == math.ceil(32 * math.log2(256) / (8 * math.log2(32)))


def test_parameters_validation():
    with pytest.raises(ConfigurationError):
        adversary_parameters(100, 7)  # odd D
    with pytest.raises(ConfigurationError):
        adversary_parameters(100, 2)  # too small
    with pytest.raises(ConfigurationError):
        adversary_parameters(10, 4)  # n < 4D


def build_and_verify(algo_factory, n, d):
    construction = LowerBoundConstruction(algo_factory(), n, d)
    result = construction.build()
    report = verify_construction(result, algo_factory())
    return construction, result, report


def test_structure_of_ga_round_robin():
    construction, result, report = build_and_verify(
        lambda: RoundRobinBroadcast(255), 256, 8
    )
    net = result.network
    assert net.n == 256
    assert net.radius == 8
    layers = net.layers()
    # Even layers are the predetermined singletons 0..D/2-1.
    for s in range(4):
        assert layers[2 * s] == (s,)
    # Odd layers match the stage records.
    for stage in result.stages:
        expected = tuple(sorted(set(stage.layer_prime) | set(stage.layer_star)))
        assert layers[2 * stage.index + 1] == expected
    # Final layer attached to the last L*.
    assert layers[8] == result.final_layer
    for x in result.final_layer:
        assert set(net.out_neighbors[x]) == set(result.stages[-1].layer_star)


def test_edges_follow_fig1_pattern():
    _, result, _ = build_and_verify(lambda: RoundRobinBroadcast(255), 256, 8)
    net = result.network
    for stage in result.stages:
        s = stage.index
        for x in stage.layer_prime:
            assert set(net.out_neighbors[x]) == {s}, "L' attaches to i only"
        if s + 1 < len(result.stages):
            for x in stage.layer_star:
                assert set(net.out_neighbors[x]) == {s, s + 1}


def test_lemma9_equivalence_round_robin():
    _, _, report = build_and_verify(lambda: RoundRobinBroadcast(255), 256, 8)
    assert report.histories_match
    assert report.first_mismatch is None
    assert report.silence_respected
    assert report.real_completion_time is not None


def test_lemma9_equivalence_select_and_send():
    _, _, report = build_and_verify(SelectAndSend, 256, 8)
    assert report.histories_match
    assert report.silence_respected


def test_lemma9_equivalence_selective_family():
    _, _, report = build_and_verify(
        lambda: SelectiveFamilyBroadcast(255, "random", max_scale=16, seed=2), 256, 8
    )
    assert report.histories_match
    assert report.silence_respected


def test_real_time_exceeds_silence_floor():
    for factory in [lambda: RoundRobinBroadcast(255), SelectAndSend]:
        _, result, report = build_and_verify(factory, 256, 8)
        assert report.real_completion_time > result.silence_floor


def test_layer_sizes_respect_k():
    construction, result, _ = build_and_verify(lambda: RoundRobinBroadcast(255), 256, 8)
    for stage in result.stages:
        assert len(stage.layer_prime) == construction.k - 2
        assert 1 <= len(stage.layer_star) <= construction.k


def test_window_has_recorded_y_sets():
    construction, result, _ = build_and_verify(lambda: RoundRobinBroadcast(255), 256, 8)
    for stage in result.stages:
        assert len(stage.y_sets) == construction.window
        assert len(stage.answers) == construction.window


def test_different_algorithms_get_different_networks():
    _, result_rr, _ = build_and_verify(lambda: RoundRobinBroadcast(255), 256, 8)
    _, result_ss, _ = build_and_verify(SelectAndSend, 256, 8)
    assert (
        result_rr.network.out_neighbors != result_ss.network.out_neighbors
        or result_rr.horizon != result_ss.horizon
    )


def test_describe_mentions_parameters():
    _, result, _ = build_and_verify(lambda: RoundRobinBroadcast(255), 256, 8)
    text = result.describe()
    assert "n=256" in text and "W=" in text


def test_stalling_algorithm_detected():
    from repro.sim.protocol import BroadcastAlgorithm, Protocol

    class _Silent(Protocol):
        def on_wake(self, step, message):
            pass

        def next_action(self, step):
            return None

    class SilentAlgorithm(BroadcastAlgorithm):
        name = "silent"
        deterministic = True

        def create(self, label, r, rng):
            return _Silent(label, r, rng)

    construction = LowerBoundConstruction(SilentAlgorithm(), 128, 4, max_wait_steps=200)
    with pytest.raises(AdversaryError, match="stalls"):
        construction.build()


def test_larger_instance_select_and_send():
    _, result, report = build_and_verify(SelectAndSend, 512, 16)
    assert result.network.radius == 16
    assert report.histories_match
    assert report.silence_respected


def test_window_override_lengthens_silence_floor():
    from repro.adversary.construction import build_strongest

    paper = LowerBoundConstruction(RoundRobinBroadcast(255), 256, 8).build()
    stretched = build_strongest(lambda: RoundRobinBroadcast(255), 256, 8,
                                max_doublings=3)
    assert stretched.window > paper.window
    assert stretched.silence_floor >= paper.silence_floor
    report = verify_construction(stretched, RoundRobinBroadcast(255))
    assert report.histories_match and report.silence_respected


def test_window_override_validation():
    from repro.sim.errors import ConfigurationError as CfgError

    with pytest.raises(CfgError):
        LowerBoundConstruction(RoundRobinBroadcast(255), 256, 8, window_override=0)


def test_adversary_vs_interleaved_composite_algorithm():
    """The Section 3 adversary handles composite adaptive algorithms too:
    interleaved round-robin + Select-and-Send is deterministic, so G_A can
    be built against it and must verify exactly."""
    from repro.baselines.interleaved import InterleavedBroadcast

    def factory():
        return InterleavedBroadcast(RoundRobinBroadcast(255), SelectAndSend())

    construction = LowerBoundConstruction(factory(), 256, 8)
    result = construction.build()
    report = verify_construction(result, factory())
    assert report.histories_match
    assert report.silence_respected


@pytest.mark.parametrize(
    "algo_factory",
    [
        lambda: RoundRobinBroadcast(255),
        lambda: SelectAndSend(),
        lambda: SelectiveFamilyBroadcast(255, "random"),
    ],
    ids=["round-robin", "select-and-send", "selective-family"],
)
def test_event_replay_matches_reference_engine(algo_factory):
    """verify_construction replays on the event engine; the reference
    engine, stepped over the same horizon and on to completion, is the
    oracle for its per-slot transmitter sets and its verdict."""
    from repro.sim import SynchronousEngine

    result = LowerBoundConstruction(algo_factory(), 256, 8).build()
    report = verify_construction(result, algo_factory())
    reference = SynchronousEngine(result.network, algo_factory())
    first_mismatch = None
    for t in range(result.horizon):
        expected = result.abstract_transmitters.get(t, frozenset())
        if first_mismatch is None and frozenset(reference.run_step()) != expected:
            first_mismatch = t
    reference.run(4 * 255 * 256)
    assert report.histories_match and first_mismatch is None
    assert reference.completion_time is not None
    assert report.real_completion_time == reference.completion_time
