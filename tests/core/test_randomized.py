"""The Kowalski-Pelc randomized algorithm (Section 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.randomized import (
    KnownRadiusKP,
    OptimalRandomizedBroadcasting,
    StageTimetable,
    next_power_of_two,
)
from repro.sim import run_broadcast
from repro.sim.errors import ConfigurationError
from repro.sim.macro import plan_slot_mask
from repro.topology import (
    gnp_connected,
    km_hard_layered,
    path,
    star,
    uniform_complete_layered,
)


def test_next_power_of_two():
    assert next_power_of_two(1) == 1
    assert next_power_of_two(2) == 2
    assert next_power_of_two(3) == 4
    assert next_power_of_two(1000) == 1024
    with pytest.raises(ConfigurationError):
        next_power_of_two(0)


class TestStageTimetable:
    def test_shape(self):
        tt = StageTimetable.build(r=255, d_guess=16, stage_constant=10)
        assert tt.r2 == 256 and tt.d2 == 16
        assert tt.stage_len == 4 + 2  # log2(256/16) + 2
        assert tt.num_stages == 160
        assert tt.duration == 1 + 160 * 6

    def test_d_clamped_to_r(self):
        tt = StageTimetable.build(r=64, d_guess=1000, stage_constant=2)
        assert tt.d2 == 64

    def test_slot_zero_is_source_solo(self):
        tt = StageTimetable.build(r=255, d_guess=16, stage_constant=10)
        assert tt.slot(0) is None

    def test_probability_sweep_within_stage(self):
        tt = StageTimetable.build(r=255, d_guess=16, stage_constant=10)
        # Stage 0 occupies slots 1..6; positions 0..4 sweep 1, 1/2, ... 1/16.
        for position in range(5):
            probability, stage_start = tt.slot(1 + position)
            assert probability == 2.0 ** (-position)
            assert stage_start == 1
        # Position 5 is the universal-sequence slot.
        probability, _ = tt.slot(6)
        assert probability == tt.universal.probability(1)

    def test_stage_starts_advance(self):
        tt = StageTimetable.build(r=255, d_guess=16, stage_constant=10)
        _, start_stage2 = tt.slot(1 + 6)
        assert start_stage2 == 7

    def test_universal_slot_cycles_with_stage_index(self):
        tt = StageTimetable.build(r=255, d_guess=16, stage_constant=10)
        p_stage1, _ = tt.slot(6)
        p_stage2, _ = tt.slot(12)
        assert p_stage1 == tt.universal.probability(1)
        assert p_stage2 == tt.universal.probability(2)


class TestKnownRadiusKP:
    def test_completes_on_zoo(self, topology_zoo):
        for name, net in topology_zoo.items():
            algo = KnownRadiusKP(net.r, max(1, net.radius))
            result = run_broadcast(net, algo, seed=1)
            assert result.completed, name

    def test_fast_engine_completes(self):
        net = km_hard_layered(256, 16, seed=2)
        result = run_broadcast(net, KnownRadiusKP(net.r, 16), seed=0, engine="macro")
        assert result.completed

    def test_source_transmits_alone_in_slot_zero(self):
        net = star(10)
        algo = KnownRadiusKP(net.r, 1)
        result = run_broadcast(net, algo, seed=0)
        # The source's solo slot informs the whole star immediately.
        assert result.time == 1

    def test_rejects_bad_d(self):
        with pytest.raises(ConfigurationError):
            KnownRadiusKP(63, 0)

    def test_eligibility_waits_for_stage_boundary(self):
        """A node informed mid-stage stays silent until the next stage."""
        net = path(3)
        algo = KnownRadiusKP(net.r, 2)
        tt = algo._phases[0]
        result = run_broadcast(net, algo, seed=5)
        wake1 = result.wake_times[1]
        wake2 = result.wake_times[2]
        # Node 2 can only be informed by node 1, which first acts in the
        # stage after its own wake: strictly later stage index.
        stage_of = lambda t: (t - 1) // tt.stage_len if t >= 1 else -1
        assert stage_of(wake2) > stage_of(wake1)

    def test_seeds_change_outcomes(self):
        net = km_hard_layered(200, 10, seed=1)
        algo = KnownRadiusKP(net.r, 10)
        times = {run_broadcast(net, algo, seed=s, engine="macro").time for s in range(6)}
        assert len(times) > 1


class TestOptimalRandomized:
    def test_phases_double(self):
        algo = OptimalRandomizedBroadcasting(255, stage_constant=2)
        assert [tt.d2 for tt in algo._phases] == [2, 4, 8, 16, 32, 64, 128, 256]

    def test_completes_without_knowing_d(self, topology_zoo):
        for name, net in topology_zoo.items():
            algo = OptimalRandomizedBroadcasting(net.r, stage_constant=4)
            result = run_broadcast(net, algo, seed=2)
            assert result.completed, name

    def test_label_bound_one_builds_one_phase(self):
        """r = 1 rounds to r2 = 1, below the first guess D = 2; the
        doubling still runs that one phase and broadcasts on a 2-path."""
        algo = OptimalRandomizedBroadcasting(1, stage_constant=2)
        assert [tt.d2 for tt in algo._phases] == [2]
        assert run_broadcast(path(2), algo, seed=0).completed

    def test_phases_for_larger_bounds_unchanged(self):
        for r, d2s in ((2, [2]), (3, [2, 4]), (4, [2, 4]), (5, [2, 4, 8])):
            algo = OptimalRandomizedBroadcasting(r, stage_constant=2)
            assert [tt.d2 for tt in algo._phases] == d2s

    def test_max_d_caps_phases(self):
        algo = OptimalRandomizedBroadcasting(255, stage_constant=2, max_d=8)
        assert [tt.d2 for tt in algo._phases] == [2, 4, 8]

    def test_paper_constant_is_default(self):
        algo = OptimalRandomizedBroadcasting(63)
        assert algo.stage_constant == 4660

    def test_engines_agree_in_distribution(self):
        """Both engines implement the same schedule; compare mean times."""
        net = uniform_complete_layered(120, 6)
        algo = KnownRadiusKP(net.r, 6)
        ref = [run_broadcast(net, algo, seed=s).time for s in range(8)]
        macro = [run_broadcast(net, algo, seed=s, engine="macro").time for s in range(8)]
        # Means within a factor of two of each other (loose but meaningful:
        # catches systematically wrong probabilities or eligibility).
        assert 0.5 < (sum(ref) / len(ref)) / (sum(macro) / len(macro)) < 2.0

    def test_vector_mask_shape_and_type(self):
        algo = OptimalRandomizedBroadcasting(31, stage_constant=2)
        labels = np.arange(8)
        wake = np.zeros(8, dtype=np.int64)
        mask = plan_slot_mask(algo.macro_plan(0, 1, 31), 0, labels, wake)
        assert mask.dtype == bool and mask.shape == (8,)
        assert mask[0] and not mask[1:].any()  # slot 0: source only


def test_kp_beats_bgi_shape_on_layered():
    """The headline separation: KP < BGI on a large-D layered network."""
    from repro.baselines.bgi import BGIBroadcast

    net = km_hard_layered(512, 32, seed=7)
    kp = [run_broadcast(net, KnownRadiusKP(net.r, 32), seed=s, engine="macro").time for s in range(5)]
    bgi = [run_broadcast(net, BGIBroadcast(net.r), seed=s, engine="macro").time for s in range(5)]
    assert sum(kp) < sum(bgi)
