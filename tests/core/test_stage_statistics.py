"""Statistical validation of the randomized stage implementation.

The Section 2 analysis hinges on nodes transmitting with *exactly* the
prescribed probabilities.  These tests estimate empirical transmission
frequencies from many runs of the macro plan (each slot evaluated
densely by :func:`~repro.sim.macro.plan_slot_mask`) and check them
against the timetable, slot class by slot class — a bug in eligibility or
probability indexing would shift these frequencies far outside the bands.
"""

from __future__ import annotations

import numpy as np

from repro.core.randomized import KnownRadiusKP, StageTimetable
from repro.sim.coins import CoinSource, derive_trial_seeds
from repro.sim.macro import plan_slot_mask


def _empirical_rate(algo, slot: int, eligible_wake: int, trials: int = 4000) -> float:
    """Fraction of trials in which one eligible node transmits at ``slot``.

    Coins are slot-indexed per (seed, label, step), so each trial is one
    run seed: the empirical frequency samples across the seed axis —
    exactly the randomness Monte-Carlo estimates average over.
    """
    labels = np.arange(1, 2)  # a single non-source node
    wake = np.tile(np.array([eligible_wake], dtype=np.int64), (trials, 1))
    coins = CoinSource.for_batch(derive_trial_seeds(123, trials), labels)
    plan = algo.macro_plan(slot, 1, algo._phases[0].r2 - 1)
    mask = plan_slot_mask(plan, 0, labels, wake, coins)
    return float(mask[:, 0].mean())


def test_sweep_probabilities_match_timetable():
    algo = KnownRadiusKP(255, 16, stage_constant=4)
    timetable = algo._phases[0]
    # Stage 0 occupies slots 1..stage_len; test the sweep positions.
    for position in range(timetable.stage_len - 1):
        slot = 1 + position
        expected = 2.0 ** (-position)
        rate = _empirical_rate(algo, slot, eligible_wake=-1)
        assert abs(rate - expected) <= max(0.03, 4 * (expected * (1 - expected) / 4000) ** 0.5), (
            position,
            rate,
            expected,
        )


def test_universal_slot_probability_matches_sequence():
    algo = KnownRadiusKP(255, 16, stage_constant=4)
    timetable = algo._phases[0]
    slot = timetable.stage_len  # last slot of stage 0
    expected = timetable.universal.probability(1)
    rate = _empirical_rate(algo, slot, eligible_wake=-1)
    assert abs(rate - expected) <= max(0.03, 4 * (expected * (1 - expected) / 4000) ** 0.5)


def test_ineligible_node_never_transmits():
    algo = KnownRadiusKP(255, 16, stage_constant=4)
    timetable = algo._phases[0]
    # A node woken inside stage 0 must be silent for all of stage 0.
    for position in range(timetable.stage_len):
        slot = 1 + position
        rate = _empirical_rate(algo, slot, eligible_wake=1, trials=300)
        assert rate == 0.0, (slot, rate)


def test_node_becomes_eligible_at_next_stage():
    algo = KnownRadiusKP(255, 16, stage_constant=4)
    timetable = algo._phases[0]
    stage1_first_slot = 1 + timetable.stage_len  # position 0 -> probability 1
    rate = _empirical_rate(algo, stage1_first_slot, eligible_wake=1, trials=100)
    assert rate == 1.0


def test_source_solo_slot():
    algo = KnownRadiusKP(255, 16, stage_constant=4)
    labels = np.array([0, 5])
    wake = np.array([-1, -1], dtype=np.int64)
    mask = plan_slot_mask(algo.macro_plan(0, 1, 255), 0, labels, wake)
    assert mask[0] and not mask[1]


def test_timetable_probabilities_are_powers_of_two():
    timetable = StageTimetable.build(1023, 64, stage_constant=2)
    for offset in range(1, 1 + 3 * timetable.stage_len):
        decoded = timetable.slot(offset)
        assert decoded is not None
        probability, _ = decoded
        assert probability > 0
        exponent = -np.log2(probability)
        assert abs(exponent - round(exponent)) < 1e-12
