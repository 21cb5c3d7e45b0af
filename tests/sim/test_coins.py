"""Seed derivation and slot-indexed coins: the exact streams are pinned.

Every engine — reference, fast, batched — derives per-node randomness
through :mod:`repro.sim.coins`.  These tests pin the derived streams to
literal values so that any change to the derivation (which would silently
re-randomise every experiment in the repo) fails loudly.
"""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest

from repro.sim.coins import (
    CoinSource,
    NODE_STREAM_TEMPLATE,
    NodeRandom,
    _mix64,
    _step_salt,
    coin_uniform,
    derive_node_rng,
    derive_trial_seeds,
    node_key,
)


class TestNodeRngDerivation:
    def test_matches_string_seeded_random(self):
        """The node stream is exactly random.Random(f"{seed}:{label}")."""
        ours = derive_node_rng(7, 3)
        stdlib = random.Random(NODE_STREAM_TEMPLATE.format(seed=7, label=3))
        assert [ours.random() for _ in range(20)] == [
            stdlib.random() for _ in range(20)
        ]

    def test_pinned_stream(self):
        rng = derive_node_rng(7, 3)
        assert [rng.random() for _ in range(3)] == pytest.approx(
            [0.7743612107349676, 0.13619858678486585, 0.040073600947083676],
            abs=0.0,
        )

    def test_distinct_nodes_get_distinct_streams(self):
        draws = {derive_node_rng(5, label).random() for label in range(50)}
        assert len(draws) == 50

    def test_is_node_random(self):
        rng = derive_node_rng(11, 4)
        assert isinstance(rng, NodeRandom)
        assert rng.run_seed == 11 and rng.label == 4


class TestLazySeeding:
    """``NodeRandom`` seeds its sequential stream on first use; every
    entry point must see ``random.Random(f"{seed}:{label}")`` exactly."""

    SEED, LABEL = 7, 3

    def _pair(self):
        return (
            NodeRandom(self.SEED, self.LABEL),
            random.Random(NODE_STREAM_TEMPLATE.format(seed=self.SEED, label=self.LABEL)),
        )

    def test_random(self):
        ours, stdlib = self._pair()
        assert [ours.random() for _ in range(5)] == [stdlib.random() for _ in range(5)]

    def test_randint(self):
        ours, stdlib = self._pair()
        # getrandbits first (a large range), then the bounded form.
        assert ours.randint(0, 10**30) == stdlib.randint(0, 10**30)
        assert [ours.randint(1, 6) for _ in range(20)] == [
            stdlib.randint(1, 6) for _ in range(20)
        ]

    def test_shuffle(self):
        ours, stdlib = self._pair()
        mine, theirs = list(range(40)), list(range(40))
        ours.shuffle(mine)
        stdlib.shuffle(theirs)
        assert mine == theirs

    def test_getstate_setstate(self):
        ours, stdlib = self._pair()
        assert ours.getstate() == stdlib.getstate()
        other = random.Random("elsewhere")
        fresh = NodeRandom(self.SEED, self.LABEL)
        fresh.setstate(other.getstate())
        assert fresh.random() == other.random()

    @pytest.mark.parametrize("draw_first", [False, True])
    def test_deepcopy(self, draw_first):
        ours, stdlib = self._pair()
        if draw_first:
            assert ours.random() == stdlib.random()
        clone = copy.deepcopy(ours)
        assert (clone.run_seed, clone.label) == (self.SEED, self.LABEL)
        assert [clone.random() for _ in range(3)] == [stdlib.random() for _ in range(3)]
        assert clone.coin(9) == ours.coin(9)

    @pytest.mark.parametrize("draw_first", [False, True])
    def test_pickle(self, draw_first):
        ours, stdlib = self._pair()
        if draw_first:
            assert ours.random() == stdlib.random()
        clone = pickle.loads(pickle.dumps(ours))
        assert isinstance(clone, NodeRandom)
        assert (clone.run_seed, clone.label) == (self.SEED, self.LABEL)
        assert [clone.random() for _ in range(3)] == [stdlib.random() for _ in range(3)]

    def test_coin_is_unchanged(self):
        ours, _ = self._pair()
        assert [ours.coin(t) for t in (0, 100)] == [
            coin_uniform(self.SEED, self.LABEL, t) for t in (0, 100)
        ]
        # Drawing from the sequential stream does not move the coins.
        ours.random()
        assert ours.coin(100) == 0.7791027852935466


class TestTrialSeeds:
    def test_pinned_convention(self):
        """Trial i uses base_seed + i — the repo-wide Monte-Carlo convention."""
        assert derive_trial_seeds(0, 4) == [0, 1, 2, 3]
        assert derive_trial_seeds(100, 3) == [100, 101, 102]

    def test_empty(self):
        assert derive_trial_seeds(9, 0) == []


class TestSlotIndexedCoins:
    PINNED = [
        ((0, 0, 0), 0.20310281705476096),
        ((0, 0, 1), 0.5344431230972023),
        ((7, 3, 0), 0.7876322589389549),
        ((7, 3, 100), 0.7791027852935466),
        ((123, 42, 999), 0.9214387094175515),
    ]

    @pytest.mark.parametrize("args,expected", PINNED)
    def test_pinned_values(self, args, expected):
        assert coin_uniform(*args) == expected

    def test_pinned_node_keys(self):
        assert node_key(0, 0) == 0x48218226FF3CD4BF
        assert node_key(7, 3) == 0x92F5ABBE51458C8F

    def test_range(self):
        values = [coin_uniform(1, l, t) for l in range(8) for t in range(64)]
        assert all(0.0 <= v < 1.0 for v in values)
        # and they look uniform enough not to be a constant or degenerate
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_node_random_coin_matches_scalar(self):
        rng = derive_node_rng(9, 5)
        assert [rng.coin(t) for t in range(10)] == [
            coin_uniform(9, 5, t) for t in range(10)
        ]


class TestCoinSource:
    def test_run_matches_scalar(self):
        labels = np.arange(6)
        coins = CoinSource.for_run(31, labels)
        for step in (0, 1, 17, 1000):
            expected = np.array([coin_uniform(31, l, step) for l in labels])
            np.testing.assert_array_equal(coins.uniform(step), expected)

    def test_batch_rows_match_runs(self):
        """Row t of a batch is exactly the single-run source for seed t."""
        labels = np.arange(5)
        seeds = derive_trial_seeds(40, 3)
        batch = CoinSource.for_batch(seeds, labels)
        for step in (0, 3, 250):
            got = batch.uniform(step)
            assert got.shape == (3, 5)
            for row, seed in enumerate(seeds):
                np.testing.assert_array_equal(
                    got[row], CoinSource.for_run(seed, labels).uniform(step)
                )

    def test_steps_are_independent_lookups(self):
        """Coins are counter-based: evaluation order cannot matter."""
        labels = np.arange(4)
        coins = CoinSource.for_run(2, labels)
        forward = [coins.uniform(t).copy() for t in range(5)]
        backward = [coins.uniform(t) for t in reversed(range(5))][::-1]
        for a, b in zip(forward, backward):
            np.testing.assert_array_equal(a, b)


_MASK64 = (1 << 64) - 1


def _unshift(z: int, shift: int) -> int:
    """Inverse of ``z ^= z >> shift`` on 64-bit words."""
    out = z
    for _ in range(64 // shift + 1):
        out = z ^ (out >> shift)
    return out


def _unmix64(z: int) -> int:
    """Inverse of the splitmix64 finalizer: ``_mix64(_unmix64(z)) == z``."""
    z = _unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    z = _unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return _unshift(z, 30)


class TestBelowThreshold:
    """``CoinSource.below`` compares mixed words with an integer threshold;
    it must agree with ``uniform(step) < p`` on every key, including the
    words sitting exactly on either side of the threshold."""

    STEP = 12345
    PROBS = [
        0.0,
        2.0**-53,
        2.0**-40,
        2.0**-6,
        0.5,
        0.1,
        1 / 3,
        0.7,
        1 - 2.0**-53,
        1.0,
        1.5,
        -0.25,
    ]

    def _edge_keys(self, p: float) -> np.ndarray:
        """Keys whose slot-``STEP`` words straddle the float boundary of
        ``p``, plus a spread of ordinary keys."""
        words = [0, 1, 2047, 2048, _MASK64]
        if 0.0 < p < 1.0:
            for m in {int(np.floor(p * 2.0**53)), int(np.ceil(p * 2.0**53))}:
                for mantissa in (m - 1, m, m + 1):
                    if 0 <= mantissa < 1 << 53:
                        base = mantissa << 11
                        words += [base, base + 1, base + 2047]
        salt = _step_salt(self.STEP)
        keys = [_unmix64(w) ^ salt for w in words]
        keys += [node_key(5, label) for label in range(64 - len(keys))]
        return np.array(keys, dtype=np.uint64)

    def test_unmix_inverts_the_finalizer(self):
        for z in (0, 1, 2**53, 2**63 + 12345, _MASK64):
            assert _mix64(_unmix64(z)) == z

    @pytest.mark.parametrize("p", PROBS)
    def test_equals_float_comparison(self, p):
        keys = self._edge_keys(p)
        for shaped in (keys, keys.reshape(4, -1)):
            coins = CoinSource(shaped)
            got = coins.below(self.STEP, p)
            assert got.shape == shaped.shape and got.dtype == bool
            np.testing.assert_array_equal(got, coins.uniform(self.STEP) < p)

    @pytest.mark.parametrize("p", [2.0**-53, 0.25, 0.3, 1 - 2.0**-53])
    def test_key_subset_matches_full_array(self, p):
        labels = np.arange(500)
        single = CoinSource.for_run(7, labels)
        batch = CoinSource.for_batch([7, 8, 9], labels)
        idx = np.array([3, 0, 499, 250, 3])
        for step in (0, 1, 99):
            np.testing.assert_array_equal(
                single.below(step, p, single._keys[idx]),
                single.below(step, p)[idx],
            )
            np.testing.assert_array_equal(
                batch.below(step, p), batch.uniform(step) < p
            )


class TestBlockedBelow:
    """Key arrays longer than one block are hashed block by block into one
    output; every decision must still equal the scalar coin's."""

    SEED, STEP = 11, 777
    SIZES = [(1 << 15) - 1, 1 << 15, (1 << 15) + 1, 3 * (1 << 15) + 7]
    PROBS = [2.0**-53, 0.3, 1 - 2.0**-53]

    @pytest.fixture(scope="class")
    def scalar_coins(self):
        """``coin_uniform`` of labels ``0 .. max(SIZES) - 1`` at ``STEP``,
        for seeds ``SEED`` and ``SEED + 1``."""
        labels = range(max(self.SIZES))
        return {
            seed: np.array([coin_uniform(seed, label, self.STEP) for label in labels])
            for seed in (self.SEED, self.SEED + 1)
        }

    @pytest.mark.parametrize("size", SIZES)
    def test_one_dimensional_keys(self, scalar_coins, size):
        coins = CoinSource.for_run(self.SEED, np.arange(size))
        expected = scalar_coins[self.SEED][:size]
        for p in self.PROBS:
            got = coins.below(self.STEP, p)
            assert got.shape == (size,) and got.dtype == bool
            np.testing.assert_array_equal(got, expected < p)
            # The same keys passed as a subset.
            np.testing.assert_array_equal(
                coins.below(self.STEP, p, coins._keys), expected < p
            )

    def test_trials_by_nodes_keys(self, scalar_coins):
        """A ``(T, n)`` batch with ``keys=None``, longer than two blocks,
        with a row length that does not divide the block."""
        n = (1 << 15) + 3
        coins = CoinSource.for_batch([self.SEED, self.SEED + 1], np.arange(n))
        expected = np.stack([scalar_coins[self.SEED][:n],
                             scalar_coins[self.SEED + 1][:n]])
        for p in self.PROBS:
            got = coins.below(self.STEP, p)
            assert got.shape == (2, n) and got.dtype == bool
            np.testing.assert_array_equal(got, expected < p)
