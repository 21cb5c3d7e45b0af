"""Shared randomness derivation for every execution path.

Every engine — the per-node reference engine
(:class:`~repro.sim.engine.SynchronousEngine`), the sparse
:class:`~repro.sim.macro.MacroStepEngine` (one trial or a union of
trials), and the event engines — must produce *identical* executions for
the same ``(network, algorithm, seed)``.  Two pieces make that
possible:

* **Per-node RNG derivation.**  Node ``v`` of a run with master seed ``s``
  owns the stream ``random.Random(f"{s}:{v}")`` (the scheme the reference
  engine has always used).  :func:`derive_node_rng` is the single place
  this string is built; engines must not re-derive it themselves.

* **Slot-indexed coin flips.**  A sequential stream cannot be shared
  between a per-node protocol and a vectorised array program: the two
  would consume it in different orders.  Transmission coins are therefore
  *counter-based*: the coin of node ``v`` in slot ``t`` is a pure function
  ``uniform(s, v, t)`` of the master seed, the label, and the slot — a
  splitmix64-style hash, bit-identical between the scalar implementation
  (:meth:`NodeRandom.coin`, used by protocols) and the vectorised one
  (:meth:`CoinSource.uniform`, used by the array engines).  Batching over
  trials is then just a second key axis.

Trial seeds for Monte-Carlo repetition are derived by
:func:`derive_trial_seeds` (``base_seed + i``, the historical
``repeat_broadcast`` convention) so serial and batched estimates use the
same per-trial executions.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

__all__ = [
    "NODE_STREAM_TEMPLATE",
    "NodeRandom",
    "CoinSource",
    "derive_node_rng",
    "derive_trial_seeds",
    "node_key",
    "coin_uniform",
]

#: The canonical per-node stream id.  ``random.Random`` seeded with this
#: string is the node's private sequential RNG; changing the template forks
#: every recorded result, so it is pinned by tests.
NODE_STREAM_TEMPLATE = "{seed}:{label}"

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15  # splitmix64 golden-ratio increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STEP_SALT = 0xD6E8FEB86659FD93


def _mix64(z: int) -> int:
    """Scalar splitmix64 finalizer (Python ints, mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


#: The finalizer's xor-shift / multiply rounds and its last shift.
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_LAST_SHIFT = np.uint64(31)

#: Keys per block of :meth:`CoinSource.below`: a block's two uint64
#: temporaries (512 KiB) stay in L2 across the finalizer's passes.
_BLOCK = 1 << 15


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorised splitmix64 finalizer.  Mutates and returns ``z`` (uint64);
    ``scratch``, an array shaped like ``z``, holds the shifted words."""
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, mix in _ROUNDS:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mix
    np.right_shift(z, _LAST_SHIFT, out=scratch)
    z ^= scratch
    return z


def node_key(seed: int, label: int) -> int:
    """64-bit coin key of node ``label`` under master seed ``seed``.

    Defined as ``mix64(mix64(seed + PHI) ^ (label * PHI mod 2^64))``; the
    vectorised paths compute exactly this per element.  (The ``+ PHI``
    keeps the all-zero input away from splitmix64's fixed point at 0, so
    the common ``seed=0, label=0, step=0`` cell is not degenerate.)
    """
    # int() lifts numpy integers to Python ints before the mod-2^64 math.
    return _mix64(_mix64(int(seed) + _PHI) ^ ((int(label) & _MASK64) * _PHI & _MASK64))


def _node_keys(seed: int, labels: np.ndarray) -> np.ndarray:
    """Vectorised :func:`node_key` over a label array -> uint64 keys."""
    z = labels.astype(np.uint64) * np.uint64(_PHI)
    z ^= np.uint64(_mix64(seed + _PHI))
    return _mix64_inplace(z)


def _step_salt(step: int) -> int:
    return (int(step) & _MASK64) * _STEP_SALT & _MASK64


def coin_uniform(seed: int, label: int, step: int) -> float:
    """The transmission coin of ``(seed, label, step)`` as a float in [0, 1)."""
    z = _mix64(node_key(seed, label) ^ _step_salt(step))
    return (z >> 11) * 2.0**-53


class NodeRandom(random.Random):
    """The per-node RNG handed to protocols by the reference engine.

    Behaves exactly like ``random.Random(f"{seed}:{label}")`` for the
    sequential API (so protocols that draw free-form randomness keep their
    historical streams) and additionally exposes the slot-indexed
    :meth:`coin` that transmission decisions must use.

    The sequential stream is seeded on first use: string seeding costs
    more than the rest of a node's wake-up, and protocols that decide by
    :meth:`coin` alone never draw from it.  ``random``, ``getrandbits``
    and ``getstate`` are the primitives every other method of
    ``random.Random`` draws through, so each seeds first.
    """

    def __init__(self, seed: int, label: int) -> None:
        # random.Random.__init__ would seed the stream now; see above.
        self.run_seed = seed
        self.label = label
        self._coin_key = node_key(seed, label)
        self._seeded = False
        self.gauss_next = None

    def _seed_stream(self) -> None:
        self.seed(NODE_STREAM_TEMPLATE.format(seed=self.run_seed, label=self.label))

    def seed(self, a=None, version: int = 2) -> None:
        self._seeded = True
        super().seed(a, version)

    def random(self) -> float:
        if not self._seeded:
            self._seed_stream()
        return super().random()

    def getrandbits(self, k: int) -> int:
        if not self._seeded:
            self._seed_stream()
        return super().getrandbits(k)

    def getstate(self) -> tuple:
        if not self._seeded:
            self._seed_stream()
        return super().getstate()

    def setstate(self, state: tuple) -> None:
        self._seeded = True
        super().setstate(state)

    def __reduce__(self):
        # random.Random's reduce rebuilds with no constructor arguments.
        state = super().getstate() if self._seeded else None
        return self.__class__, (self.run_seed, self.label), state

    def coin(self, step: int) -> float:
        """Slot-indexed transmission coin; equals :func:`coin_uniform`."""
        z = _mix64(self._coin_key ^ _step_salt(step))
        return (z >> 11) * 2.0**-53


def derive_node_rng(seed: int, label: int) -> NodeRandom:
    """Derive node ``label``'s private RNG for a run with master ``seed``.

    The single derivation point shared by every engine (the reference
    engine constructs protocols with it; the array engines build their
    :class:`CoinSource` keys from the same ``(seed, label)`` pairs).
    """
    return NodeRandom(seed, label)


def derive_trial_seeds(base_seed: int, trials: int) -> list[int]:
    """Per-trial master seeds for ``trials`` Monte-Carlo repetitions.

    ``base_seed + i`` — the convention :func:`~repro.sim.run.repeat_broadcast`
    has always used; the batched path derives its trials identically.
    """
    return [base_seed + i for i in range(trials)]


class CoinSource:
    """Vectorised access to the slot-indexed coins of one run or one batch.

    Wraps a uint64 key array of shape ``(n,)`` (single run) or
    ``(trials, n)`` (batched run); :meth:`uniform` yields the coins of one
    slot for every (trial,) node at once, bit-identical to
    :func:`coin_uniform` / :meth:`NodeRandom.coin` element by element.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self._keys = keys

    @property
    def shape(self) -> tuple[int, ...]:
        return self._keys.shape

    @classmethod
    def for_run(cls, seed: int, labels: np.ndarray) -> "CoinSource":
        """Keys of shape ``(n,)`` for a single run."""
        return cls(_node_keys(seed, labels))

    @classmethod
    def for_batch(cls, seeds: Sequence[int], labels: np.ndarray) -> "CoinSource":
        """Keys of shape ``(trials, n)``; row ``t`` equals ``for_run(seeds[t])``."""
        keys = np.empty((len(seeds), labels.shape[0]), dtype=np.uint64)
        for row, seed in enumerate(seeds):
            keys[row] = _node_keys(seed, labels)
        return cls(keys)

    def uniform(self, step: int) -> np.ndarray:
        """Coins of slot ``step`` as float64 in [0, 1), shaped like the keys."""
        z = self._keys ^ np.uint64(_step_salt(step))
        _mix64_inplace(z)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def below(self, step: int, p: float, keys: np.ndarray | None = None) -> np.ndarray:
        """``uniform(step) < p`` as a bool array, without the float coins.

        A coin is ``(z >> 11) * 2**-53`` for the mixed 64-bit word ``z``,
        so for ``0 <= p < 1`` the test ``coin < p`` holds exactly when
        ``z < ceil(p * 2**53) << 11`` (``p * 2**53`` is exact, and
        ``p < 1`` keeps the threshold below ``2**64``).  Comparing the
        word directly skips the shift, the float conversion and the
        multiply per coin and gives bit-identical decisions.

        ``keys`` restricts the test to a pre-gathered key subset:
        ``below(step, p, keys[idx])`` equals ``below(step, p)[idx]``.
        Callers that test the same subset over many slots (the macro
        engine's eligible prefix and eligible sleeper-edge entries)
        gather the keys once and amortise the copy across the slots.

        Longer key arrays are hashed ``_BLOCK`` keys at a time, through
        two temporaries that stay in cache, into one bool output: the same
        operations, about twice as fast as whole-array passes at 10^6 keys.
        """
        if keys is None:
            keys = self._keys
        if p >= 1.0:
            return np.ones(keys.shape, dtype=bool)
        if p <= 0.0:
            return np.zeros(keys.shape, dtype=bool)
        salt = np.uint64(_step_salt(step))
        threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
        if keys.size <= _BLOCK:
            return _mix64_inplace(keys ^ salt) < threshold
        flat = keys.reshape(-1)
        size = flat.size
        heads = np.empty(size, dtype=bool)
        z = np.empty(_BLOCK, dtype=np.uint64)
        scratch = np.empty_like(z)
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            block, spare = z[:hi - lo], scratch[:hi - lo]
            np.bitwise_xor(flat[lo:hi], salt, out=block)
            _mix64_inplace(block, spare)
            np.less(block, threshold, out=heads[lo:hi])
        return heads.reshape(keys.shape)

    def below_steps(self, start: int, probs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """:meth:`below` for consecutive slots at once: a ``(keys.size,
        len(probs))`` bool array whose column ``c`` equals ``below(start +
        c, probs[c], keys)``."""
        steps = np.arange(start, start + len(probs), dtype=np.uint64)
        z = keys[:, None] ^ (steps * np.uint64(_STEP_SALT))
        _mix64_inplace(z)
        thresholds = [
            math.ceil(p * 2.0**53) << 11 if 0.0 < p < 1.0 else 0 for p in probs.tolist()
        ]
        heads = z < np.array(thresholds, dtype=np.uint64)
        heads[:, probs >= 1.0] = True
        return heads
