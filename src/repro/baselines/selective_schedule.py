"""Deterministic broadcast from selective families (CMS style).

Clementi, Monti and Silvestri connected selective families to oblivious
deterministic broadcasting: if the informed in-neighbourhood of a node is
``Z``, any family member ``F`` with ``|F & Z| == 1`` delivers a message in
the slot where exactly the informed members of ``F`` transmit.  Cycling
through ``(n, k)``-selective families for every scale ``k = 1, 2, 4, ...``
therefore pushes the information front at least one layer per full cycle.

This baseline matters for two of the paper's discussions:

* it is the *schedule-based* (non-adaptive) counterpoint to the adaptive
  Select-and-Send — the lower bound of Section 3 shows that no
  deterministic algorithm, adaptive or not, beats
  ``Omega(n log n / log(n/D))``;
* its building block (selective families) is exactly the object whose
  *size lower bound* powers the paper's jamming construction.

Both a deterministic (Kautz–Singleton) and a randomized-family variant are
available; both are oblivious, so they run on the array engines.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import numpy as np

from ..combinatorics.selective import greedy_selective_family, kautz_singleton_family
from ..sim.errors import ConfigurationError
from ..sim.macro import label_set_plan, label_table
from ..sim.protocol import (
    BroadcastAlgorithm,
    ObliviousTransmitter,
    Protocol,
    QUIET_FOREVER,
)

__all__ = ["SelectiveFamilyBroadcast"]


class _ScheduleProtocol(ObliviousTransmitter):
    """Transmits in the cycle positions whose family set holds the label.

    Its idle hint is exact: the node is polled only in its own slots.
    """

    def __init__(self, label: int, r: int, rng: random.Random,
                 member_slots: list[int], cycle: int):
        super().__init__(label, r, rng)
        self._member_slots = member_slots  # increasing cycle positions
        self._cycle = cycle

    def wants_to_transmit(self, step: int) -> bool:
        members, offset = self._member_slots, step % self._cycle
        i = bisect_left(members, offset)
        return i < len(members) and members[i] == offset

    def quiet_until(self, step: int) -> int:
        """The node's next member slot: the first ``t >= step`` whose
        cycle position's set holds the label; :data:`QUIET_FOREVER` for a
        label in no set."""
        members = self._member_slots
        if not members:
            return QUIET_FOREVER
        offset = step % self._cycle
        i = bisect_left(members, offset)
        if i == len(members):
            return step - offset + self._cycle + members[0]
        return step - offset + members[i]


class SelectiveFamilyBroadcast(BroadcastAlgorithm):
    """Oblivious schedule cycling through multi-scale selective families.

    Args:
        r: Label bound; the ground set is ``{0, ..., r}``.
        family_kind: ``"kautz-singleton"`` (deterministic, strongly
            selective, size ``O((k log n / log(k log n))^2)`` per scale) or
            ``"random"`` (randomized construction, size ``O(k log n)`` per
            scale, selective with high probability).
        max_scale: Largest neighbourhood size the schedule must handle;
            defaults to ``r + 1`` (all scales).
        seed: Seed for the random family variant.
    """

    deterministic = True

    def __init__(
        self,
        r: int,
        family_kind: str = "random",
        max_scale: int | None = None,
        seed: int = 0,
    ):
        if family_kind not in ("kautz-singleton", "random"):
            raise ConfigurationError(f"unknown family kind {family_kind!r}")
        self.r = r
        self.family_kind = family_kind
        ground = r + 1
        top = ground if max_scale is None else min(max_scale, ground)
        sets: list[frozenset[int]] = []
        k = 1
        rng = random.Random(seed)
        while k <= top:
            if family_kind == "kautz-singleton":
                sets.extend(kautz_singleton_family(ground, k))
            else:
                sets.extend(greedy_selective_family(ground, k, rng))
            k *= 2
        # Always include the full set: a frontier node with exactly one
        # informed neighbour is served by it, and it makes cycle 0 wake the
        # source's whole neighbourhood.
        sets.append(frozenset(range(ground)))
        # Guarantee (n, 2)-selectivity deterministically with the binary
        # bit-sets: any two distinct labels differ in some bit, and the set
        # of labels with that bit set contains exactly one of them.  The
        # random construction alone is only selective w.h.p., and a missing
        # pair would let the schedule stall forever on a network where some
        # node's informed neighbourhood is exactly that pair (found by the
        # oblivious layer adversary).
        for bit in range(max(1, (ground - 1).bit_length())):
            sets.append(frozenset(x for x in range(ground) if (x >> bit) & 1))
        self.cycle_length = len(sets)
        self.name = f"selective-family({family_kind}, cycle={self.cycle_length})"
        # The family as label rows (row i: cycle position i), read by the
        # macro plan and, regrouped by label, by the per-node protocols.
        self._members, self._offsets = label_table(sets)
        self._slots_by_label: tuple[np.ndarray, np.ndarray] | None = None

    # -- reference engine -------------------------------------------------

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return _ScheduleProtocol(
            label, r, rng, self._member_slots(label), self.cycle_length
        )

    def _member_slots(self, label: int) -> list[int]:
        """The cycle positions whose set holds ``label``, increasing.

        The label rows are regrouped by label once (a stable sort keeps
        each label's positions in cycle order), so a node's protocol costs
        its own memberships rather than a scan of the whole family.
        """
        if self._slots_by_label is None:
            rows = np.repeat(np.arange(self.cycle_length), np.diff(self._offsets))
            order = np.argsort(self._members, kind="stable")
            ptr = np.zeros(self.r + 2, dtype=np.int64)
            np.cumsum(np.bincount(self._members, minlength=self.r + 1), out=ptr[1:])
            self._slots_by_label = (rows[order], ptr)
        positions, ptr = self._slots_by_label
        if not 0 <= label <= self.r:
            return []
        return positions[ptr[label]:ptr[label + 1]].tolist()

    # -- array engines ------------------------------------------------------

    def macro_plan(self, start: int, count: int, r: int):
        """Macro-step form: slot ``t`` is the family member at cycle
        position ``t mod cycle_length``, as a label-set slot."""
        steps = start + np.arange(count, dtype=np.int64)
        return label_set_plan(
            start, self._members, self._offsets, steps % self.cycle_length
        )

    def max_steps_hint(self, n: int, r: int) -> int | None:
        # At least one layer per cycle in the worst case.
        return self.cycle_length * (n + 1)
