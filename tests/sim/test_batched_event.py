"""The ``event`` engine's batches: property tests and degenerate shapes.

The conformance matrix (``test_conformance.py``) pins trial-for-trial
identity with the reference engine on the curated cases; this module
adds what the matrix cannot express:

* **hint honesty under batching** — across randomly drawn topologies and
  fault plans, no ``quiet_until`` promise may hide an action in *any*
  trial of a batch (every trial's engine polls through the checking
  wrapper), and the batch still reproduces serial reference runs exactly;
* **trial independence** — permuting the trial seeds permutes the
  results and nothing else: a trial's outcome depends only on its seed,
  never on its batch position or companions; a trial aborted by a
  protocol violation does not stop the others;
* **degenerate shapes** — one-trial batches, single-node networks,
  batches settled before the first slot, batches settling *on* the
  first slot, and a zero step budget, all in exact parity with serial
  reference runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KnownRadiusKP, SelectAndSend
from repro.baselines import RoundRobinBroadcast
from repro.sim import (
    SOURCE_PAYLOAD,
    BatchedEventEngine,
    BroadcastAlgorithm,
    FaultPlan,
    Protocol,
    run_broadcast,
    simulate,
)
from repro.sim.errors import ConfigurationError, ProtocolViolationError
from repro.sim.run import run_broadcast_batch
from repro.sim.trace import TraceLevel
from repro.topology import gnp_connected, path, star

from .conformance import (
    HintCheckedAlgorithm,
    adaptive_faulty_networks,
    assert_results_match,
)


def _serial_results(net, algorithm, seeds, **kwargs):
    return [
        run_broadcast(
            net, algorithm, seed=seed, engine="reference",
            require_completion=False, **kwargs,
        )
        for seed in seeds
    ]


def _assert_batch_matches_serial(net, algorithm, seeds, **kwargs):
    serial = _serial_results(net, algorithm, seeds, **kwargs)
    batched = run_broadcast_batch(
        net, algorithm, seeds=seeds, engine="event", **kwargs,
    )
    assert len(batched) == len(serial)
    for i, (from_batch, reference) in enumerate(zip(batched, serial)):
        assert_results_match(
            from_batch, reference, key=("trial", i),
            compare_traces=kwargs.get("trace_level") is TraceLevel.FULL,
        )
    return batched


# ---------------------------------------------------------------------------
# Hint honesty under batching


@settings(max_examples=15, deadline=None)
@given(case=adaptive_faulty_networks(), extra_seed=st.integers(0, 1000))
def test_no_quiet_promise_hides_an_action_in_any_trial(case, extra_seed):
    """Every trial's engine in the batch polls through the hint-checking
    wrapper: if compression ever trusted a promise that hides an action
    in *any* trial, the wrapper's assertions (or the parity check below)
    would fire."""
    net, plan = case
    algorithm = HintCheckedAlgorithm(SelectAndSend())
    seeds = [0, extra_seed, extra_seed + 1]
    try:
        _assert_batch_matches_serial(
            net, algorithm, seeds, faults=plan, max_steps=3000,
        )
    except ProtocolViolationError:
        # Echo is not fault-tolerant; an aborted run is an algorithm
        # property, not a hint violation (identical-failure parity is
        # pinned by the conformance suite).
        pass


# ---------------------------------------------------------------------------
# Trial independence


@settings(max_examples=10, deadline=None)
@given(
    topo_seed=st.integers(0, 500),
    base_seed=st.integers(0, 10_000),
    permutation=st.permutations(list(range(4))),
)
def test_permuting_trial_seeds_permutes_results(topo_seed, base_seed, permutation):
    """A trial's outcome is a function of its seed alone: reordering the
    seed list reorders the results and changes nothing else."""
    net = gnp_connected(20, 0.25, seed=topo_seed)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    seeds = [base_seed + i for i in range(4)]

    straight = run_broadcast_batch(
        net, algorithm, seeds=seeds, engine="event", max_steps=4000,
    )
    permuted_seeds = [seeds[i] for i in permutation]
    permuted = run_broadcast_batch(
        net, algorithm, seeds=permuted_seeds, engine="event", max_steps=4000,
    )
    by_seed = {result.seed: result for result in straight}
    for result in permuted:
        reference = by_seed[result.seed]
        assert result.wake_times == reference.wake_times, result.seed
        assert result.time == reference.time, result.seed
        assert result.completed == reference.completed, result.seed


class _FlakySource(Protocol):
    """Transmits every slot once awake; the source draws a coin at wake
    and, when it lands below one half, aborts in slot 1 with a violation
    naming the coin (so each seed's error is distinguishable)."""

    def on_wake(self, step, message):
        self.fail_coin = self.rng.random() if step < 0 else 1.0

    def next_action(self, step):
        if step == 1 and self.fail_coin < 0.5:
            raise ProtocolViolationError(f"coin {self.fail_coin!r}")
        return SOURCE_PAYLOAD


class _FlakySourceAlgorithm(BroadcastAlgorithm):
    name = "flaky-source"

    def create(self, label, r, rng):
        return _FlakySource(label, r, rng)


def test_violation_aborts_only_its_class():
    """A trial that raises does not stop the later trials; the batch
    re-raises the violation of the first aborted trial afterwards."""
    net = path(6)
    algorithm = _FlakySourceAlgorithm()
    errors, completed = {}, {}
    for seed in range(40):
        try:
            completed[seed] = run_broadcast(
                net, algorithm, seed=seed, max_steps=100, require_completion=True,
            )
        except ProtocolViolationError as exc:
            errors[seed] = str(exc)
    first, later = sorted(errors)[:2]
    ok = min(completed)
    seeds = [first, ok, later]

    engine = BatchedEventEngine(net, algorithm, seeds)
    with pytest.raises(ProtocolViolationError) as raised:
        engine.run(100)
    assert str(raised.value) == errors[first]
    # The clean trial ran to completion after the first trial aborted,
    # and the last trial ran up to its own violation.
    assert engine.completion_times()[1] == completed[ok].time
    assert engine.wake_times(1) == completed[ok].wake_times
    assert engine.trial_steps(2) == 1


# ---------------------------------------------------------------------------
# Degenerate batch shapes, each in exact parity with the serial engine.


def test_single_trial_batch_matches_serial():
    net = gnp_connected(24, 0.2, seed=3)
    _assert_batch_matches_serial(
        net, SelectAndSend(), [7], trace_level=TraceLevel.FULL, max_steps=4000,
    )


def test_single_node_network():
    """n=1: the source is every node — informed at birth, zero slots."""
    net = path(1)
    batched = _assert_batch_matches_serial(
        net, SelectAndSend(), [0, 1, 2], max_steps=100,
    )
    for result in batched:
        assert result.completed
        assert result.time == 0
        assert result.informed == 1
        assert result.wake_times == {net.source: -1}


def test_batch_settled_before_first_slot():
    """Crashing every non-source node at slot 0 settles the batch before
    any slot runs: nothing further can wake, zero slots execute."""
    net = path(5)
    plan = FaultPlan(
        crashes=tuple((label, 0) for label in set(net.nodes) - {net.source}),
    )
    engine = BatchedEventEngine(net, SelectAndSend(), seeds=[0, 1], faults=plan)
    assert engine.run(100) == 0
    _assert_batch_matches_serial(
        net, SelectAndSend(), [0, 1], faults=plan, max_steps=100,
    )


def test_batch_where_every_trial_settles_on_first_slot():
    """On a star the source informs every leaf in slot 0: each trial
    settles on the very first slot and the batch stops with it."""
    net = star(8)
    algorithm = RoundRobinBroadcast(net.r)
    batched = _assert_batch_matches_serial(
        net, algorithm, [0, 1, 5], max_steps=100,
    )
    for result in batched:
        assert result.completed
        assert result.time == 1
        assert all(slot == 0 for label, slot in result.wake_times.items()
                   if label != net.source)


def test_zero_step_budget():
    net = path(6)
    batched = _assert_batch_matches_serial(
        net, SelectAndSend(), [0, 1], max_steps=0,
    )
    for result in batched:
        assert not result.completed
        assert result.time == 0
        assert result.informed == 1


# ---------------------------------------------------------------------------
# Constructor validation


def test_rejects_empty_seed_list():
    with pytest.raises(ConfigurationError):
        BatchedEventEngine(path(4), SelectAndSend(), seeds=[])


def test_rejects_negative_budget():
    engine = BatchedEventEngine(path(4), SelectAndSend(), seeds=[0])
    with pytest.raises(ConfigurationError):
        engine.run(-1)


def test_duplicate_seeds_give_identical_trials():
    """Equal seeds run as separate trials and give identical executions."""
    net = gnp_connected(20, 0.25, seed=1)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius), stage_constant=4)
    results = simulate(
        net, algorithm, [3, 9, 3, 9, 3], engine="event", max_steps=4000,
    )
    assert [r.seed for r in results] == [3, 9, 3, 9, 3]
    assert results[0].wake_times == results[2].wake_times == results[4].wake_times
    assert results[1].wake_times == results[3].wake_times
