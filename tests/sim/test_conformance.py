"""Drive every registered engine through the shared conformance matrices.

The harness (``tests/sim/conformance.py``) owns the matrices, the runner,
and the assertion helpers; this module is just the loop.  Each matrix
cell computes the reference engine's outcome once and holds every other
engine in the ``repro.sim`` registry to execution identity against it —
including identical failures, slot-for-slot traces, and aggregated
metrics for the engines that record them comparably.  The last tests pin
the public entry points and what the driver does once for every engine.
"""

from __future__ import annotations

import pytest

from repro.baselines import RoundRobinBroadcast
from repro.core import KnownRadiusKP
from repro.sim import (
    ConfigurationError,
    ENGINES,
    run_broadcast,
    run_broadcast_batch,
    simulate,
)
from repro.sim.trace import TraceLevel
from repro.topology import gnp_random_csr, path

from .conformance import (
    ADAPTIVE_CASES,
    ADAPTIVE_PLANS,
    METRICS_COMPARABLE,
    OBLIVIOUS_ALGORITHMS,
    OBLIVIOUS_PLANS,
    OBLIVIOUS_TOPOLOGIES,
    SEEDS,
    adaptive_engines,
    all_engines,
    assert_outcomes_match,
    decay_crash_plan,
    full_fault_plan,
    run_engine,
)


@pytest.fixture(scope="module")
def networks():
    return {name: build() for name, build in OBLIVIOUS_TOPOLOGIES.items()}


@pytest.mark.parametrize("plan_name", sorted(OBLIVIOUS_PLANS))
@pytest.mark.parametrize("topo", sorted(OBLIVIOUS_TOPOLOGIES))
@pytest.mark.parametrize("algo_name", sorted(OBLIVIOUS_ALGORITHMS))
def test_all_engines_conform_oblivious(networks, algo_name, topo, plan_name):
    """Every registered engine, every oblivious algorithm, every topology,
    with and without a four-family fault plan.

    Faulty runs may legitimately settle incomplete (the crash can strand
    nodes) under the tight budget, so the assertion is execution identity
    — wake slots, executed-slot counts, fault counters — not completion.
    Every engine runs once plain — the production path: for the macro
    cell that is the uninstrumented block loop.  The engines in
    ``METRICS_COMPARABLE`` run a second time with ``metrics=`` and must
    also tally the reference engine's counters and histograms exactly.
    """
    net = networks[topo]
    make = OBLIVIOUS_ALGORITHMS[algo_name]
    plan = OBLIVIOUS_PLANS[plan_name](net)
    budget = 120 if plan is not None else 4000

    reference = run_engine(
        "reference", net, make, SEEDS, faults=plan, max_steps=budget,
        with_metrics=True,
    )
    if plan is None:
        for result in reference.results:
            assert result.completed, (algo_name, topo)
    for name in all_engines():
        if name == "reference":
            continue
        key = (name, algo_name, topo, plan_name)
        plain = run_engine(name, net, make, SEEDS, faults=plan, max_steps=budget)
        assert_outcomes_match(plain, reference, key=key)
        if name in METRICS_COMPARABLE:
            observed = run_engine(
                name, net, make, SEEDS, faults=plan, max_steps=budget,
                with_metrics=True,
            )
            assert_outcomes_match(
                observed, reference, key=(*key, "metrics"), compare_metrics=True,
            )


@pytest.mark.parametrize("plan_name", sorted(OBLIVIOUS_PLANS))
@pytest.mark.parametrize("topo", sorted(OBLIVIOUS_TOPOLOGIES))
@pytest.mark.parametrize("algo_name", sorted(OBLIVIOUS_ALGORITHMS))
def test_all_engines_record_identical_full_traces(
    networks, algo_name, topo, plan_name
):
    """The oblivious matrix again, at ``TraceLevel.FULL``: all four
    engines must record bit-identical channel traces, and the forensic
    reports derived from them — propagation DAG, slot taxonomy, summary
    scalars — must be bit-equal too (``assert_results_match`` derives
    and compares them whenever it sees a FULL trace)."""
    net = networks[topo]
    make = OBLIVIOUS_ALGORITHMS[algo_name]
    plan = OBLIVIOUS_PLANS[plan_name](net)
    budget = 120 if plan is not None else 4000

    reference = run_engine(
        "reference", net, make, SEEDS, faults=plan, max_steps=budget,
        trace_level=TraceLevel.FULL,
    )
    for name in all_engines():
        if name == "reference":
            continue
        candidate = run_engine(
            name, net, make, SEEDS, faults=plan, max_steps=budget,
            trace_level=TraceLevel.FULL,
        )
        assert_outcomes_match(
            candidate, reference, key=(name, algo_name, topo, plan_name),
            compare_traces=True,
        )


@pytest.mark.parametrize("topo", sorted(OBLIVIOUS_TOPOLOGIES))
def test_bgi_crash_inside_decay_run(networks, topo):
    """BGI under jam, loss and delay plus a crash that lands inside a
    Decay run (:func:`decay_crash_plan`): every engine, once with metrics
    and once with a FULL trace, against the reference.  On the macro
    engine that crash cuts a chain of transmitters mid-phase; the node
    must leave it for good."""
    net = networks[topo]
    make = OBLIVIOUS_ALGORITHMS["bgi"]
    plan, (crashed, crash_slot) = decay_crash_plan(net)
    reference = run_engine(
        "reference", net, make, SEEDS, faults=plan, max_steps=120,
        trace_level=TraceLevel.FULL, with_metrics=True,
    )
    for result in reference.results:
        assert all(
            crashed not in record.transmitters
            for record in result.trace.steps if record.step >= crash_slot
        ), topo
    for name in all_engines():
        if name == "reference":
            continue
        for level in (TraceLevel.NONE, TraceLevel.FULL):
            traced = level is TraceLevel.FULL
            candidate = run_engine(
                name, net, make, SEEDS, faults=plan, max_steps=120,
                trace_level=level, with_metrics=not traced,
            )
            assert_outcomes_match(
                candidate, reference, key=(name, topo, level.name),
                compare_traces=traced,
                compare_metrics=not traced and name in METRICS_COMPARABLE,
            )


@pytest.mark.parametrize("plan_name", sorted(ADAPTIVE_PLANS))
@pytest.mark.parametrize("case", sorted(ADAPTIVE_CASES))
def test_adaptive_engines_conform_slot_for_slot(case, plan_name):
    """The adaptive matrix with full instrumentation: protocol cases x
    fault plans, asserting slot-for-slot traces and aggregated metrics on
    every engine that can run arbitrary protocols."""
    build, make_algo, cd = ADAPTIVE_CASES[case]
    net = build()
    plan = ADAPTIVE_PLANS[plan_name](net)

    outcomes = {}
    for name in adaptive_engines():
        if cd and not ENGINES[name].collision_detection:
            continue
        outcomes[name] = run_engine(
            name, net, make_algo, SEEDS, faults=plan, max_steps=4000,
            trace_level=TraceLevel.FULL, collision_detection=cd,
            with_metrics=True,
        )
    reference = outcomes.pop("reference")
    assert reference.error is None, (case, plan_name)
    for name, candidate in outcomes.items():
        assert_outcomes_match(
            candidate, reference, key=(name, case, plan_name),
            compare_traces=True, compare_metrics=name in METRICS_COMPARABLE,
        )


def test_adaptive_engines_fail_identically_under_loss():
    """S&S Echo is not loss-tolerant: under 30% loss the reference run
    aborts with a protocol violation, and every adaptive engine must
    abort with exactly the same error (not silently diverge)."""
    from repro.core import SelectAndSend
    from repro.topology import gnp_connected

    net = gnp_connected(48, 0.12, seed=7)
    plan = full_fault_plan(net)
    make = lambda _net: SelectAndSend()  # noqa: E731

    reference = run_engine(
        "reference", net, make, SEEDS, faults=plan, max_steps=4000,
    )
    assert reference.error is not None  # the plan does break this run
    for name in adaptive_engines():
        if name == "reference":
            continue
        candidate = run_engine(
            name, net, make, SEEDS, faults=plan, max_steps=4000,
        )
        assert candidate.error == reference.error, name


@pytest.mark.parametrize("algo_name", ["kp-known-d", "bgi"])
def test_engines_agree_on_incomplete_runs(algo_name):
    """Under a tight step budget every engine stalls identically."""
    from repro.topology import km_hard_layered

    net = km_hard_layered(48, 4, seed=5)
    make = OBLIVIOUS_ALGORITHMS[algo_name]
    budget = 3

    reference = run_engine("reference", net, make, [1], max_steps=budget)
    (ref_result,) = reference.results
    assert not ref_result.completed
    assert ref_result.time == budget
    for name in all_engines():
        if name == "reference":
            continue
        candidate = run_engine(name, net, make, [1], max_steps=budget)
        assert_outcomes_match(candidate, reference, key=(name, algo_name))


@pytest.mark.parametrize("topo", sorted(OBLIVIOUS_TOPOLOGIES))
@pytest.mark.parametrize("algo_name", ["kp-known-d", "round-robin"])
def test_public_entry_points_agree(networks, topo, algo_name):
    """The user-facing drivers — one run each way — produce identical
    executions.  (The exhaustive matrix above goes through the shared
    runner; this pins the public API shape: default arguments, one seed
    at a time.)"""
    net = networks[topo]
    make = OBLIVIOUS_ALGORITHMS[algo_name]

    batched = run_broadcast_batch(net, make(net), seeds=SEEDS)
    for seed, from_batch in zip(SEEDS, batched):
        reference = run_broadcast(net, make(net), seed=seed)
        macro = run_broadcast(net, make(net), seed=seed, engine="macro")

        assert reference.completed and macro.completed and from_batch.completed, (
            topo, algo_name, seed,
        )
        assert macro.wake_times == reference.wake_times, (topo, algo_name, seed)
        assert from_batch.wake_times == reference.wake_times, (topo, algo_name, seed)
        assert macro.time == reference.time == from_batch.time
        assert macro.layer_times == reference.layer_times == from_batch.layer_times


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_negative_max_steps_rejected_on_every_engine(engine):
    """The driver validates the step limit and the seed list once, so no
    engine can turn ``max_steps=-1`` into a silent 0-slot result, or an
    empty seed list into an empty result list."""
    net = path(6)
    with pytest.raises(ConfigurationError, match="max_steps"):
        simulate(net, RoundRobinBroadcast(net.r), [0], engine=engine, max_steps=-1)
    with pytest.raises(ConfigurationError, match="seed"):
        simulate(net, RoundRobinBroadcast(net.r), [], engine=engine)
    with pytest.raises(ConfigurationError, match="seed"):
        run_broadcast_batch(net, RoundRobinBroadcast(net.r), seeds=[], engine=engine)


def test_csr_topologies_run_on_per_node_engines():
    """CSR-native topologies run on every engine: the driver converts
    them for the engines that need per-node adjacency."""
    net = gnp_random_csr(200, 8 / 200, seed=1)
    results = {
        engine: run_broadcast(
            net, KnownRadiusKP(net.r, net.radius), seed=3, engine=engine
        )
        for engine in ENGINES
    }
    reference = results.pop("reference")
    assert reference.completed
    for engine, result in results.items():
        assert result.wake_times == reference.wake_times, engine
        assert result.layer_times == reference.layer_times, engine
