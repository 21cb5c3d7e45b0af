"""Cross-engine conformance harness: one semantics, three execution strategies.

Every engine in :data:`repro.sim.ENGINES` — the per-node reference
:class:`~repro.sim.engine.SynchronousEngine`, the adaptive ``event``
engine :class:`~repro.sim.batched_event.BatchedEventEngine` (all of a
cell's seeds as one call, one event loop per seed), and the sparse
:class:`~repro.sim.macro.MacroStepEngine` (all of a cell's seeds as one
union) — is a pure execution strategy over the same synchronous radio
semantics.  When every seed gives the same execution (a deterministic
algorithm, no message loss), :func:`~repro.sim.simulate` runs only the
first seed on any engine; :func:`run_serial` and :func:`run_macro_union`
still run every seed, so the cells that need real per-seed executions
use them.  This module is the shared substrate the conformance tests
are built from:

* the canonical **matrices** (oblivious algorithms, adaptive protocol
  cases, topologies, fault plans, trial seeds);
* one **runner** (:func:`run_engine`) that drives any registered engine
  through :func:`~repro.sim.simulate` — adding an engine to the
  ``repro.sim`` registry puts it under the whole matrix — and the two
  every-seed runners named above;
* **comparison helpers** asserting slot-for-slot execution identity
  (results, traces, fault counters, aggregated metrics) against the
  reference engine, including identical *failures*;
* the **hint-honesty wrappers** (:class:`HintCheckedAlgorithm`) and the
  reusable hypothesis strategy for faulty cases.

The module name has no ``test_`` prefix on purpose: pytest does not
collect it, test modules import from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial

from hypothesis import strategies as st

from repro.baselines import (
    BGIBroadcast,
    CentralizedGreedySchedule,
    InterleavedBroadcast,
    KnownNeighborsDFS,
    RoundRobinBroadcast,
    SelectiveFamilyBroadcast,
)
from repro.core import (
    CompleteLayeredBroadcast,
    KnownRadiusKP,
    OptimalRandomizedBroadcasting,
    SelectAndSend,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import ENGINES, FaultPlan, simulate
from repro.sim.driver import EngineSpec, _assemble_results
from repro.sim.errors import ProtocolViolationError
from repro.sim.macro import MacroStepEngine
from repro.sim.messages import CollisionMarker
from repro.sim.protocol import BroadcastAlgorithm, Protocol
from repro.sim.trace import TraceLevel
from repro.topology import (
    gnp_connected,
    km_hard_layered,
    path,
    random_tree,
    star,
    uniform_complete_layered,
)

# ----------------------------------------------------------------------
# Canonical matrices
# ----------------------------------------------------------------------

#: Per-trial master seeds; a duplicate would still be legal (identical
#: executions) but distinct values exercise genuinely independent trials.
SEEDS = [0, 1, 5]

#: Oblivious algorithms (dual interface: BroadcastAlgorithm and
#: VectorizedAlgorithm) — every engine can run these.  Small stage
#: constants keep the randomized schedules short; every other parameter
#: is the library default.
OBLIVIOUS_ALGORITHMS = {
    "kp-known-d": lambda net: KnownRadiusKP(
        net.r, max(1, net.radius), stage_constant=4
    ),
    "kp-optimal": lambda net: OptimalRandomizedBroadcasting(net.r, stage_constant=4),
    "bgi": lambda net: BGIBroadcast(net.r),
    "round-robin": lambda net: RoundRobinBroadcast(net.r),
    "selective-family": lambda net: SelectiveFamilyBroadcast(net.r, "random"),
    "centralized": lambda net: CentralizedGreedySchedule(net),
}

#: Topologies for the oblivious matrix.
OBLIVIOUS_TOPOLOGIES = {
    "path": lambda: path(9),
    "star": lambda: star(8),
    "layered": lambda: uniform_complete_layered(30, 3),
    "km-hard": lambda: km_hard_layered(48, 4, seed=5),
}

#: Adaptive protocol cases: name -> (network builder, algorithm builder
#: taking the network, collision_detection).  Select-and-Send runs on
#: arbitrary topologies; Complete-Layered only on the complete layered
#: class it is correct for.  The interleaved cases run a hinted oblivious
#: protocol and Select-and-Send on alternate slots (e6's pairing and the
#: benchmark's randomized batch).  KnownNeighborsDFS implements no
#: ``quiet_until``: it exercises the unhinted default (polled every slot)
#: on the event engines.
ADAPTIVE_CASES = {
    "ss-path": (
        lambda: path(24, relabel="shuffled", seed=5),
        lambda net: SelectAndSend(),
        False,
    ),
    "ss-tree": (lambda: random_tree(32, seed=3), lambda net: SelectAndSend(), False),
    "ss-gnp": (
        lambda: gnp_connected(48, 0.12, seed=7),
        lambda net: SelectAndSend(),
        False,
    ),
    "cl-uniform": (
        lambda: uniform_complete_layered(48, 5, relabel_seed=2),
        lambda net: CompleteLayeredBroadcast(),
        False,
    ),
    "cl-km": (
        lambda: km_hard_layered(48, 6, seed=4),
        lambda net: CompleteLayeredBroadcast(),
        False,
    ),
    "cl-native-cd": (
        lambda: uniform_complete_layered(48, 5, relabel_seed=2),
        lambda net: CompleteLayeredBroadcast(native_cd=True),
        True,
    ),
    "interleaved-bgi-ss": (
        lambda: uniform_complete_layered(48, 5, relabel_seed=2),
        lambda net: InterleavedBroadcast(BGIBroadcast(net.r), SelectAndSend()),
        False,
    ),
    "interleaved-rr-ss": (
        lambda: path(24, relabel="shuffled", seed=5),
        lambda net: InterleavedBroadcast(RoundRobinBroadcast(net.r), SelectAndSend()),
        False,
    ),
    "dfs-unhinted": (
        lambda: random_tree(20, seed=3), lambda net: KnownNeighborsDFS(net), False
    ),
}


def crash_jam_delay_plan(net) -> FaultPlan:
    """All fault families except loss (the adaptive token algorithms are
    not loss-tolerant; the loss case is tested as identical *failure*)."""
    labels = sorted(set(net.nodes) - {net.source})
    return FaultPlan(
        crashes=((labels[-1], 9),),
        jams=tuple((slot, labels[0]) for slot in range(6)),
        wake_delays=((labels[1], 7),),
        seed=23,
    )


def full_fault_plan(net) -> FaultPlan:
    """A nontrivial plan touching all four fault families (loss 0.3)
    without disconnecting the source — for loss-tolerant algorithms."""
    labels = sorted(set(net.nodes) - {net.source})
    return FaultPlan(
        crashes=((labels[-1], 9),),
        jams=tuple((slot, labels[0]) for slot in range(6)),
        loss_probability=0.3,
        wake_delays=((labels[1], 7),),
        seed=23,
    )


def decay_crash_plan(net) -> tuple[FaultPlan, tuple[int, int]]:
    """:func:`full_fault_plan` plus a crash inside a BGI Decay run.

    In the reference run of ``SEEDS[0]`` under the full plan, the first
    node (neither the source nor already crashing) that transmits in two
    consecutive slots of one phase crashes at the second: the run is
    unchanged up to that slot, where the node would have stayed in its
    chain.  Returns the plan and that ``(label, crash slot)``.
    """
    plan = full_fault_plan(net)
    skip = {net.source, *(label for label, _ in plan.crashes)}
    algo = BGIBroadcast(net.r)
    (result,) = simulate(net, algo, SEEDS[:1], engine="reference", faults=plan,
                         max_steps=120, trace_level=TraceLevel.FULL)
    previous: tuple = ()
    for record in result.trace.steps:
        if record.step % algo.phase_len:
            for label in record.transmitters:
                if label not in skip and label in previous:
                    crash = (label, record.step)
                    return replace(plan, crashes=(*plan.crashes, crash)), crash
        previous = record.transmitters
    raise AssertionError("no Decay run lasts two slots on this network")


#: Fault-plan axes.  The oblivious algorithms tolerate loss, the token
#: protocols do not (their loss behaviour is pinned as identical failure).
OBLIVIOUS_PLANS = {"none": lambda net: None, "faulty": full_fault_plan}
ADAPTIVE_PLANS = {"none": lambda net: None, "crash-jam-delay": crash_jam_delay_plan}


# ----------------------------------------------------------------------
# Engines: the repro.sim registry, driven through one runner
# ----------------------------------------------------------------------

#: Engines the matrix holds to metrics identity with the reference
#: engine: every registered one.  The ``event`` and ``macro`` cells run
#: the seeds as one call, so they also pin batch counter parity.
METRICS_COMPARABLE = {"reference", "event", "macro"}


def engine_spec(name: str) -> EngineSpec:
    """The registry entry a conformance cell runs.  The ``macro`` cell
    runs its seeds as one union at block size 37, not the default 64, so
    the small matrix topologies cross block boundaries (and instrumented
    runs decode the macro plan across blocks)."""
    if name != "macro":
        return ENGINES[name]
    return replace(
        ENGINES["macro"], engine_cls=partial(MacroStepEngine, block_size=37)
    )


@dataclass(frozen=True)
class Outcome:
    """What one engine produced for a seed list: per-trial results in
    seed order, the aggregated metrics snapshot (``None`` when the run
    was uninstrumented), and the stringified first protocol violation
    (``None`` on clean runs; results are unspecified when set)."""

    results: tuple = ()
    metrics: dict | None = None
    error: str | None = None


def run_engine(engine, net, make_algo, seeds, faults=None, max_steps=4000,
               trace_level=TraceLevel.NONE, collision_detection=False,
               with_metrics=False) -> Outcome:
    """One independent run per seed on a registered engine, through
    :func:`~repro.sim.simulate` — the reference engine loops over the
    seeds, batch engines run them at once, one shared metrics registry
    either way."""
    metrics = MetricsRegistry() if with_metrics else None
    try:
        results = simulate(
            net, make_algo(net), seeds, engine=engine_spec(engine), faults=faults,
            max_steps=max_steps, trace_level=trace_level,
            collision_detection=collision_detection, metrics=metrics,
        )
    except ProtocolViolationError as exc:
        return Outcome((), None, str(exc))
    return Outcome(tuple(results), metrics.to_dict() if metrics else None, None)


def run_serial(net, make_algo, seeds, faults=None, max_steps=4000,
               trace_level=TraceLevel.NONE, with_metrics=False) -> Outcome:
    """One single-seed reference call per seed, one shared metrics
    registry: ``len(seeds)`` real executions, whatever :func:`simulate`
    collapses for a multi-seed call."""
    metrics = MetricsRegistry() if with_metrics else None
    results = []
    try:
        for seed in seeds:
            results += simulate(
                net, make_algo(net), [seed], engine="reference", faults=faults,
                max_steps=max_steps, trace_level=trace_level, metrics=metrics,
            )
    except ProtocolViolationError as exc:
        return Outcome((), None, str(exc))
    return Outcome(tuple(results), metrics.to_dict() if metrics else None, None)


def run_macro_union(net, make_algo, seeds, faults=None, max_steps=4000,
                    trace_level=TraceLevel.NONE, with_metrics=False) -> Outcome:
    """All seeds as one :class:`~repro.sim.macro.MacroStepEngine` union at
    the matrix's block size, built directly: :func:`simulate` runs one
    seed of a deterministic, loss-free call, so only this reaches the
    union path of such schedules (label-set slots offset per copy)."""
    algorithm = make_algo(net)
    metrics = MetricsRegistry() if with_metrics else None
    engine = MacroStepEngine(
        net, algorithm, seeds, block_size=37, faults=faults, metrics=metrics,
        trace_level=trace_level,
    )
    engine.run(max_steps)
    results = _assemble_results(net, algorithm, engine, seeds, None, metrics)
    return Outcome(tuple(results), metrics.to_dict() if metrics else None, None)


def adaptive_engines() -> list[str]:
    """Engines able to run arbitrary protocols (reference first)."""
    return [n for n in all_engines() if not engine_spec(n).oblivious_only]


def all_engines() -> list[str]:
    """Every registered engine, reference first."""
    return sorted(ENGINES, key=lambda n: (n != "reference", n))


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def assert_results_match(candidate, reference, key, compare_traces=False):
    """Execution identity of one trial: the candidate engine's result
    must equal the reference engine's, field for field."""
    assert candidate.completed == reference.completed, key
    assert candidate.time == reference.time, key
    assert candidate.informed == reference.informed, key
    assert candidate.seed == reference.seed, key
    assert candidate.wake_times == reference.wake_times, key
    assert candidate.layer_times == reference.layer_times, key
    assert candidate.fault_counters == reference.fault_counters, key
    if compare_traces:
        # Slot-for-slot: every synthesized (compressed) slot must appear
        # in the trace exactly as the reference engine's executed slot.
        assert candidate.trace.steps == reference.trace.steps, key
        assert (
            candidate.trace.informed_counts == reference.trace.informed_counts
        ), key
        assert candidate.trace.wake_times == reference.trace.wake_times, key
        if (
            candidate.trace.level is TraceLevel.FULL
            and len(candidate.trace.initially_informed()) == 1
        ):
            # Forensic identity rides on trace identity, but assert it
            # end to end anyway: the derived DAG, slot taxonomy, and
            # summary scalars must be bit-equal across engines.
            from repro.obs.forensics import analyze

            assert (
                analyze(candidate).to_dict() == analyze(reference).to_dict()
            ), key


def assert_outcomes_match(candidate: Outcome, reference: Outcome, key,
                          compare_traces=False, compare_metrics=False):
    """Full conformance of one matrix cell against the reference engine.

    Clean runs must agree trial by trial (plus aggregated metrics when
    requested); failing runs must fail with the *same* error — the one a
    serial seed-order loop surfaces first.
    """
    assert candidate.error == reference.error, key
    if reference.error is not None:
        return
    assert len(candidate.results) == len(reference.results), key
    for i, (mine, theirs) in enumerate(zip(candidate.results, reference.results)):
        assert_results_match(mine, theirs, (*key, "trial", i), compare_traces)
    if compare_metrics:
        assert candidate.metrics == reference.metrics, key


# ----------------------------------------------------------------------
# Hint honesty: quiet promises can never hide an action.
# ----------------------------------------------------------------------


class HintCheckedProtocol(Protocol):
    """Wrapper asserting the inner protocol honours its quiet promises.

    Runs on any engine that polls every slot (the reference engine does;
    the event engines delegate polled slots to the same code path).
    Whenever the inner hint promises quiet through ``s``, every polled
    slot before ``s`` must yield ``next_action(...) is None`` — the
    actionable half of the ``quiet_until`` contract.  A message delivery
    voids the promise, exactly as the event engines treat it — unless
    the inner ``observe`` reports it a no-op (returns ``False``): then
    the promise stands, and the hint for the next slot must read the same
    before and after the delivery.
    """

    def __init__(self, inner: Protocol):
        super().__init__(inner.label, inner.r, inner.rng)
        self._inner = inner
        self._promised_until = -1
        self._promised_at = -1

    def on_wake(self, step, message):
        # The engine stamped the wrapper; oblivious inner protocols read
        # their own wake step to decide eligibility.
        self._inner.wake_step = step
        self._inner.on_wake(step, message)

    def quiet_until(self, step):
        return self._inner.quiet_until(step)

    def next_action(self, step):
        quiet = self._inner.quiet_until(step)
        assert quiet >= step, (
            f"node {self.label}: quiet_until({step}) = {quiet} points backwards"
        )
        action = self._inner.next_action(step)
        if step < self._promised_until:
            assert action is None, (
                f"node {self.label} acted in slot {step} despite promising "
                f"(at slot {self._promised_at}) quiet until "
                f"{self._promised_until}"
            )
        if quiet > step:
            assert action is None, (
                f"node {self.label} acted in slot {step} while hinting "
                f"quiet until {quiet}"
            )
            if quiet > self._promised_until:
                self._promised_until = quiet
                self._promised_at = step
        return action

    def observe(self, step, message):
        if message is None or isinstance(message, CollisionMarker):
            # Silence and CD markers do NOT void the promise: keeping the
            # recorded promise across them is what catches a protocol
            # whose quiet window is secretly marker-sensitive.
            return self._inner.observe(step, message)
        before = self._inner.quiet_until(step + 1)
        changed = self._inner.observe(step, message)
        if changed is False:
            # A no-op delivery: the event engines keep the standing
            # promise, so the hint it came from must still read the same.
            after = self._inner.quiet_until(step + 1)
            assert after == before, (
                f"node {self.label} reported the delivery in slot {step} a "
                f"no-op, but quiet_until({step + 1}) went from {before} to "
                f"{after}"
            )
        else:
            # A real delivery voids the promise (the event engines re-poll
            # the receiver).
            self._promised_until = -1
        return changed


class HintCheckedAlgorithm(BroadcastAlgorithm):
    """Wraps an algorithm so every node checks its own hint honesty."""

    def __init__(self, inner: BroadcastAlgorithm):
        self._inner = inner
        self.name = f"hint-checked({inner.name})"
        self.deterministic = inner.deterministic

    def create(self, label: int, r: int, rng: random.Random) -> Protocol:
        return HintCheckedProtocol(self._inner.create(label, r, rng))

    def max_steps_hint(self, n: int, r: int) -> int | None:
        return self._inner.max_steps_hint(n, r)


# ----------------------------------------------------------------------
# Reusable hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def faulty_cases(draw):
    """A small network plus a crash (and maybe loss) plan; yields
    ``(net, plan, crashed_label, crash_slot)``."""
    kind = draw(st.sampled_from(["path", "star", "gnp"]))
    n = draw(st.integers(min_value=4, max_value=14))
    if kind == "path":
        net = path(n)
    elif kind == "star":
        net = star(n)
    else:
        net = gnp_connected(n, 0.4, seed=draw(st.integers(0, 5)))
    labels = sorted(set(net.nodes) - {net.source})
    crashed = draw(st.sampled_from(labels))
    crash_slot = draw(st.integers(min_value=0, max_value=20))
    plan = FaultPlan(
        crashes=((crashed, crash_slot),),
        loss_probability=draw(st.sampled_from([0.0, 0.4])),
        seed=draw(st.integers(0, 3)),
    )
    return net, plan, crashed, crash_slot


@st.composite
def adaptive_faulty_networks(draw):
    """A random topology plus a lossless fault plan — the shapes the
    hint-honesty and batched-event property tests draw from."""
    n = draw(st.integers(min_value=6, max_value=40))
    topo_seed = draw(st.integers(min_value=0, max_value=10_000))
    family = draw(st.sampled_from(["path", "tree", "gnp"]))
    if family == "path":
        net = path(n, relabel="shuffled", seed=topo_seed)
    elif family == "tree":
        net = random_tree(n, seed=topo_seed)
    else:
        net = gnp_connected(n, min(0.9, 4.0 / n), seed=topo_seed)
    labels = sorted(set(net.nodes) - {net.source})
    plan = FaultPlan(
        crashes=((labels[-1], draw(st.integers(0, 60))),),
        jams=tuple(
            (slot, labels[0]) for slot in range(draw(st.integers(0, 8)))
        ),
        wake_delays=(
            (labels[min(1, len(labels) - 1)], draw(st.integers(0, 40))),
        ),
        seed=topo_seed,
    )
    return net, plan
