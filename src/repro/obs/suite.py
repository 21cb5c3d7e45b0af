"""The default benchmark suite (importing this module registers it).

Each entry couples a pinned workload to the registry's timing protocol;
``repro bench``, ``benchmarks/test_pairs.py`` and the pytest-benchmark
runs in ``benchmarks/`` import the *same* definitions, so a workload is
declared exactly once.  The hard layered networks are the
Clementi–Monti–Silvestri-style instances the paper's sweeps run on,
which is what makes these numbers meaningful as a trajectory: every
record measures the same hot path the experiments exercise.

Workload builders do all setup (topology generation, registry
construction) outside the timed thunk.  ``quick=True`` shrinks every
workload to CI-smoke size — same code paths, smaller n/trials.

Overhead and speedup claims are *pairs*: an entry that names a
``reference`` entry, a ``max_ratio`` bound on its time over the
reference's, and a ``check`` that both sides computed the same thing
(see :mod:`repro.obs.bench`).  The overhead pairs (metrics, spans,
forensics) are timed against ``batched_engine``; the speedup pairs
against an entry that runs the same workload the slow way.
``benchmarks/test_pairs.py`` asserts every bound at full size.

This module imports the simulation stack, so — like
:mod:`repro.obs.report` — it stays out of ``repro.obs.__init__``.
"""

from __future__ import annotations

from .bench import DEFAULT_REGISTRY, BenchmarkRegistry, register
from .metrics import MetricsRegistry

__all__ = [
    "adaptive_workload",
    "batched_adaptive_workload",
    "batched_workload",
    "default_registry",
    "interleaved_adaptive_workload",
    "million_node_workload",
]


def default_registry() -> BenchmarkRegistry:
    """The fully-populated default registry (registration is import-time)."""
    return DEFAULT_REGISTRY


def batched_workload(quick: bool = False):
    """The canonical batched-engine workload: (network, algorithm, trials).

    The ``batched_engine`` entry runs it plain; the ``obs_overhead``,
    ``telemetry_overhead`` and ``forensics_overhead`` pairs run it
    observed and are timed against ``batched_engine``.
    """
    from ..core import KnownRadiusKP
    from ..topology import km_hard_layered

    net = km_hard_layered(128, 32, seed=17)
    algorithm = KnownRadiusKP(net.r, 32)
    trials = 200 if quick else 1000
    return net, algorithm, trials


def adaptive_workload(quick: bool = False):
    """The canonical adaptive-engine workload: (network, algorithm).

    E4's G(n, p) family at its largest full size — the Select-and-Send
    run the event-driven engine exists to accelerate.  The
    ``adaptive_engine`` pair runs it on the event engine against
    ``adaptive_reference_engine``, the polling reference engine.
    """
    from ..core import SelectAndSend
    from ..topology import gnp_connected

    n = 256 if quick else 512
    net = gnp_connected(n, 6.0 / n, seed=5)
    return net, SelectAndSend()


def batched_adaptive_workload(quick: bool = False):
    """The batched adaptive workload: (network, algorithm, seeds).

    The same e4 Select-and-Send run as :func:`adaptive_workload`, but as
    a Monte-Carlo batch on the ``event`` engine, whose execution-class
    collapse turns the deterministic batch into one representative run.
    The ``batched_adaptive_engine`` pair times one call over the batch
    against ``batched_adaptive_serial``, one-seed event calls.
    """
    from ..sim import derive_trial_seeds

    net, algorithm = adaptive_workload(quick)
    return net, algorithm, derive_trial_seeds(0, 4 if quick else 8)


def interleaved_adaptive_workload(quick: bool = False):
    """The randomized adaptive batch: (network, algorithm, seeds).

    E6's interleaving with BGI Decay in place of round-robin, as a
    Monte-Carlo batch on a complete layered network — every trial is its
    own execution class, so this measures the idle hints of Decay and the
    interleaver rather than the deterministic collapse that
    :func:`batched_adaptive_workload` measures.  The
    ``interleaved_adaptive_engine`` pair times one event call against
    ``interleaved_adaptive_reference``, serial reference-engine runs.
    """
    from ..baselines import BGIBroadcast, InterleavedBroadcast
    from ..core import SelectAndSend
    from ..sim import derive_trial_seeds
    from ..topology import uniform_complete_layered

    n, depth, trials = (128, 8, 4) if quick else (256, 16, 12)
    net = uniform_complete_layered(n, depth, relabel_seed=3)
    algorithm = InterleavedBroadcast(BGIBroadcast(net.r), SelectAndSend())
    return net, algorithm, derive_trial_seeds(0, trials)


def _kp_repeat_workload(quick: bool):
    """E1's quick-sweep unit at full size: (network, KP, runs), KP on
    ``km_hard_layered(256, 64)`` over 5 trials."""
    from ..core import KnownRadiusKP
    from ..topology import km_hard_layered

    n, depth, runs = (128, 32, 3) if quick else (256, 64, 5)
    net = km_hard_layered(n, depth, seed=17)
    return net, KnownRadiusKP(net.r, depth), runs


def _same_trials(reference, output) -> None:
    """Both sides give the same completion, slots and wake times, trial
    by trial (a single result counts as a one-trial batch)."""
    if not isinstance(reference, list):
        reference, output = [reference], [output]

    def outcomes(results):
        return [(r.completed, r.time, r.wake_times) for r in results]

    if outcomes(output) != outcomes(reference):
        raise AssertionError(
            "pair sides disagree on completion, slots or wake times"
        )


def _both_inform_everyone(reference, output) -> None:
    """Both sides' runs inform every node of the network."""
    for side, result in (("reference", reference), ("subject", output)):
        if result.informed != result.n:
            raise AssertionError(
                f"{side} informed {result.informed} of {result.n} nodes"
            )


def _same_forensics(reference, reports) -> None:
    """FULL tracing plus ``analyze`` reproduces the plain batch: the same
    slots and the same wake slot per node (the source wakes at -1)."""
    if [r.slots for r in reports] != [r.time for r in reference] or [
        r.dag.wake_slots for r in reports
    ] != [{0: -1, **r.wake_times} for r in reference]:
        raise AssertionError("forensic reports disagree with the plain batch")


def _same_network(reference, output) -> None:
    """Both builders give the same node and edge counts."""
    if (output.n, output.num_edges) != (reference.n, reference.num_edges):
        raise AssertionError(
            f"built {output.n} nodes / {output.num_edges} edges, reference "
            f"{reference.n} / {reference.num_edges}"
        )


@register(
    "reference_engine",
    tags=("engine", "reference"),
    description="Per-node reference engine, round-robin on km_hard_layered",
)
def _reference_engine(quick: bool):
    from ..baselines import RoundRobinBroadcast
    from ..sim import run_broadcast
    from ..topology import km_hard_layered

    n, depth = (48, 8) if quick else (96, 16)
    net = km_hard_layered(n, depth, seed=3)
    algorithm = RoundRobinBroadcast(net.r)
    return lambda: run_broadcast(net, algorithm, seed=1)


@register(
    "selective_union_engine",
    tags=("engine", "macro", "batch"),
    description="Macro engine, the selective-family schedule's label-set "
    "plan as one 16-seed union on km_hard_layered",
)
def _selective_union_engine(quick: bool):
    from ..baselines import SelectiveFamilyBroadcast
    from ..sim import run_broadcast_batch
    from ..topology import km_hard_layered

    n, depth = (1024, 64) if quick else (2048, 128)
    net = km_hard_layered(n, depth, seed=3)
    algorithm = SelectiveFamilyBroadcast(net.r)
    return lambda: run_broadcast_batch(net, algorithm, trials=16, engine="macro")


@register(
    "decay_union_engine",
    tags=("engine", "macro", "batch"),
    description="Macro engine, BGI's chained Decay plan as one 16-seed "
    "union on e1's km_hard_layered",
)
def _decay_union_engine(quick: bool):
    from ..baselines import BGIBroadcast
    from ..sim import run_broadcast_batch
    from ..topology import km_hard_layered

    n, depth = (256, 64) if quick else (1024, 256)
    net = km_hard_layered(n, depth, seed=17)
    algorithm = BGIBroadcast(net.r)
    return lambda: run_broadcast_batch(net, algorithm, trials=16, engine="macro")


@register(
    "batched_engine",
    tags=("engine", "batch"),
    description="Batched Monte-Carlo engine, KP on km_hard_layered",
)
def _batched_engine(quick: bool):
    from ..sim import repeat_broadcast

    net, algorithm, trials = batched_workload(quick)
    return lambda: repeat_broadcast(net, algorithm, runs=trials)


@register(
    "adaptive_reference_engine",
    tags=("engine", "reference", "adaptive"),
    description="Polling reference engine, Select-and-Send on e4's G(n, p)",
)
def _adaptive_reference_engine(quick: bool):
    from ..sim import run_broadcast

    net, algorithm = adaptive_workload(quick)
    return lambda: run_broadcast(
        net, algorithm, require_completion=True, engine="reference"
    )


@register(
    "adaptive_engine",
    tags=("engine", "event", "adaptive"),
    reference="adaptive_reference_engine",
    max_ratio=1 / 5,
    check=_same_trials,
    description="Event-driven engine, Select-and-Send on e4's G(n, p)",
)
def _adaptive_engine(quick: bool):
    from ..sim import run_broadcast

    net, algorithm = adaptive_workload(quick)
    return lambda: run_broadcast(
        net, algorithm, require_completion=True, engine="event"
    )


@register(
    "batched_adaptive_serial",
    tags=("engine", "event", "adaptive"),
    description="Event engine, Select-and-Send one seed per call on e4's G(n, p)",
)
def _batched_adaptive_serial(quick: bool):
    from ..sim import run_broadcast

    net, algorithm, seeds = batched_adaptive_workload(quick)
    return lambda: [
        run_broadcast(
            net, algorithm, seed=seed, require_completion=True, engine="event"
        )
        for seed in seeds
    ]


@register(
    "batched_adaptive_engine",
    tags=("engine", "event", "adaptive", "batch"),
    reference="batched_adaptive_serial",
    max_ratio=1 / 5,
    check=_same_trials,
    description="Event engine, Select-and-Send Monte-Carlo batch on e4's G(n, p)",
)
def _batched_adaptive_engine(quick: bool):
    # run_broadcast_batch, not repeat_broadcast: the driver's own
    # deterministic collapse would shrink the batch to one run before the
    # engine is involved — this bench measures the engine's class collapse.
    from ..sim import run_broadcast_batch

    net, algorithm, seeds = batched_adaptive_workload(quick)
    return lambda: run_broadcast_batch(net, algorithm, seeds=seeds, engine="event")


@register(
    "interleaved_adaptive_reference",
    tags=("engine", "reference", "adaptive"),
    description="Polling reference engine, interleaved BGI + Select-and-Send "
    "one seed per call on uniform_complete_layered",
)
def _interleaved_adaptive_reference(quick: bool):
    from ..sim import run_broadcast

    net, algorithm, seeds = interleaved_adaptive_workload(quick)
    return lambda: [
        run_broadcast(net, algorithm, seed=seed, require_completion=True)
        for seed in seeds
    ]


@register(
    "interleaved_adaptive_engine",
    tags=("engine", "event", "adaptive", "batch"),
    # Every trial is its own execution class, so the margin over polling comes
    # only from the idle hints of Decay and the interleaver (measured
    # 1.1-1.6x; ~0.6x before those hints existed).
    reference="interleaved_adaptive_reference",
    max_ratio=1.0,
    check=_same_trials,
    description="Event engine, interleaved BGI + Select-and-Send "
    "Monte-Carlo batch on uniform_complete_layered",
)
def _interleaved_adaptive_engine(quick: bool):
    from ..sim import run_broadcast_batch

    net, algorithm, seeds = interleaved_adaptive_workload(quick)
    return lambda: run_broadcast_batch(net, algorithm, seeds=seeds, engine="event")


@register(
    "kp_repeat_reference",
    tags=("engine", "reference"),
    description="repeat_broadcast on the per-node reference engine, KP on "
    "e1's km_hard_layered",
)
def _kp_repeat_reference(quick: bool):
    from ..sim import repeat_broadcast

    net, algorithm, runs = _kp_repeat_workload(quick)
    return lambda: repeat_broadcast(net, algorithm, runs=runs, engine="reference")


@register(
    "kp_repeat_union",
    tags=("engine", "macro", "batch"),
    reference="kp_repeat_reference",
    max_ratio=1 / 5,
    check=_same_trials,
    description="repeat_broadcast as one macro union, KP on e1's km_hard_layered",
)
def _kp_repeat_union(quick: bool):
    from ..sim import repeat_broadcast

    net, algorithm, runs = _kp_repeat_workload(quick)
    return lambda: repeat_broadcast(net, algorithm, runs=runs)


@register(
    "obs_overhead",
    tags=("engine", "batch", "obs"),
    reference="batched_engine",
    # Per-slot collision tallies over 1000-row arrays and a coin for every
    # eligible node (interior ones included, for the transmission counts)
    # are real work: the cost must stay bounded, not free.
    max_ratio=2.0,
    check=_same_trials,
    description="Instrumented batched run (metrics on) — the obs cost itself",
)
def _obs_overhead(quick: bool):
    from ..sim import repeat_broadcast

    net, algorithm, trials = batched_workload(quick)
    return lambda: repeat_broadcast(
        net, algorithm, runs=trials, metrics=MetricsRegistry()
    )


@register(
    "telemetry_overhead",
    tags=("engine", "batch", "obs", "telemetry"),
    # Span recording rides on the Timings accumulator (stage spans are
    # synthesized from deltas), so it may cost at most 10% over plain.
    # Host noise on one full-size call is ~15%, so the bound needs more
    # rounds than the default before the two minima settle.
    repeats=11,
    reference="batched_engine",
    max_ratio=1.10,
    check=_same_trials,
    description="Batched run with span recording on — the telemetry cost itself",
)
def _telemetry_overhead(quick: bool):
    # A SpanRecorder draining into a no-op sink: the worker-side cost of
    # span recording and stage synthesis, without the pipe or the runlog.
    from ..sim import repeat_broadcast
    from .spans import SpanRecorder

    net, algorithm, trials = batched_workload(quick)

    def telemetered():
        recorder = SpanRecorder(sink=lambda event: None)
        with recorder.span("point", "point"):
            return repeat_broadcast(net, algorithm, runs=trials, spans=recorder)

    return telemetered


@register(
    "forensics_overhead",
    tags=("engine", "batch", "obs", "forensics"),
    # Columnar FULL traces + array analysis stay a small multiple of the
    # plain run; shared runners are too noisy for this bound, so it holds
    # only under REPRO_BENCH_STRICT=1.
    reference="batched_engine",
    max_ratio=3.0,
    strict_ratio=True,
    check=_same_forensics,
    description="Batched run at TraceLevel.FULL + per-trial forensic analysis",
)
def _forensics_overhead(quick: bool):
    from ..sim import run_broadcast_batch
    from ..sim.trace import TraceLevel
    from .forensics import analyze

    net, algorithm, trials = batched_workload(quick)

    def forensic():
        results = run_broadcast_batch(
            net, algorithm, trials=trials, engine="auto",
            trace_level=TraceLevel.FULL,
        )
        return [analyze(result, algorithm=algorithm) for result in results]

    return forensic


@register(
    "sweep_pool",
    tags=("sweep", "pool"),
    repeats=3,
    quick_repeats=2,
    description="End-to-end run_sweep on the worker pool (uncached)",
)
def _sweep_pool(quick: bool):
    from ..sweep import SweepSpec, run_sweep

    sizes = [24, 48] if quick else [32, 64, 96]
    spec = SweepSpec.from_dict({
        "name": "bench-pool",
        "topology": "km-layered",
        "algorithm": "kp-known-d",
        "topology_grid": {"n": sizes, "depth": 4},
        "algorithm_grid": {"stage_constant": 8},
        "trials": 3 if quick else 10,
    })
    return lambda: run_sweep(spec, workers=2, cache=None)


def _deep_layered_workload(quick: bool):
    """A deep, thin hard instance: ``km_hard_layered_csr(n, 512)``.

    A long chain of small layers, where most informed nodes have no
    uninformed neighbour left.  The ``kp_deep_layered`` pair runs plain KP
    on it against ``bgi_deep_layered``: BGI's Decay openings and KP's
    stage prefixes both drop such nodes from the macro engine's awake
    list, so neither side pays for them.
    """
    from ..topology import km_hard_layered_csr

    return km_hard_layered_csr(20_000 if quick else 100_000, 512, seed=0)


@register(
    "bgi_deep_layered",
    tags=("engine", "macro", "scale"),
    description="Macro engine, BGI on km_hard_layered_csr(n, 512)",
)
def _bgi_deep_layered(quick: bool):
    from ..baselines import BGIBroadcast
    from ..sim import run_broadcast_macro

    net = _deep_layered_workload(quick)
    return lambda: run_broadcast_macro(net, BGIBroadcast(net.r), seed=0)


@register(
    "kp_deep_layered",
    tags=("engine", "macro", "scale"),
    # KP's stages run on the frontier of the awake list, as BGI's Decay
    # runs do (measured 1.4-1.7x; ~15x while every informed node
    # transmitted).
    reference="bgi_deep_layered",
    max_ratio=3.0,
    check=_both_inform_everyone,
    description="Macro engine, plain KP known-D on km_hard_layered_csr(n, 512)",
)
def _kp_deep_layered(quick: bool):
    from ..core import KnownRadiusKP
    from ..sim import run_broadcast_macro

    net = _deep_layered_workload(quick)
    return lambda: run_broadcast_macro(net, KnownRadiusKP(net.r, 512), seed=0)


def million_node_workload(quick: bool = False):
    """The macro-step engine's canonical workload: (network, algorithm).

    A sparse G(n, p) at the scale the macro path exists for — average
    degree 10, KP known-radius schedule.  Shared by the
    ``million_node_engine`` bench and ``benchmarks/test_macro_engine.py``
    so the bench and the union-identity gate run the same workload.
    """
    from ..core import KnownRadiusKP
    from ..topology import gnp_random_csr

    n = 20_000 if quick else 100_000
    net = gnp_random_csr(n, 10 / n, seed=11)
    algorithm = KnownRadiusKP(net.r, max(1, net.radius))
    return net, algorithm


@register(
    "million_node_engine",
    tags=("engine", "macro", "scale"),
    description="Macro-step engine, KP known-radius on sparse G(n, p)",
)
def _million_node_engine(quick: bool):
    from ..sim import run_broadcast_macro

    net, algorithm = million_node_workload(quick)
    return lambda: run_broadcast_macro(net, algorithm, seed=1)


@register(
    "topology_generation",
    tags=("topology",),
    description="km_hard_layered hard-instance construction",
)
def _topology_generation(quick: bool):
    from ..topology import km_hard_layered

    n, depth = (512, 64) if quick else (2048, 128)
    return lambda: km_hard_layered(n, depth, seed=7)


@register(
    "topology_layered_legacy",
    tags=("topology",),
    description="km_hard_layered on the dict-of-sets builder, n = 20000",
)
def _topology_layered_legacy(quick: bool):
    from ..topology import km_hard_layered

    n = 5_000 if quick else 20_000
    return lambda: km_hard_layered(n, 16, seed=7)


@register(
    "topology_layered_csr",
    tags=("topology", "scale"),
    reference="topology_layered_legacy",
    max_ratio=1 / 2,
    check=_same_network,
    description="CSR-native km_hard_layered_csr, the same instance as "
    "topology_layered_legacy",
)
def _topology_layered_csr(quick: bool):
    from ..topology import km_hard_layered_csr

    n = 5_000 if quick else 20_000
    return lambda: km_hard_layered_csr(n, 16, seed=7)


@register(
    "topology_csr_generation",
    tags=("topology", "scale"),
    description="CSR-native sparse G(n, p) construction (skip sampling)",
)
def _topology_csr_generation(quick: bool):
    from ..topology import gnp_random_csr

    n = 100_000 if quick else 1_000_000
    return lambda: gnp_random_csr(n, 10 / n, seed=7)


@register(
    "universal_sequence",
    tags=("combinatorics",),
    description="Lemma 1 universal-sequence construction",
)
def _universal_sequence(quick: bool):
    from ..combinatorics import build_universal_sequence

    r, d = (1024, 256) if quick else (4096, 1024)
    return lambda: build_universal_sequence(r, d)
