"""The default benchmark suite (importing this module registers it).

Each entry couples a pinned workload to the registry's timing protocol;
``repro bench`` and the pytest benchmarks (``benchmarks/test_*.py``)
import the *same* definitions, so a workload is declared exactly once.
The hard layered networks are the Clementi–Monti–Silvestri-style
instances the paper's sweeps run on, which is what makes these numbers
meaningful as a trajectory: every record measures the same hot path the
experiments exercise.

Workload builders do all setup (topology generation, registry
construction) outside the timed thunk.  ``quick=True`` shrinks every
workload to CI-smoke size — same code paths, smaller n/trials.

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
    "forensics_overhead_workload",
    "interleaved_adaptive_workload",
    "million_node_workload",
    "obs_overhead_workload",
    "telemetry_overhead_workload",
]


def default_registry() -> BenchmarkRegistry:
    """The fully-populated default registry (registration is import-time)."""
    return DEFAULT_REGISTRY


def batched_workload(quick: bool = False):
    """The canonical batched-engine workload: (network, algorithm, trials).

    Shared by the ``batched_engine`` / ``obs_overhead`` benches and
    ``benchmarks/test_obs_overhead.py`` so the committed ``BENCH_obs``
    baseline and the registry trajectory measure the same thing.
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
    run the event-driven engine exists to accelerate.  Shared by the
    ``adaptive_engine`` bench and ``benchmarks/test_adaptive_engine.py``
    so the committed ``BENCH_adaptive_engine`` baseline and the pytest
    speedup gate measure the same thing.
    """
    from ..core import SelectAndSend
    from ..topology import gnp_connected

    n = 256 if quick else 512
    net = gnp_connected(n, 6.0 / n, seed=5)
    return net, SelectAndSend()


def batched_adaptive_workload(quick: bool = False):
    """The batched adaptive workload: (network, algorithm, trials).

    The same e4 Select-and-Send run as :func:`adaptive_workload`, but as
    a Monte-Carlo batch on the ``event`` engine, whose execution-class
    collapse turns the deterministic batch into one representative run.
    Shared by the ``batched_adaptive_engine`` bench and
    ``benchmarks/test_batched_adaptive_engine.py`` so the committed
    ``BENCH_batched_adaptive_engine`` baseline and the pytest speedup
    gate measure the same thing.
    """
    net, algorithm = adaptive_workload(quick)
    trials = 4 if quick else 8
    return net, algorithm, trials


def interleaved_adaptive_workload(quick: bool = False):
    """The randomized adaptive batch: (network, algorithm, trials).

    E6's interleaving with BGI Decay in place of round-robin, as a
    Monte-Carlo batch on a complete layered network — every trial is its
    own execution class, so this measures the idle hints of Decay and the
    interleaver rather than the deterministic collapse that
    :func:`batched_adaptive_workload` measures.  Shared by the
    ``interleaved_adaptive_engine`` bench and
    ``benchmarks/test_interleaved_adaptive_engine.py`` so the committed
    ``BENCH_interleaved_adaptive_engine`` baseline and the pytest
    speedup gate measure the same thing.
    """
    from ..baselines import BGIBroadcast, InterleavedBroadcast
    from ..core import SelectAndSend
    from ..topology import uniform_complete_layered

    n, depth, trials = (128, 8, 4) if quick else (256, 16, 12)
    net = uniform_complete_layered(n, depth, relabel_seed=3)
    algorithm = InterleavedBroadcast(BGIBroadcast(net.r), SelectAndSend())
    return net, algorithm, trials


def obs_overhead_workload(quick: bool = False):
    """Thunk pair ``(plain, instrumented)`` for the overhead measurement."""
    from ..sim import repeat_broadcast

    net, algorithm, trials = batched_workload(quick)

    def plain():
        return repeat_broadcast(net, algorithm, runs=trials)

    def instrumented():
        return repeat_broadcast(
            net, algorithm, runs=trials, metrics=MetricsRegistry()
        )

    return plain, instrumented


def telemetry_overhead_workload(quick: bool = False):
    """Thunk pair ``(plain, telemetered)`` for the span-overhead gate.

    The telemetered thunk runs the same batched workload with a
    :class:`~repro.obs.spans.SpanRecorder` draining into a no-op sink —
    the worker-side cost of span recording and stage synthesis, without
    the worker pipe or the runlog.  Shared with
    ``benchmarks/test_telemetry_overhead.py`` so the committed
    ``BENCH_telemetry_overhead`` baseline measures the same thing.
    """
    from ..sim import repeat_broadcast
    from .spans import SpanRecorder

    net, algorithm, trials = batched_workload(quick)

    def plain():
        return repeat_broadcast(net, algorithm, runs=trials)

    def telemetered():
        recorder = SpanRecorder(sink=lambda event: None)
        with recorder.span("point", "point"):
            return repeat_broadcast(
                net, algorithm, runs=trials, spans=recorder
            )

    return plain, telemetered


def forensics_overhead_workload(quick: bool = False):
    """Thunk pair ``(plain, forensic)`` for the forensics cost gate.

    ``plain`` is the canonical batched workload with traces off — the
    path that must stay untouched by the trace-recording branches added
    to the fast engines (one attribute check per slot).  ``forensic`` is
    the same batch at ``TraceLevel.FULL`` *plus* a full
    :func:`~repro.obs.forensics.analyze` pass per trial — the end-to-end
    cost of asking "why" instead of "how long".  Shared with
    ``benchmarks/test_forensics_overhead.py`` so the committed
    ``BENCH_forensics_overhead`` baseline measures the same thing.
    """
    from ..sim import run_broadcast_batch
    from ..sim.trace import TraceLevel
    from .forensics import analyze

    net, algorithm, trials = batched_workload(quick)

    def plain():
        return run_broadcast_batch(net, algorithm, trials=trials, engine="auto")

    def forensic():
        results = run_broadcast_batch(
            net, algorithm, trials=trials, engine="auto",
            trace_level=TraceLevel.FULL,
        )
        return [analyze(result, algorithm=algorithm) for result in results]

    return plain, forensic


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
    "adaptive_engine",
    tags=("engine", "event", "adaptive"),
    description="Event-driven engine, Select-and-Send on e4's G(n, p)",
)
def _adaptive_engine(quick: bool):
    from ..sim import run_broadcast

    net, algorithm = adaptive_workload(quick)
    return lambda: run_broadcast(
        net, algorithm, require_completion=True, engine="event"
    )


@register(
    "batched_adaptive_engine",
    tags=("engine", "event", "adaptive", "batch"),
    # Sub-100ms quick workload on shared CI boxes: scheduler noise easily
    # exceeds the generic 1.3; the 5x-speedup pytest gate is the real bar.
    tolerance=1.6,
    description="Event engine, Select-and-Send Monte-Carlo batch on e4's G(n, p)",
)
def _batched_adaptive_engine(quick: bool):
    # run_broadcast_batch, not repeat_broadcast: the driver's own
    # deterministic collapse would shrink the batch to one run before the
    # engine is involved — this bench measures the engine's class collapse.
    from ..sim import run_broadcast_batch

    net, algorithm, trials = batched_adaptive_workload(quick)
    return lambda: run_broadcast_batch(
        net, algorithm, trials=trials, engine="event"
    )


@register(
    "interleaved_adaptive_engine",
    tags=("engine", "event", "adaptive", "batch"),
    # Sub-100ms quick workload, as for batched_adaptive_engine; the
    # pytest gate against the reference engine is the real bar.
    tolerance=1.6,
    description="Event engine, interleaved BGI + Select-and-Send "
    "Monte-Carlo batch on uniform_complete_layered",
)
def _interleaved_adaptive_engine(quick: bool):
    from ..sim import run_broadcast_batch

    net, algorithm, trials = interleaved_adaptive_workload(quick)
    return lambda: run_broadcast_batch(
        net, algorithm, trials=trials, engine="event"
    )


@register(
    "obs_overhead",
    tags=("engine", "batch", "obs"),
    # Tighter than the generic 1.3: the instrumented path is the one this
    # PR optimised (buffered collision flush), and it must not creep back.
    tolerance=1.25,
    description="Instrumented batched run (metrics on) — the obs cost itself",
)
def _obs_overhead(quick: bool):
    _, instrumented = obs_overhead_workload(quick)
    return instrumented


@register(
    "telemetry_overhead",
    tags=("engine", "batch", "obs", "telemetry"),
    # The acceptance bar for spans is 1.10x over the plain run; the
    # baseline ratio guards the telemetered path against creep.
    tolerance=1.25,
    description="Batched run with span recording on — the telemetry cost itself",
)
def _telemetry_overhead(quick: bool):
    _, telemetered = telemetry_overhead_workload(quick)
    return telemetered


@register(
    "forensics_overhead",
    tags=("engine", "batch", "obs", "forensics"),
    # Columnar FULL traces + array analysis; the pytest gate also holds
    # the enabled path to <= 3x the traces-off run (strict mode).
    tolerance=1.4,
    description="Batched run at TraceLevel.FULL + per-trial forensic analysis",
)
def _forensics_overhead(quick: bool):
    _, forensic = forensics_overhead_workload(quick)
    return forensic


@register(
    "sweep_pool",
    tags=("sweep", "pool"),
    repeats=3,
    quick_repeats=2,
    # Pool spin-up + fork noise dominate a sub-second sweep; allow more.
    tolerance=1.6,
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


def million_node_workload(quick: bool = False):
    """The macro-step engine's canonical workload: (network, algorithm).

    A sparse G(n, p) at the scale the macro path exists for — average
    degree 10, KP known-radius schedule.  Shared by the
    ``million_node_engine`` bench and ``benchmarks/test_macro_engine.py``
    so the committed baseline and the >= 5x gate measure the same thing.
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
