"""The four workloads of the end-to-end benchmark.

Every workload is a class with the same four steps, driven by
``bench.py``:

* ``setup(seed, stage)`` builds the inputs: topology generation and
  algorithm construction (timed together as ``setup_s``);
* ``run(inputs, stage)`` makes the public driver calls a user waits for
  (timed as ``run_s``) and returns their outputs plus the work done;
* ``probe(inputs, outputs, stage, checks)`` runs only in traced runs: it
  repeats the driver's engine calls one public constructor / ``.run()``
  at a time on the same inputs, so per-layer times come from outside the
  program, and checks the decomposition reproduces the driver exactly;
* ``check(inputs, outputs, checks)`` verifies the outputs with
  seed-independent invariants and returns the values ``goldens.json``
  pins for seeds 0 and 1.

``stage(name, **attrs)`` is a context manager around one layer call: in
a timed iteration it takes the call's time at reference machine speed,
in a traced one it records a ``stage`` span, in the warm-up it does
nothing.  It yields a dict for counts known only after the call.

Only public names of ``repro.topology``, ``repro.core``,
``repro.baselines``, ``repro.sim``, ``repro.sweep`` and ``repro.obs`` are
used.  No call passes ``timings=``, ``metrics=`` or ``spans=`` to
``run_broadcast_macro`` except the deliberately instrumented run of
``observed_scale``: any of them reroutes the run to ``FastEngine``, so a
trace of the plain path would time a different engine.
"""

from __future__ import annotations

import hashlib
import tempfile

import numpy as np

from repro.baselines import BGIBroadcast, InterleavedBroadcast
from repro.core import CompleteLayeredBroadcast, KnownRadiusKP, SelectAndSend
from repro.obs import MetricsRegistry, analyze
from repro.sim import (
    ASLEEP,
    BatchedEventEngine,
    BatchedFastEngine,
    ChannelKernel,
    MacroStepEngine,
    TraceLevel,
    default_max_steps,
    derive_trial_seeds,
    repeat_broadcast,
    resolve_macro_backend,
    run_broadcast_batch,
    run_broadcast_macro,
)
from repro.sweep import (
    ResultCache,
    SweepSpec,
    build_algorithm,
    build_topology,
    canonical_json,
    execute_point,
    run_sweep,
)
from repro.topology import gnp_random_csr, grid, random_tree, uniform_complete_layered

__all__ = ["WORKLOADS"]


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed derived from the benchmark seed and a purpose tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def wake_array(result, labels: np.ndarray) -> np.ndarray:
    """A result's wake slots in sorted-label order; sleepers hold ``ASLEEP``."""
    wake = np.full(len(labels), ASLEEP, dtype=np.int64)
    informed = result.wake_times
    keys = np.fromiter(informed.keys(), dtype=np.int64, count=len(informed))
    slots = np.fromiter(informed.values(), dtype=np.int64, count=len(informed))
    wake[np.searchsorted(labels, keys)] = slots
    return wake


def wake_digest(wake: np.ndarray) -> str:
    return hashlib.sha256(wake.astype("<i8").tobytes()).hexdigest()


def wake_invariant_holds(kernel: ChannelKernel, wake: np.ndarray, result) -> bool:
    """The seed-independent propagation invariant of a broadcast.

    The source wakes at -1, no node wakes after slot ``time - 1`` (the
    last wake is exactly that slot when the broadcast completed), and every
    other informed node has a neighbour that woke strictly earlier: a node
    can only hear the message from an informed neighbour.  One
    ``np.minimum.reduceat`` over the CSR arrays checks all nodes at once.
    """
    source = kernel.index[kernel.network.source]
    informed = wake != ASLEEP
    latest = int(wake[informed].max())
    if wake[source] != -1 or latest > result.time - 1:
        return False
    if result.completed and latest != result.time - 1:
        return False
    degrees = np.diff(kernel.indptr)
    rows = np.flatnonzero(degrees)
    earliest = np.full(len(wake), ASLEEP, dtype=np.int64)
    earliest[rows] = np.minimum.reduceat(
        wake[kernel.indices], kernel.indptr[:-1][rows]
    )
    heard = (earliest < wake) | ~informed
    heard[source] = True
    return bool(heard.all())


def _check_broadcast(checks, what: str, network, result, horizon=None) -> np.ndarray:
    """Completion (or, given a horizon, a run of exactly that many slots)
    plus the wake invariant for one trial; returns its wakes."""
    kernel = ChannelKernel(network)
    wake = wake_array(result, kernel.labels)
    if horizon is None:
        checks.expect(f"{what}: broadcast completed", result.completed)
    else:
        checks.expect(f"{what}: ran the {horizon}-slot horizon", result.time == horizon)
    checks.expect(
        f"{what}: every informed node heard an earlier neighbour",
        wake_invariant_holds(kernel, wake, result),
    )
    return wake


# ----------------------------------------------------------------------


class _GnpWorkload:
    """Set-up shared by the G(n, p) workloads: generate, then build KP."""

    SIZES: dict[str, int]
    AVG_DEGREE: float

    def __init__(self, size: str, work_dir: str):
        self.n = self.SIZES[size]

    def setup(self, seed: int, stage) -> dict:
        with stage("topology.generate", call="gnp_random_csr", n=self.n) as attrs:
            net = gnp_random_csr(
                self.n, self.AVG_DEGREE / self.n, seed=derive_seed(seed, "topology")
            )
            attrs["edges"] = net.num_edges
        with stage("core.algorithm_build", call="KnownRadiusKP"):
            algo = KnownRadiusKP(net.r, net.radius)
        return {
            "net": net, "algo": algo, "edges": net.num_edges,
            "trial_seed": derive_seed(seed, "trial"),
        }


class GnpMillion(_GnpWorkload):
    """``gnp_random_csr(10^6, 12/n)`` -> ``KnownRadiusKP`` -> plain macro runs.

    Three trials per iteration: one run's slot count moves by up to 15%
    with its trial seed (217 to 271 slots over ten seeds), and three
    average that out of ``run_s``.
    """

    name = "gnp_million"
    SIZES = {"full": 1_000_000, "smoke": 20_000}
    AVG_DEGREE = 12.0
    TRIALS = 3

    def run(self, inputs: dict, stage) -> dict:
        net = inputs["net"]
        results = []
        for seed in derive_trial_seeds(inputs["trial_seed"], self.TRIALS):
            with stage("sim.driver", call="run_broadcast_macro") as attrs:
                results.append(run_broadcast_macro(net, inputs["algo"], seed=seed))
                attrs["slots"] = results[-1].time
        slots = sum(r.time for r in results)
        return {
            "results": results, "trials": len(results),
            "slots": slots, "node_slots": net.n * slots,
        }

    def probe(self, inputs: dict, outputs: dict, stage, checks) -> None:
        max_steps = default_max_steps(inputs["net"], inputs["algo"])
        for result in outputs["results"]:
            _probe_macro(inputs, result, stage, checks, max_steps)

    def check(self, inputs: dict, outputs: dict, checks) -> dict:
        net = inputs["net"]
        digests = [
            wake_digest(_check_broadcast(checks, f"macro run seed {r.seed}", net, r))
            for r in outputs["results"]
        ]
        return {
            "slots": [r.time for r in outputs["results"]],
            "edges": net.num_edges, "wake_sha256": digests,
        }


def _probe_macro(inputs: dict, result, stage, checks, max_steps: int) -> None:
    """``run_broadcast_macro``'s plain path, one public call at a time,
    then the driver itself again, right after, for ``sim.result_s``."""
    net, algo = inputs["net"], inputs["algo"]
    with stage("sim.engine_build", call="MacroStepEngine"):
        engine = MacroStepEngine(
            net, algo, seed=result.seed, backend=resolve_macro_backend()
        )
    with stage("sim.engine_run", call="MacroStepEngine.run"):
        engine.run(max_steps)
    with stage("sim.probe_driver", call="run_broadcast_macro"):
        run_broadcast_macro(net, algo, seed=result.seed, max_steps=max_steps)
    checks.expect(
        "decomposed macro engine reproduces the driver's wake slots",
        np.array_equal(engine.wake_steps, wake_array(result, engine.labels)),
    )


class ObservedScale(_GnpWorkload):
    """``gnp_random_csr(10^5, 16/n)``: a plain, a metrics and a FULL-trace
    macro run over the same fixed horizon, then forensic analysis of the
    trace.

    The inputs are chosen to cost the same on every seed, because the
    instrumented runs cost the same per slot.  At average degree 8 or 12
    the radius moves between 6 and 9 from seed to seed and the KP slot
    count with it (150 to 230 slots); about half the seeds also need the
    connectivity augmentation, which doubles generation time.  At degree 16
    the radius was 6 on all sixty seeds tried, but a run still ended after
    anywhere from 134 to 199 slots, in clusters about 16 slots apart as
    completion falls into one KP stage or the next.  So all three runs stop
    at a horizon (``max_steps``) well below every completion seen, 96 slots
    (48 at smoke size, where completions started at 83): the workload
    observes the same number of slots on every seed.
    """

    name = "observed_scale"
    SIZES = {"full": 100_000, "smoke": 10_000}
    HORIZONS = {"full": 96, "smoke": 48}
    AVG_DEGREE = 16.0

    def __init__(self, size: str, work_dir: str):
        super().__init__(size, work_dir)
        self.horizon = self.HORIZONS[size]

    def run(self, inputs: dict, stage) -> dict:
        net, algo, seed = inputs["net"], inputs["algo"], inputs["trial_seed"]
        with stage("sim.driver", call="run_broadcast_macro") as attrs:
            plain = run_broadcast_macro(net, algo, seed=seed, max_steps=self.horizon)
            attrs["slots"] = plain.time
        registry = MetricsRegistry()
        with stage("sim.instrumented_run", call="run_broadcast_macro(metrics=)"):
            metered = run_broadcast_macro(
                net, algo, seed=seed, max_steps=self.horizon, metrics=registry
            )
        with stage("sim.full_trace_run", call="run_broadcast_macro(trace_level=FULL)"):
            traced = run_broadcast_macro(
                net, algo, seed=seed, max_steps=self.horizon,
                trace_level=TraceLevel.FULL,
            )
        with stage("obs.forensics_analyze", call="analyze") as attrs:
            report = analyze(traced, algo)
            attrs["trace_steps"] = len(traced.trace.steps)
        slots = plain.time + metered.time + traced.time
        return {
            "plain": plain, "metered": metered, "traced": traced,
            "registry": registry, "report": report,
            "trials": 3, "slots": slots, "node_slots": net.n * slots,
        }

    def probe(self, inputs: dict, outputs: dict, stage, checks) -> None:
        _probe_macro(inputs, outputs["plain"], stage, checks, self.horizon)

    def check(self, inputs: dict, outputs: dict, checks) -> dict:
        net = inputs["net"]
        plain, metered, traced = outputs["plain"], outputs["metered"], outputs["traced"]
        wake = _check_broadcast(checks, "plain macro run", net, plain, self.horizon)
        for what, other in (("metrics run", metered), ("FULL-trace run", traced)):
            checks.expect(
                f"{what} has the plain run's length and wake slots",
                other.time == plain.time and other.wake_times == plain.wake_times,
            )
        counters = outputs["registry"].to_dict()
        slots_hist = counters["histograms"].get("slots_to_completion", {})
        checks.expect(
            "metrics run recorded one run of the right length",
            counters["counters"].get("runs_total") == 1
            and slots_hist.get("count") == 1
            and slots_hist.get("sum") == plain.time,
        )
        scalars = outputs["report"].scalars()
        checks.expect(
            "forensics saw every slot and informed node",
            scalars["slots"] == traced.time and scalars["informed"] == traced.informed,
        )
        return {
            "informed": plain.informed, "edges": net.num_edges,
            "wake_sha256": wake_digest(wake), "forensics": scalars,
            "runs_total": counters["counters"].get("runs_total"),
            "slots_to_completion_sum": slots_hist.get("sum"),
        }

    def extra_layers(self, seconds: dict, outputs: dict) -> dict:
        plain = seconds["sim.driver"]
        return {
            "sim.instrumented_run_s": (seconds["sim.instrumented_run"], "s"),
            "sim.instrumented_ratio": (seconds["sim.instrumented_run"] / plain, "ratio"),
            "sim.full_trace_run_s": (seconds["sim.full_trace_run"], "s"),
            "sim.full_trace_ratio": (seconds["sim.full_trace_run"] / plain, "ratio"),
            "obs.forensics_analyze_s": (seconds["obs.forensics_analyze"], "s"),
            "obs.trace_steps": (len(outputs["traced"].trace.steps), "count"),
        }


class E1Sweep:
    """``run_sweep`` over km-layered networks for KP and BGI (e1's grid),
    cold against a fresh ``ResultCache``, then the same specs warm.

    Like e1, the sweep runs on one fixed hard instance per depth and the
    seed picks the Monte-Carlo trials.  The instance is not drawn from the
    seed because its cost is not stable across draws: the edge count is
    dominated by the last two layer sizes, which are random powers of two,
    so at D = 16 it ranges from about 1,600 to 29,000 edges and the sweep
    time follows it.  Trials are 16 per point because at 32 the batched
    engine's per-slot temporaries reach 256 KiB, which glibc maps and
    unmaps on every slot, and run time then jumps between about 1.9 s and
    3.5 s per point on the same inputs.
    """

    name = "e1_sweep"
    SIZES = {
        "full": {"n": 1024, "depth": (16, 64, 256), "trials": 16},
        "smoke": {"n": 256, "depth": (4, 16, 64), "trials": 4},
    }
    ALGORITHMS = ("kp-known-d", "bgi")
    #: e1's instance seed (``experiments/e1_randomized_vs_bgi.py``).
    TOPOLOGY_SEED = 17

    def __init__(self, size: str, work_dir: str):
        self.grid = self.SIZES[size]
        self.work_dir = work_dir

    def setup(self, seed: int, stage) -> dict:
        with stage("sweep.spec_build", call="SweepSpec.points"):
            specs = [
                SweepSpec(
                    name=f"e2e-e1-{algorithm}",
                    topology="km-layered",
                    algorithm=algorithm,
                    topology_grid={
                        "n": self.grid["n"], "depth": list(self.grid["depth"]),
                        "seed": self.TOPOLOGY_SEED,
                    },
                    trials=self.grid["trials"],
                    base_seed=derive_seed(seed, "trial"),
                )
                for algorithm in self.ALGORITHMS
            ]
            points = [point for spec in specs for point in spec.points()]
        networks: dict = {}
        algorithms: dict = {}
        for point in points:
            if point.topology_params not in networks:
                with stage("topology.generate", call="km_hard_layered"):
                    networks[point.topology_params] = build_topology(
                        point.topology, dict(point.topology_params)
                    )
            net = networks[point.topology_params]
            with stage("core.algorithm_build", call=point.algorithm):
                algorithms[point] = build_algorithm(
                    point.algorithm, net, dict(point.algorithm_params)
                )
        return {
            "specs": specs, "points": points,
            "networks": networks, "algorithms": algorithms,
            "edges": sum(net.num_edges for net in networks.values()),
        }

    def run(self, inputs: dict, stage) -> dict:
        with stage("sweep.cache_open", call="ResultCache"):
            cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        cold, warm = [], []
        for spec in inputs["specs"]:
            with stage("sweep.run_sweep", call="run_sweep", spec=spec.name):
                cold.append(run_sweep(spec, workers=1, cache=cache))
        for spec in inputs["specs"]:
            with stage("sweep.run_sweep_warm", call="run_sweep", spec=spec.name):
                warm.append(run_sweep(spec, workers=1, cache=cache))
        executed = [r for outcome in cold for r in outcome.results if not r.cached]
        trials = sum(r.payload["runs"] for r in executed)
        slots = sum(sum(r.payload["times"]) for r in executed)
        node_slots = sum(r.payload["n"] * sum(r.payload["times"]) for r in executed)
        return {
            "cache": cache, "cold": cold, "warm": warm,
            "trials": trials, "slots": slots, "node_slots": node_slots,
        }

    def probe(self, inputs: dict, outputs: dict, stage, checks) -> None:
        """Per point: the batched engine, the driver, the point executor and
        the cache, each called on its own."""
        cold = {r.point: r.payload for outcome in outputs["cold"] for r in outcome.results}
        probe_cache = ResultCache(tempfile.mkdtemp(prefix="probe-", dir=self.work_dir))
        for point in inputs["points"]:
            net = inputs["networks"][point.topology_params]
            algo = inputs["algorithms"][point]
            runs = 1 if algo.deterministic else point.trials
            seeds = derive_trial_seeds(point.base_seed, runs)
            max_steps = point.max_steps or default_max_steps(net, algo)
            with stage("sim.engine_build", call="BatchedFastEngine"):
                engine = BatchedFastEngine(net, algo, seeds)
            with stage("sim.engine_run", call="BatchedFastEngine.run"):
                engine.run(max_steps)
            with stage("sim.probe_driver", call="repeat_broadcast"):
                results = repeat_broadcast(
                    net, algo, runs=point.trials, base_seed=point.base_seed,
                    max_steps=point.max_steps, require_completion=False,
                )
            checks.expect(
                f"{point.label()}: decomposed batched engine reproduces the driver",
                len(results) == runs and all(
                    np.array_equal(engine.wake_steps[t], wake_array(r, engine.labels))
                    for t, r in enumerate(results)
                ),
            )
            with stage("sweep.execute_point", call="execute_point"):
                payload = execute_point(point.canonical())
            checks.expect(
                f"{point.label()}: execute_point reproduces the sweep payload",
                payload == cold[point],
            )
            with stage("sweep.cache_get", call="ResultCache.get"):
                hit = outputs["cache"].get(point)
            checks.expect(f"{point.label()}: cache read returns the payload", hit == cold[point])
            with stage("sweep.cache_put", call="ResultCache.put"):
                probe_cache.put(point, payload)

    def check(self, inputs: dict, outputs: dict, checks) -> dict:
        points = inputs["points"]
        cold = [r for outcome in outputs["cold"] for r in outcome.results]
        warm = [r for outcome in outputs["warm"] for r in outcome.results]
        checks.expect("cold sweep executed every point", not any(r.cached for r in cold))
        checks.expect(
            "warm sweep served every point from the cache",
            len(warm) == len(points) and all(r.cached for r in warm),
        )
        hashes = {}
        for c, w in zip(cold, warm):
            payload = c.payload
            label = c.point.label()
            checks.count(
                f"{label}: trials completed", payload["runs"],
                payload["runs"] - payload["completed"],
            )
            checks.expect(
                f"{label}: no trial beat the radius lower bound",
                payload["min_time"] >= payload["radius"],
            )
            text = canonical_json(payload)
            checks.expect(f"{label}: warm payload equals cold", canonical_json(w.payload) == text)
            hashes[label] = hashlib.sha256(text.encode()).hexdigest()
        return {"payload_sha256": hashes}

    def extra_layers(self, seconds: dict, outputs: dict) -> dict:
        cold = seconds["sweep.run_sweep"]
        overhead = cold - seconds["sweep.execute_point"]
        warm = [r for outcome in outputs["warm"] for r in outcome.results]
        return {
            "sweep.run_sweep_s": (cold, "s"),
            "sweep.run_sweep_warm_s": (seconds["sweep.run_sweep_warm"], "s"),
            "sweep.execute_point_s": (seconds["sweep.execute_point"], "s"),
            "sweep.overhead_s": (overhead, "s"),
            "sweep.overhead_frac": (overhead / cold, "ratio"),
            "sweep.cache_get_s": (seconds["sweep.cache_get"], "s"),
            "sweep.cache_put_s": (seconds["sweep.cache_put"], "s"),
            "sweep.cache_hit_ratio": (sum(r.cached for r in warm) / len(warm), "ratio"),
        }


class AdaptiveEvent:
    """Adaptive algorithms on the event and batched-event engines (e4-e6).

    The interleaved BGI / Select-and-Send batch has 12 trials on 256 nodes
    rather than a few on a larger network: BGI's randomness makes one
    trial's length vary widely: the batch's total slots had a coefficient
    of variation of 9% over ten seeds with 4 trials on 512 nodes, and of
    6% with 12 trials on 256 nodes (about 1.4 s against 2.0 s a batch).
    """

    name = "adaptive_event"
    SIZES = {
        "full": {"tree": 4096, "grid": (48, 48), "layered": (2048, 64),
                 "interleaved": (256, 16), "trials": 12},
        "smoke": {"tree": 512, "grid": (16, 16), "layered": (256, 16),
                  "interleaved": (128, 8), "trials": 4},
    }

    def __init__(self, size: str, work_dir: str):
        self.sizes = self.SIZES[size]

    def setup(self, seed: int, stage) -> dict:
        s = self.sizes
        builders = [
            ("select_and_send_tree", 1,
             lambda: random_tree(s["tree"], seed=derive_seed(seed, "tree")),
             lambda net: SelectAndSend()),
            ("select_and_send_grid", 1,
             lambda: grid(*s["grid"]),
             lambda net: SelectAndSend()),
            ("complete_layered", 1,
             lambda: uniform_complete_layered(
                 *s["layered"], relabel_seed=derive_seed(seed, "layered")),
             lambda net: CompleteLayeredBroadcast()),
            ("interleaved_bgi_ss", s["trials"],
             lambda: uniform_complete_layered(
                 *s["interleaved"], relabel_seed=derive_seed(seed, "interleaved")),
             lambda net: InterleavedBroadcast(BGIBroadcast(net.r), SelectAndSend())),
        ]
        cases = []
        for case, trials, make_net, make_algo in builders:
            with stage("topology.generate", case=case):
                net = make_net()
            with stage("core.algorithm_build", case=case):
                algo = make_algo(net)
            cases.append((case, trials, net, algo))
        return {
            "cases": cases, "trial_seed": derive_seed(seed, "trial"),
            "edges": sum(net.num_edges for _, _, net, _ in cases),
        }

    @staticmethod
    def _drive(stage, name: str, case: str, trials: int, net, algo, base: int):
        """The call e4-e6 make: ``repeat_broadcast`` for a deterministic
        run, ``run_broadcast_batch`` for a Monte-Carlo batch."""
        if trials == 1:
            with stage(name, call="repeat_broadcast", case=case):
                return repeat_broadcast(
                    net, algo, runs=1, base_seed=base, require_completion=False
                )
        with stage(name, call="run_broadcast_batch", case=case):
            return run_broadcast_batch(net, algo, trials=trials, base_seed=base)

    def run(self, inputs: dict, stage) -> dict:
        results = {
            case: self._drive(stage, "sim.driver", case, trials, net, algo,
                              inputs["trial_seed"])
            for case, trials, net, algo in inputs["cases"]
        }
        executed = [
            (net.n, r.time)
            for case, _, net, _ in inputs["cases"]
            for r in results[case]
        ]
        return {
            "results": results, "trials": len(executed),
            "slots": sum(t for _, t in executed),
            "node_slots": sum(n * t for n, t in executed),
        }

    def probe(self, inputs: dict, outputs: dict, stage, checks) -> None:
        """Per case: the batched event engine, then the driver again."""
        for case, trials, net, algo in inputs["cases"]:
            results = outputs["results"][case]
            seeds = [r.seed for r in results]
            with stage("sim.engine_build", call="BatchedEventEngine", case=case):
                engine = BatchedEventEngine(net, algo, seeds)
            with stage("sim.engine_run", call="BatchedEventEngine.run", case=case):
                engine.run(default_max_steps(net, algo))
            self._drive(stage, "sim.probe_driver", case, trials, net, algo,
                        inputs["trial_seed"])
            checks.expect(
                f"{case}: decomposed batched event engine reproduces the driver",
                all(engine.wake_times(t) == r.wake_times for t, r in enumerate(results)),
            )

    def check(self, inputs: dict, outputs: dict, checks) -> dict:
        slots = {}
        for case, _, net, _ in inputs["cases"]:
            results = outputs["results"][case]
            for r in results:
                _check_broadcast(checks, f"{case} seed {r.seed}", net, r)
            slots[case] = [r.time for r in results]
        return {"slots": slots}


WORKLOADS = {
    cls.name: cls for cls in (GnpMillion, E1Sweep, ObservedScale, AdaptiveEvent)
}
