"""Declarative benchmark registry with a pinned timing protocol.

A :class:`Benchmark` couples a name to a *builder thunk*: ``build(quick)``
performs all setup (topology generation, engine construction inputs) and
returns the zero-argument callable that gets timed.  The registry is what
``repro bench`` and the pytest benchmarks share, so a workload is defined
exactly once.

The timing protocol is pinned so that trajectory records stay comparable
across PRs: ``warmup`` untimed calls, then ``repeats`` timed calls, with
the **minimum** as the headline statistic (least scheduler noise) and the
median alongside it.  Every record carries an environment fingerprint
(git SHA, python/numpy versions, platform, CPU count) so a
regression can be told apart from a machine change.

Records append to ``benchmarks/results/BENCH_trajectory.jsonl`` (one
JSON object per line) and compare against committed per-bench baselines
``benchmarks/results/BENCH_<name>.json``.  Comparison is noise-tolerant:
a bench regresses only when ``min_s`` exceeds ``tolerance`` times the
baseline.  Regressions warn by default and hard-fail only under
``REPRO_BENCH_STRICT=1`` (dedicated benchmark hardware).

Kept import-light like the rest of ``repro.obs`` — the default suite
(:mod:`repro.obs.suite`) is the module that imports the simulation stack.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .runlog import git_sha

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Benchmark",
    "BenchmarkRegistry",
    "BenchComparison",
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_REGISTRY",
    "STRICT_ENV_VAR",
    "append_trajectory",
    "baseline_path",
    "compare_record",
    "environment_fingerprint",
    "load_baseline",
    "read_trajectory",
    "register",
    "run_benchmark",
    "strict_mode",
    "trajectory_path",
    "validate_record",
    "write_baseline",
]

#: Bumped when the record layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Where ``repro bench`` reads/writes baselines and the trajectory.
DEFAULT_RESULTS_DIR = pathlib.Path("benchmarks") / "results"

#: Environment variable turning regression warnings into hard failures.
STRICT_ENV_VAR = "REPRO_BENCH_STRICT"


def strict_mode() -> bool:
    """Whether regressions must fail (``REPRO_BENCH_STRICT=1``)."""
    return os.environ.get(STRICT_ENV_VAR) == "1"


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark.

    Args:
        name: Unique registry key; also names the baseline file
            ``BENCH_<name>.json``.
        build: ``build(quick)`` does all setup outside the timed region
            and returns the zero-argument callable to time.  ``quick``
            selects a smaller workload for CI smoke runs.
        tags: Free-form workload labels (``"engine"``, ``"sweep"``, ...)
            usable with ``repro bench --filter``.
        tolerance: Allowed slowdown ratio against the committed baseline
            before the bench counts as regressed (1.3 = +30%).
        repeats: Timed calls per record (full mode).
        warmup: Untimed calls before measurement starts.
        quick_repeats: Timed calls under ``--quick``.
        description: One line for ``repro bench --list``.
    """

    name: str
    build: Callable[[bool], Callable[[], object]]
    tags: tuple[str, ...] = ()
    tolerance: float = 1.3
    repeats: int = 5
    warmup: int = 1
    quick_repeats: int = 3
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.tolerance <= 1.0:
            raise ValueError(
                f"tolerance must exceed 1.0 (a ratio), got {self.tolerance}"
            )
        if self.repeats < 1 or self.quick_repeats < 1:
            raise ValueError("repeats must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")


class BenchmarkRegistry:
    """Ordered name -> :class:`Benchmark` mapping."""

    def __init__(self) -> None:
        self._benchmarks: dict[str, Benchmark] = {}

    def add(self, benchmark: Benchmark) -> Benchmark:
        if benchmark.name in self._benchmarks:
            raise ValueError(f"benchmark {benchmark.name!r} already registered")
        self._benchmarks[benchmark.name] = benchmark
        return benchmark

    def get(self, name: str) -> Benchmark:
        try:
            return self._benchmarks[name]
        except KeyError:
            raise KeyError(
                f"unknown benchmark {name!r}; registered: {sorted(self._benchmarks)}"
            ) from None

    def select(self, pattern: str | None = None) -> list[Benchmark]:
        """Benchmarks whose name or tags contain ``pattern`` (all if None)."""
        out = []
        for bench in self._benchmarks.values():
            if (
                pattern is None
                or pattern in bench.name
                or any(pattern in tag for tag in bench.tags)
            ):
                out.append(bench)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._benchmarks

    def __len__(self) -> int:
        return len(self._benchmarks)

    def __iter__(self):
        return iter(self._benchmarks.values())


#: The registry ``repro bench`` and the pytest benchmarks share.
DEFAULT_REGISTRY = BenchmarkRegistry()


def register(
    name: str,
    *,
    tags: Sequence[str] = (),
    tolerance: float = 1.3,
    repeats: int = 5,
    warmup: int = 1,
    quick_repeats: int = 3,
    description: str = "",
    registry: BenchmarkRegistry | None = None,
) -> Callable[[Callable[[bool], Callable[[], object]]], Callable]:
    """Decorator registering a builder thunk as a :class:`Benchmark`."""

    def decorate(build: Callable[[bool], Callable[[], object]]):
        (registry if registry is not None else DEFAULT_REGISTRY).add(
            Benchmark(
                name=name,
                build=build,
                tags=tuple(tags),
                tolerance=tolerance,
                repeats=repeats,
                warmup=warmup,
                quick_repeats=quick_repeats,
                description=description or (build.__doc__ or "").strip().split("\n")[0],
            )
        )
        return build

    return decorate


# ----------------------------------------------------------------------
# Environment fingerprint


def environment_fingerprint() -> dict:
    """Machine/toolchain identity stamped onto every bench record."""
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Timing protocol


def run_benchmark(
    benchmark: Benchmark,
    quick: bool = False,
    env: Mapping | None = None,
) -> dict:
    """Execute one benchmark under the pinned protocol; returns the record.

    Setup (``build(quick)``) runs outside the timed region.  The thunk is
    then called ``warmup`` times untimed and ``repeats`` times timed with
    ``perf_counter``; ``min_s`` is the headline statistic.
    """
    thunk = benchmark.build(quick)
    repeats = benchmark.quick_repeats if quick else benchmark.repeats
    for _ in range(benchmark.warmup):
        thunk()
    times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - start)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": benchmark.name,
        "tags": list(benchmark.tags),
        "quick": quick,
        "warmup": benchmark.warmup,
        "repeats": repeats,
        "times_s": [round(t, 6) for t in times],
        "min_s": round(min(times), 6),
        "median_s": round(statistics.median(times), 6),
        "mean_s": round(statistics.fmean(times), 6),
        "tolerance": benchmark.tolerance,
        "ts": time.time(),
        "env": dict(env) if env is not None else environment_fingerprint(),
    }


_REQUIRED_FIELDS = {
    "schema": int,
    "bench": str,
    "quick": bool,
    "repeats": int,
    "times_s": list,
    "min_s": (int, float),
    "median_s": (int, float),
    "mean_s": (int, float),
    "tolerance": (int, float),
    "ts": (int, float),
    "env": dict,
}

_REQUIRED_ENV_FIELDS = ("git_sha", "python", "numpy", "platform", "cpu_count")


def validate_record(record: Mapping) -> list[str]:
    """Schema-check one bench record; returns violations (empty = valid)."""
    errors: list[str] = []
    for key, kind in _REQUIRED_FIELDS.items():
        if key not in record:
            errors.append(f"missing field {key!r}")
        elif not isinstance(record[key], kind):
            errors.append(
                f"field {key!r} has type {type(record[key]).__name__}, "
                f"expected {kind}"
            )
    if isinstance(record.get("env"), Mapping):
        for key in _REQUIRED_ENV_FIELDS:
            if key not in record["env"]:
                errors.append(f"env fingerprint missing {key!r}")
    if isinstance(record.get("times_s"), list):
        if not record["times_s"]:
            errors.append("times_s is empty")
        elif record.get("min_s") is not None and isinstance(
            record["min_s"], (int, float)
        ):
            if abs(min(record["times_s"]) - record["min_s"]) > 1e-9:
                errors.append("min_s does not match min(times_s)")
    if isinstance(record.get("schema"), int) and record["schema"] > BENCH_SCHEMA_VERSION:
        errors.append(
            f"record schema {record['schema']} is newer than supported "
            f"{BENCH_SCHEMA_VERSION}"
        )
    return errors


# ----------------------------------------------------------------------
# Baselines and the trajectory file


def trajectory_path(results_dir: pathlib.Path | str | None = None) -> pathlib.Path:
    root = pathlib.Path(results_dir) if results_dir is not None else DEFAULT_RESULTS_DIR
    return root / "BENCH_trajectory.jsonl"


def baseline_path(
    name: str, results_dir: pathlib.Path | str | None = None
) -> pathlib.Path:
    root = pathlib.Path(results_dir) if results_dir is not None else DEFAULT_RESULTS_DIR
    return root / f"BENCH_{name}.json"


def append_trajectory(
    record: Mapping, results_dir: pathlib.Path | str | None = None
) -> pathlib.Path:
    """Append one record to ``BENCH_trajectory.jsonl``; returns the path."""
    path = trajectory_path(results_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_trajectory(path: pathlib.Path | str) -> list[dict]:
    """Parse a trajectory JSONL file into record dicts (skips blank lines)."""
    records: list[dict] = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: record is not a JSON object")
            records.append(record)
    return records


def write_baseline(
    record: Mapping, results_dir: pathlib.Path | str | None = None
) -> pathlib.Path:
    """Commit one record as the bench's baseline ``BENCH_<name>.json``."""
    path = baseline_path(record["bench"], results_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(
    name: str, results_dir: pathlib.Path | str | None = None
) -> dict | None:
    """The committed baseline record for ``name``, or ``None`` if absent."""
    path = baseline_path(name, results_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text())


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of one record-vs-baseline check.

    ``status`` is one of ``"ok"`` (within tolerance), ``"improved"``
    (faster than the baseline by more than the tolerance margin —
    worth committing a new baseline), ``"regression"`` (slower than
    ``tolerance`` allows), ``"mode-mismatch"`` (quick record vs full
    baseline or vice versa — never comparable), or ``"no-baseline"``.
    """

    bench: str
    status: str
    ratio: float | None
    record: Mapping = field(repr=False)
    baseline: Mapping | None = field(repr=False, default=None)

    @property
    def regressed(self) -> bool:
        return self.status == "regression"

    def describe(self) -> str:
        if self.status == "no-baseline":
            return f"{self.bench}: no committed baseline (min {self.record['min_s']:.4f}s)"
        if self.status == "mode-mismatch":
            record_mode = "quick" if self.record.get("quick") else "full"
            base_mode = "quick" if self.baseline.get("quick") else "full"
            return (
                f"{self.bench}: {record_mode}-mode record vs {base_mode}-mode "
                f"baseline — not comparable"
            )
        return (
            f"{self.bench}: {self.status} — min {self.record['min_s']:.4f}s vs "
            f"baseline {self.baseline['min_s']:.4f}s "
            f"({self.ratio:.3f}x, tolerance {self.record['tolerance']:.2f}x)"
        )


def compare_record(record: Mapping, baseline: Mapping | None) -> BenchComparison:
    """Noise-tolerant ratio comparison of one record against its baseline.

    The ratio is ``record.min_s / baseline.min_s``; min-of-N is the
    statistic least sensitive to scheduler noise, and the tolerance
    (stored on the record, i.e. the *registered* tolerance at measurement
    time) absorbs the rest.  A quick-mode record is only comparable to a
    quick-mode baseline (the workloads differ); a mode mismatch reports
    ``"mode-mismatch"`` and never counts as a regression.
    """
    if baseline is None:
        return BenchComparison(
            bench=record["bench"], status="no-baseline", ratio=None, record=record
        )
    if bool(record.get("quick")) != bool(baseline.get("quick")):
        return BenchComparison(
            bench=record["bench"], status="mode-mismatch", ratio=None,
            record=record, baseline=baseline,
        )
    base = float(baseline["min_s"])
    ratio = float(record["min_s"]) / base if base > 0 else float("inf")
    tolerance = float(record.get("tolerance", 1.3))
    if ratio > tolerance:
        status = "regression"
    elif ratio < 1.0 / tolerance:
        status = "improved"
    else:
        status = "ok"
    return BenchComparison(
        bench=record["bench"], status=status, ratio=ratio,
        record=record, baseline=baseline,
    )


def compare_all(
    records: Iterable[Mapping],
    results_dir: pathlib.Path | str | None = None,
) -> list[BenchComparison]:
    """Compare each record against its committed baseline."""
    return [
        compare_record(record, load_baseline(record["bench"], results_dir))
        for record in records
    ]
