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

A benchmark that names a ``reference`` (another registry entry) is a
*pair*: both sides run their warmup, ``check`` asserts that they
computed the same thing, and then the two thunks are timed alternately,
switching which side goes first on every round, so drift in host speed
reaches both sides alike.  The record adds ``ratio = min_s /
reference_min_s``, which ``max_ratio`` bounds (a speedup of at least k×
is ``max_ratio = 1/k``); ``min_s`` stays the subject's own time.

Records append to ``benchmarks/results/BENCH_trajectory.jsonl`` (one
JSON object per line).  Speed is gated only by pairs, whose two sides
run on the same host in the same process: a time measured on one host
says nothing about a time measured on another.  A ``strict_ratio``
pair's bound holds only under ``REPRO_BENCH_STRICT=1`` (dedicated
benchmark hardware).

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
from typing import Callable, Mapping, Sequence

from .runlog import git_sha

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Benchmark",
    "BenchmarkRegistry",
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_REGISTRY",
    "STRICT_ENV_VAR",
    "append_trajectory",
    "environment_fingerprint",
    "read_trajectory",
    "register",
    "run_benchmark",
    "strict_mode",
    "trajectory_path",
    "validate_record",
]

#: Bumped when the record layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Where ``repro bench`` appends the trajectory.
DEFAULT_RESULTS_DIR = pathlib.Path("benchmarks") / "results"

#: Environment variable that turns on the ``strict_ratio`` pair bounds.
STRICT_ENV_VAR = "REPRO_BENCH_STRICT"


def strict_mode() -> bool:
    """Whether ``strict_ratio`` bounds hold (``REPRO_BENCH_STRICT=1``)."""
    return os.environ.get(STRICT_ENV_VAR) == "1"


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark.

    Args:
        name: Unique registry key.
        build: ``build(quick)`` does all setup outside the timed region
            and returns the zero-argument callable to time.  ``quick``
            selects a smaller workload for CI smoke runs.
        tags: Free-form workload labels (``"engine"``, ``"sweep"``, ...)
            usable with ``repro bench --filter``.
        repeats: Timed calls per record (full mode).
        warmup: Untimed calls before measurement starts.
        quick_repeats: Timed calls under ``--quick``.
        description: One line for ``repro bench --list``.
        reference: Name of the registry entry this bench is timed
            against; makes the bench a pair.
        max_ratio: Bound on ``min_s / reference_min_s`` for a pair.
        check: ``check(reference_output, output)`` raises unless both
            sides of a pair computed the same thing.
        strict_ratio: Enforce ``max_ratio`` only under
            ``REPRO_BENCH_STRICT=1``.
    """

    name: str
    build: Callable[[bool], Callable[[], object]]
    tags: tuple[str, ...] = ()
    repeats: int = 5
    warmup: int = 1
    quick_repeats: int = 3
    description: str = ""
    reference: str | None = None
    max_ratio: float | None = None
    check: Callable[[object, object], None] | None = field(
        default=None, compare=False
    )
    strict_ratio: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.repeats < 1 or self.quick_repeats < 1:
            raise ValueError("repeats must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.reference is None:
            if self.max_ratio is not None or self.check is not None or self.strict_ratio:
                raise ValueError("max_ratio, check and strict_ratio need a reference")
            return
        if self.reference == self.name:
            raise ValueError(f"benchmark {self.name!r} cannot be its own reference")
        if self.max_ratio is None or self.max_ratio <= 0 or self.check is None:
            raise ValueError("a pair needs a positive max_ratio and a check")
        if self.warmup < 1:
            raise ValueError("a pair needs warmup >= 1: check reads the warmup outputs")


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
    repeats: int = 5,
    warmup: int = 1,
    quick_repeats: int = 3,
    description: str = "",
    reference: str | None = None,
    max_ratio: float | None = None,
    check: Callable[[object, object], None] | None = None,
    strict_ratio: bool = False,
    registry: BenchmarkRegistry | None = None,
) -> Callable[[Callable[[bool], Callable[[], object]]], Callable]:
    """Decorator registering a builder thunk as a :class:`Benchmark`."""

    def decorate(build: Callable[[bool], Callable[[], object]]):
        (registry if registry is not None else DEFAULT_REGISTRY).add(
            Benchmark(
                name=name,
                build=build,
                tags=tuple(tags),
                repeats=repeats,
                warmup=warmup,
                quick_repeats=quick_repeats,
                description=description or (build.__doc__ or "").strip().split("\n")[0],
                reference=reference,
                max_ratio=max_ratio,
                check=check,
                strict_ratio=strict_ratio,
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


def _rounds(sides: int, first: int, count: int):
    """Side indices in call order for rounds ``first .. first+count-1``:
    the side that goes first switches on every round."""
    for round_ in range(first, first + count):
        order = range(sides)
        yield from (order if round_ % 2 == 0 else reversed(order))


def run_benchmark(
    benchmark: Benchmark,
    quick: bool = False,
    env: Mapping | None = None,
    registry: BenchmarkRegistry | None = None,
) -> dict:
    """Execute one benchmark under the pinned protocol; returns the record.

    Setup (``build(quick)``) runs outside the timed region.  The thunk is
    then called ``warmup`` times untimed and ``repeats`` times timed with
    ``perf_counter``; ``min_s`` is the headline statistic.  A pair's
    reference (looked up in ``registry``, default the shared one) is
    built too, both sides alternate through the same rounds, and
    ``check`` runs on the last warmup outputs before any timed call.
    """
    repeats = benchmark.quick_repeats if quick else benchmark.repeats
    sides = [benchmark.build(quick)]
    if benchmark.reference is not None:
        reference = (registry if registry is not None else DEFAULT_REGISTRY).get(
            benchmark.reference
        )
        sides.insert(0, reference.build(quick))
    outputs: list[object] = [None] * len(sides)
    for side in _rounds(len(sides), 0, benchmark.warmup):
        outputs[side] = sides[side]()
    if benchmark.check is not None:
        benchmark.check(*outputs)
    del outputs
    samples: list[list[float]] = [[] for _ in sides]
    for side in _rounds(len(sides), benchmark.warmup, repeats):
        thunk = sides[side]
        start = time.perf_counter()
        thunk()
        samples[side].append(time.perf_counter() - start)
    times = samples[-1]
    record = {
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
        "ts": time.time(),
        "env": dict(env) if env is not None else environment_fingerprint(),
    }
    if benchmark.reference is not None:
        reference_min = round(min(samples[0]), 6)
        record.update(
            reference=benchmark.reference,
            reference_times_s=[round(t, 6) for t in samples[0]],
            reference_min_s=reference_min,
            ratio=record["min_s"] / reference_min if reference_min > 0 else float("inf"),
            max_ratio=benchmark.max_ratio,
        )
    return record


_REQUIRED_FIELDS = {
    "schema": int,
    "bench": str,
    "quick": bool,
    "repeats": int,
    "times_s": list,
    "min_s": (int, float),
    "median_s": (int, float),
    "mean_s": (int, float),
    "ts": (int, float),
    "env": dict,
}

#: Fields a pair record carries, and no other record does.
_PAIR_FIELDS = {
    "reference": str,
    "reference_times_s": list,
    "reference_min_s": (int, float),
    "ratio": (int, float),
    "max_ratio": (int, float),
}

_REQUIRED_ENV_FIELDS = ("git_sha", "python", "numpy", "platform", "cpu_count")


def validate_record(record: Mapping) -> list[str]:
    """Schema-check one bench record; returns violations (empty = valid)."""
    errors: list[str] = []
    required = dict(_REQUIRED_FIELDS)
    if "reference" in record:
        required.update(_PAIR_FIELDS)
    else:
        errors.extend(
            f"field {key!r} belongs only on a pair record"
            for key in _PAIR_FIELDS if key in record
        )
    for key, kind in required.items():
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
    if "reference" in record and all(
        isinstance(record.get(key), kind)
        for key, kind in (*_PAIR_FIELDS.items(), ("min_s", (int, float)))
    ):
        if not record["reference_times_s"]:
            errors.append("reference_times_s is empty")
        elif abs(min(record["reference_times_s"]) - record["reference_min_s"]) > 1e-9:
            errors.append("reference_min_s does not match min(reference_times_s)")
        elif record["reference_min_s"] > 0 and abs(
            record["ratio"] - record["min_s"] / record["reference_min_s"]
        ) > 1e-9:
            errors.append("ratio does not match min_s / reference_min_s")
    if isinstance(record.get("schema"), int) and record["schema"] > BENCH_SCHEMA_VERSION:
        errors.append(
            f"record schema {record['schema']} is newer than supported "
            f"{BENCH_SCHEMA_VERSION}"
        )
    return errors


# ----------------------------------------------------------------------
# The trajectory file


def trajectory_path(results_dir: pathlib.Path | str | None = None) -> pathlib.Path:
    root = pathlib.Path(results_dir) if results_dir is not None else DEFAULT_RESULTS_DIR
    return root / "BENCH_trajectory.jsonl"


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
