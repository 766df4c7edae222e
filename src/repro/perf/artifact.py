"""The ``BENCH_perf.json`` artifact and the perf trajectory file.

Follows the :mod:`repro.engine.artifact` conventions: a hand-rolled,
dependency-free validator over a documented schema, and artifacts under
the engine's results directory (``benchmarks/results``, redirected by
``REPRO_RESULTS_DIR``).

Record shape (``repro.perf/bench/v1``)::

    {
      "schema": "repro.perf/bench/v1",
      "quick": true,
      "seed": 0,
      "benchmarks": [
        {"name": "gift64_encrypt_untraced",
         "ops": 12345, "seconds": 0.41, "ops_per_s": 30110.0},
        ...
      ],
      "ratios": {"gift64_untraced_over_traced": 25.1,
                 "gift64_batch_over_untraced": 50.3,
                 "defender_tap_overhead": 1.2, ...},
      "gates": {
        "min_untraced_over_traced": 5.0,
        "min_batch_over_untraced": 20.0,
        "max_defender_tap_overhead": 1.5,
        "regression_headroom": 2.0,
        "baseline_untraced_over_traced": 24.0 | null,
        "failures": [],
        "passed": true
      },
      "environment": {"python": "3.11.7", "platform": "Linux-..."}
    }

The **trajectory file** (``perf_trajectory.jsonl``) appends one compact
line per run — timestamp, ratios, per-bench ops/s — so the ratio
history survives across PRs; its most recent entry anchors the
traced-path regression gate (see :func:`repro.perf.suite.check_gates`).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .suite import (
    MAX_DEFENDER_TAP_OVERHEAD,
    MIN_BATCH_OVER_UNTRACED,
    MIN_UNTRACED_OVER_TRACED,
    REGRESSION_HEADROOM,
    PerfReport,
    check_gates,
)

#: Schema identifier embedded in every record.
SCHEMA_ID = "repro.perf/bench/v1"

#: Canonical artifact file name (uploaded by the CI perf-smoke job).
ARTIFACT_NAME = "BENCH_perf.json"

#: Appending run-over-run ratio history.
TRAJECTORY_NAME = "perf_trajectory.jsonl"


class PerfSchemaError(ValueError):
    """A record does not conform to :data:`SCHEMA_ID`."""


def _require(record: Mapping[str, Any], field: str, kinds,
             where: str) -> Any:
    if field not in record:
        raise PerfSchemaError(f"{where}: missing field {field!r}")
    value = record[field]
    if not isinstance(value, kinds):
        raise PerfSchemaError(
            f"{where}: field {field!r} has type {type(value).__name__}"
        )
    return value


def validate_record(record: Mapping[str, Any]) -> None:
    """Validate one perf record; raises :class:`PerfSchemaError`."""
    if not isinstance(record, Mapping):
        raise PerfSchemaError("record must be an object")
    schema = _require(record, "schema", str, "record")
    if schema != SCHEMA_ID:
        raise PerfSchemaError(f"record: schema {schema!r} != {SCHEMA_ID!r}")
    _require(record, "quick", bool, "record")
    _require(record, "seed", int, "record")
    benchmarks = _require(record, "benchmarks", list, "record")
    if not benchmarks:
        raise PerfSchemaError("record: benchmarks must not be empty")
    for index, bench in enumerate(benchmarks):
        where = f"benchmarks[{index}]"
        if not isinstance(bench, Mapping):
            raise PerfSchemaError(f"{where}: must be an object")
        _require(bench, "name", str, where)
        ops = _require(bench, "ops", int, where)
        if ops < 1:
            raise PerfSchemaError(f"{where}: ops must be positive")
        _require(bench, "seconds", (int, float), where)
        _require(bench, "ops_per_s", (int, float), where)
    ratios = _require(record, "ratios", Mapping, "record")
    for name, value in ratios.items():
        if not isinstance(value, (int, float)):
            raise PerfSchemaError(
                f"ratios[{name!r}] has type {type(value).__name__}"
            )
    gates = _require(record, "gates", Mapping, "record")
    _require(gates, "min_untraced_over_traced", (int, float), "gates")
    _require(gates, "min_batch_over_untraced", (int, float), "gates")
    _require(gates, "max_defender_tap_overhead", (int, float), "gates")
    _require(gates, "regression_headroom", (int, float), "gates")
    if "baseline_untraced_over_traced" not in gates:
        raise PerfSchemaError(
            "gates: missing field 'baseline_untraced_over_traced'"
        )
    baseline = gates["baseline_untraced_over_traced"]
    if baseline is not None and not isinstance(baseline, (int, float)):
        raise PerfSchemaError(
            "gates: baseline_untraced_over_traced must be a number or null"
        )
    _require(gates, "failures", list, "gates")
    _require(gates, "passed", bool, "gates")
    environment = _require(record, "environment", Mapping, "record")
    _require(environment, "python", str, "environment")
    _require(environment, "platform", str, "environment")


def build_record(report: PerfReport,
                 baseline_ratio: Optional[float] = None
                 ) -> Dict[str, Any]:
    """Fold a suite report into a schema-valid artifact record."""
    ratios = report.ratios
    failures = check_gates(ratios, baseline_ratio)
    record = {
        "schema": SCHEMA_ID,
        "quick": report.quick,
        "seed": report.seed,
        "benchmarks": [result.as_record() for result in report.results],
        "ratios": ratios,
        "gates": {
            "min_untraced_over_traced": MIN_UNTRACED_OVER_TRACED,
            "min_batch_over_untraced": MIN_BATCH_OVER_UNTRACED,
            "max_defender_tap_overhead": MAX_DEFENDER_TAP_OVERHEAD,
            "regression_headroom": REGRESSION_HEADROOM,
            "baseline_untraced_over_traced": baseline_ratio,
            "failures": failures,
            "passed": not failures,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    validate_record(record)
    return record


def results_dir() -> Path:
    """The artifact directory (the engine's, for one results tree)."""
    from ..engine.cache import results_dir as engine_results_dir

    return engine_results_dir()


def write_artifact(record: Mapping[str, Any],
                   directory: Optional[Path] = None) -> Path:
    """Write the canonical :data:`ARTIFACT_NAME` for a run."""
    validate_record(record)
    directory = directory if directory is not None else results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / ARTIFACT_NAME
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def append_trajectory(record: Mapping[str, Any],
                      directory: Optional[Path] = None,
                      timestamp: Optional[str] = None) -> Path:
    """Append one compact trajectory line for ``record``."""
    validate_record(record)
    directory = directory if directory is not None else results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / TRAJECTORY_NAME
    entry = {
        "timestamp": (timestamp if timestamp is not None
                      else time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime())),
        "quick": record["quick"],
        "ratios": dict(record["ratios"]),
        "ops_per_s": {
            bench["name"]: bench["ops_per_s"]
            for bench in record["benchmarks"]
        },
    }
    with path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def last_trajectory_ratio(directory: Optional[Path] = None,
                          key: str = "gift64_untraced_over_traced"
                          ) -> Optional[float]:
    """The most recent trajectory entry's ``key`` ratio, if any.

    Malformed lines are skipped (a truncated append must not wedge
    every future perf run), and a missing file simply means no
    baseline yet.
    """
    directory = directory if directory is not None else results_dir()
    path = directory / TRAJECTORY_NAME
    if not path.exists():
        return None
    ratio: Optional[float] = None
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if not isinstance(entry, dict):
            continue
        entry_ratios = entry.get("ratios")
        value = (entry_ratios.get(key)
                 if isinstance(entry_ratios, dict) else None)
        if isinstance(value, (int, float)):
            ratio = float(value)
    return ratio
