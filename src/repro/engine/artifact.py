"""Structured JSON result artifacts and their schema.

Every engine run emits one schema-validated record.  The validator is
deliberately dependency-free (no ``jsonschema`` in the container); the
schema below is the single source of truth for both validation and the
documentation in ``docs/experiment_engine.md``.

Record shape (``repro.engine/result/v1``)::

    {
      "schema": "repro.engine/result/v1",
      "experiment": "table1",         # primary registry name
      "experiment_id": "E2",          # DESIGN.md ID
      "title": "...",
      "params": { ... },              # fully-resolved, canonical values
      "cells": [
        {"cell": {...},               # the cell's sweep coordinates
         "trials": [...],             # per-trial results (may be empty)
         "summary": {"mean":..., "min":..., "max":..., "n":...} | null,
         "confidence":                # optional: voting-recovery sweeps
             {"mean":..., "min":..., "n":...} | null,
         ...experiment-specific fields...}
      ],
      "summary": { ... },             # experiment-level summary
      "telemetry": {
        "engine_version": 1, "workers": N,
        "trials_total": T, "wall_time_s": W, "trials_per_s": R,
        "cache": "hit" | "miss" | "disabled",
        "cache_key": "...", "code_fingerprint": "..."
      }
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Type

#: Schema identifier embedded in every record.
SCHEMA_ID = "repro.engine/result/v1"

#: Telemetry ``cache`` states.
CACHE_STATES = ("hit", "miss", "disabled")


class ArtifactSchemaError(ValueError):
    """A record does not conform to :data:`SCHEMA_ID`."""


def require_field(record: Mapping[str, Any], field: str, kinds,
                  where: str,
                  error: Type[ValueError] = ArtifactSchemaError) -> Any:
    """Return ``record[field]`` if present and of one of ``kinds``.

    Shared by every record validator (engine results, perf records);
    ``error`` is the schema error class the caller raises.  ``bool`` is
    an ``int`` subclass, but it never satisfies a numeric field: a bool
    passes only where ``kinds`` names ``bool`` itself.
    """
    if field not in record:
        raise error(f"{where}: missing field {field!r}")
    value = record[field]
    allowed = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed):
        raise error(
            f"{where}: field {field!r} has type {type(value).__name__}"
        )
    return value


def validate_record(record: Mapping[str, Any]) -> None:
    """Validate one result record; raises :class:`ArtifactSchemaError`."""
    if not isinstance(record, Mapping):
        raise ArtifactSchemaError("record must be an object")
    schema = require_field(record, "schema", str, "record")
    if schema != SCHEMA_ID:
        raise ArtifactSchemaError(
            f"record: schema {schema!r} != {SCHEMA_ID!r}"
        )
    require_field(record, "experiment", str, "record")
    require_field(record, "experiment_id", str, "record")
    require_field(record, "title", str, "record")
    require_field(record, "params", Mapping, "record")
    cells = require_field(record, "cells", list, "record")
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, Mapping):
            raise ArtifactSchemaError(f"{where}: must be an object")
        require_field(cell, "cell", Mapping, where)
        require_field(cell, "trials", list, where)
        summary = require_field(cell, "summary", (Mapping, type(None)),
                                where)
        if summary is not None:
            for field in ("mean", "min", "max", "n"):
                require_field(summary, field, (int, float), f"{where}.summary")
        if cell.get("confidence") is not None:
            confidence = require_field(cell, "confidence", Mapping, where)
            for field in ("mean", "min", "n"):
                require_field(confidence, field, (int, float),
                         f"{where}.confidence")
    require_field(record, "summary", Mapping, "record")
    telemetry = require_field(record, "telemetry", Mapping, "record")
    require_field(telemetry, "engine_version", int, "telemetry")
    require_field(telemetry, "workers", int, "telemetry")
    require_field(telemetry, "trials_total", int, "telemetry")
    require_field(telemetry, "wall_time_s", (int, float), "telemetry")
    require_field(telemetry, "trials_per_s", (int, float), "telemetry")
    cache_state = require_field(telemetry, "cache", str, "telemetry")
    if cache_state not in CACHE_STATES:
        raise ArtifactSchemaError(
            f"telemetry: cache {cache_state!r} not in {CACHE_STATES}"
        )
    require_field(telemetry, "cache_key", str, "telemetry")
    require_field(telemetry, "code_fingerprint", str, "telemetry")


def trial_summary(samples: List[float]) -> Optional[Dict[str, float]]:
    """The per-cell ``summary`` object (``None`` for sample-free cells)."""
    numeric = [float(s) for s in samples]
    if not numeric:
        return None
    return {
        "mean": sum(numeric) / len(numeric),
        "min": min(numeric),
        "max": max(numeric),
        "n": len(numeric),
    }


def confidence_summary(confidences: List[float]
                       ) -> Optional[Dict[str, float]]:
    """Per-cell ``confidence`` telemetry for voting-recovery sweeps.

    Aggregates the per-segment acceptance confidences the lossy-channel
    experiments report (``None`` when no segment-level confidence was
    collected, e.g. all trials dropped out before accepting anything).
    """
    numeric = [float(c) for c in confidences]
    if not numeric:
        return None
    return {
        "mean": sum(numeric) / len(numeric),
        "min": min(numeric),
        "n": len(numeric),
    }


def write_artifact(record: Mapping[str, Any],
                   directory: Path) -> Path:
    """Write the canonical ``<experiment>.json`` artifact for a run."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{record['experiment']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
