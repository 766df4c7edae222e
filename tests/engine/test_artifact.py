"""The JSON result-artifact schema and its validator."""

import copy

import pytest

from repro.engine import run_experiment
from repro.engine.artifact import (
    SCHEMA_ID,
    ArtifactSchemaError,
    trial_summary,
    validate_record,
)


@pytest.fixture(scope="module")
def record():
    """A real (small) engine record to mutate in the schema tests."""
    return run_experiment("table2", {"frequencies_mhz": (25,)},
                          use_cache=False)


class TestValidateRecord:
    def test_real_record_validates(self, record):
        validate_record(record)

    def test_schema_id_is_versioned(self, record):
        assert record["schema"] == SCHEMA_ID == "repro.engine/result/v1"

    @pytest.mark.parametrize("field", [
        "schema", "experiment", "experiment_id", "title",
        "params", "cells", "summary", "telemetry",
    ])
    def test_missing_top_level_field_rejected(self, record, field):
        broken = copy.deepcopy(record)
        del broken[field]
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_wrong_schema_id_rejected(self, record):
        broken = copy.deepcopy(record)
        broken["schema"] = "repro.engine/result/v0"
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_cell_without_coordinates_rejected(self, record):
        broken = copy.deepcopy(record)
        del broken["cells"][0]["cell"]
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_bad_cache_state_rejected(self, record):
        broken = copy.deepcopy(record)
        broken["telemetry"]["cache"] = "stale"
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    @pytest.mark.parametrize("field", [
        "workers", "trials_total", "wall_time_s", "trials_per_s",
        "cache_key", "code_fingerprint",
    ])
    def test_missing_telemetry_field_rejected(self, record, field):
        broken = copy.deepcopy(record)
        del broken["telemetry"][field]
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    @pytest.mark.parametrize("field", ["workers", "engine_version"])
    def test_bool_is_not_an_int(self, record, field):
        # bool subclasses int; a flag must not pass as a count.
        broken = copy.deepcopy(record)
        broken["telemetry"][field] = True
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_record_is_json_round_trippable(self, record):
        import json

        validate_record(json.loads(json.dumps(record)))


class TestTrialSummary:
    def test_empty_is_none(self):
        assert trial_summary([]) is None

    def test_stats(self):
        summary = trial_summary([1, 2, 3])
        assert summary == {"mean": 2.0, "min": 1.0, "max": 3.0, "n": 3}
