"""Tests for the BENCH_perf.json schema and trajectory file."""

import json

import pytest

from repro.perf.artifact import (
    ARTIFACT_NAME,
    SCHEMA_ID,
    TRAJECTORY_NAME,
    PerfSchemaError,
    append_trajectory,
    build_record,
    last_trajectory_ratio,
    validate_record,
    write_artifact,
)
from repro.perf.bench import BenchResult
from repro.perf.suite import PerfReport


def make_report(fast=1000.0, slow=100.0):
    return PerfReport(quick=True, seed=0, results=[
        BenchResult("gift64_encrypt_untraced", ops=int(fast), seconds=1.0),
        BenchResult("gift64_encrypt_traced", ops=int(slow), seconds=1.0),
        BenchResult("voting_updates", ops=500, seconds=1.0),
    ])


class TestBuildRecord:
    def test_valid_and_passing(self):
        record = build_record(make_report())
        validate_record(record)
        assert record["schema"] == SCHEMA_ID
        assert record["ratios"]["gift64_untraced_over_traced"] == 10.0
        assert record["gates"]["passed"]
        assert record["gates"]["baseline_untraced_over_traced"] is None

    def test_min_ratio_gate_fails(self):
        record = build_record(make_report(fast=300.0, slow=100.0))
        assert not record["gates"]["passed"]
        assert any("below" in failure
                   for failure in record["gates"]["failures"])

    def test_baseline_regression_gate_fails(self):
        # ratio 10.0 against a 4.0 baseline with 2.0 headroom -> fail
        record = build_record(make_report(), baseline_ratio=4.0)
        assert not record["gates"]["passed"]
        assert any("regressed" in failure
                   for failure in record["gates"]["failures"])

    def test_baseline_within_headroom_passes(self):
        record = build_record(make_report(), baseline_ratio=8.0)
        assert record["gates"]["passed"]

    def test_defender_tap_ceiling_gate_fails(self):
        report = make_report()
        report.results.extend([
            BenchResult("transport_plain_ops", ops=600, seconds=1.0),
            BenchResult("transport_watched_ops", ops=100, seconds=1.0),
        ])
        record = build_record(report)
        assert record["ratios"]["defender_tap_overhead"] == 6.0
        assert record["gates"]["max_defender_tap_overhead"] == 1.5
        assert not record["gates"]["passed"]
        assert any("defender_tap_overhead" in failure
                   for failure in record["gates"]["failures"])


class TestValidateRecord:
    def test_rejects_wrong_schema(self):
        record = build_record(make_report())
        record["schema"] = "repro.perf/bench/v0"
        with pytest.raises(PerfSchemaError):
            validate_record(record)

    def test_rejects_empty_benchmarks(self):
        record = build_record(make_report())
        record["benchmarks"] = []
        with pytest.raises(PerfSchemaError):
            validate_record(record)

    def test_rejects_missing_gate_field(self):
        record = build_record(make_report())
        del record["gates"]["passed"]
        with pytest.raises(PerfSchemaError):
            validate_record(record)

    def test_rejects_non_numeric_ratio(self):
        record = build_record(make_report())
        record["ratios"]["gift64_untraced_over_traced"] = "10x"
        with pytest.raises(PerfSchemaError):
            validate_record(record)

    def test_rejects_non_mapping(self):
        with pytest.raises(PerfSchemaError):
            validate_record([])


class TestArtifactFiles:
    def test_write_artifact(self, tmp_path):
        record = build_record(make_report())
        path = write_artifact(record, tmp_path)
        assert path == tmp_path / ARTIFACT_NAME
        loaded = json.loads(path.read_text())
        validate_record(loaded)
        assert loaded["ratios"] == record["ratios"]

    def test_trajectory_appends(self, tmp_path):
        record = build_record(make_report())
        append_trajectory(record, tmp_path, timestamp="t0")
        append_trajectory(record, tmp_path, timestamp="t1")
        lines = (tmp_path / TRAJECTORY_NAME).read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["timestamp"] == "t1"

    def test_last_trajectory_ratio_reads_latest(self, tmp_path):
        append_trajectory(build_record(make_report()), tmp_path)
        append_trajectory(build_record(make_report(fast=2000.0)), tmp_path)
        assert last_trajectory_ratio(tmp_path) == 20.0

    def test_last_trajectory_ratio_missing_file(self, tmp_path):
        assert last_trajectory_ratio(tmp_path) is None

    def test_last_trajectory_ratio_skips_malformed_lines(self, tmp_path):
        append_trajectory(build_record(make_report()), tmp_path)
        with (tmp_path / TRAJECTORY_NAME).open("a") as handle:
            handle.write("{truncated\n")
        assert last_trajectory_ratio(tmp_path) == 10.0
