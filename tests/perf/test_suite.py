"""Tests for the benchmark suite and its ratio gates."""

import pytest

from repro.gift.bitsliced import numpy_available
from repro.perf.suite import (
    MAX_DEFENDER_TAP_OVERHEAD,
    MIN_BATCH_OVER_UNTRACED,
    MIN_UNTRACED_OVER_TRACED,
    PerfReport,
    check_gates,
    run_suite,
)
from repro.perf.bench import BenchResult


class TestCheckGates:
    def test_all_pass(self):
        assert check_gates({"gift64_untraced_over_traced": 12.0}) == []

    def test_below_min_ratio(self):
        failures = check_gates({"gift64_untraced_over_traced": 2.0})
        assert len(failures) == 1
        assert "below" in failures[0]

    def test_every_ratio_is_gated(self):
        failures = check_gates({
            "gift64_untraced_over_traced": 12.0,
            "gift128_untraced_over_traced": 1.5,
        })
        assert len(failures) == 1
        assert "gift128" in failures[0]

    def test_baseline_headroom(self):
        ratios = {"gift64_untraced_over_traced": 30.0}
        assert check_gates(ratios, baseline_ratio=20.0) == []
        failures = check_gates(ratios, baseline_ratio=10.0)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_no_baseline_means_no_regression_gate(self):
        assert check_gates({"gift64_untraced_over_traced": 1000.0}) == []

    def test_batch_ratio_gated_at_batch_floor(self):
        # 12x clears the 5x untraced gate but not the 20x batch gate.
        failures = check_gates({"gift64_batch_over_untraced": 12.0})
        assert len(failures) == 1
        assert f"{MIN_BATCH_OVER_UNTRACED:.1f}x" in failures[0]
        assert check_gates(
            {"gift64_batch_over_untraced": MIN_BATCH_OVER_UNTRACED}
        ) == []

    def test_tap_overhead_is_a_ceiling(self):
        # 1.2x would fail any floor gate; as an overhead it passes.
        assert check_gates({"defender_tap_overhead": 1.2}) == []
        assert check_gates(
            {"defender_tap_overhead": MAX_DEFENDER_TAP_OVERHEAD}
        ) == []
        failures = check_gates({"defender_tap_overhead": 6.0})
        assert len(failures) == 1
        assert "above" in failures[0]


class TestPerfReport:
    def test_result_lookup(self):
        report = PerfReport(quick=True, seed=0, results=[
            BenchResult("a", ops=1, seconds=1.0),
        ])
        assert report.result("a").ops == 1
        with pytest.raises(KeyError):
            report.result("missing")

    def test_ratios_skip_missing_pairs(self):
        report = PerfReport(quick=True, seed=0, results=[
            BenchResult("gift64_encrypt_untraced", ops=10, seconds=1.0),
            BenchResult("transport_plain_ops", ops=10, seconds=1.0),
        ])
        assert report.ratios == {}

    def test_tap_overhead_is_plain_over_watched(self):
        report = PerfReport(quick=True, seed=0, results=[
            BenchResult("transport_plain_ops", ops=30, seconds=1.0),
            BenchResult("transport_watched_ops", ops=20, seconds=1.0),
        ])
        assert report.ratios == {"defender_tap_overhead": 1.5}


class TestRunSuite:
    @pytest.fixture(scope="class")
    def report(self):
        # One real (but tiny) suite run shared by the assertions below.
        return run_suite(quick=True, seed=0, min_seconds=0.01)

    def test_quick_suite_shape(self, report):
        names = [result.name for result in report.results]
        expected = [
            "gift64_encrypt_untraced",
            "gift64_encrypt_traced",
        ]
        if numpy_available():
            expected.append("gift64_encrypt_batch")
        expected += [
            "observer_fast_observations",
            "crafting_round3_plaintexts",
            "voting_updates",
            "engine_first_round_trial",
            "transport_plain_ops",
            "transport_watched_ops",
        ]
        assert names == expected
        assert all(result.ops >= 1 for result in report.results)

    def test_untraced_beats_traced_by_gate_margin(self, report):
        """The tentpole claim: the trace-free path is >= 5x the traced
        path, on whatever hardware the tests run on."""
        ratio = report.ratios["gift64_untraced_over_traced"]
        assert ratio >= MIN_UNTRACED_OVER_TRACED

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_batch_beats_untraced_by_gate_margin(self, report):
        """The batch-fabric claim: bitsliced encrypt_batch delivers
        >= 20x the scalar untraced blocks/s."""
        ratio = report.ratios["gift64_batch_over_untraced"]
        assert ratio >= MIN_BATCH_OVER_UNTRACED

    def test_gates_pass_on_real_run(self, report):
        assert check_gates(report.ratios) == []
