"""Tests of the benchmark itself: every workload at tiny size, metric
names against BENCHMARK.json, span nesting, each workload's premise,
and the failure paths of the command.

Run with ``python3 -m pytest grinchbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
import spans
import workloads
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

#: Tiny pools: enough to show every layer each workload exercises.
TINY = {"fr-fast": 2, "watched": 2, "lossy-batch": 2, "record-replay": 2}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: (untraced run, end-to-end metrics, per-layer
    metrics, traced run consistent?) on a tiny pool."""
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "OUT", tmp_path_factory.mktemp("spans"))
    results = {}
    for name, pool in TINY.items():
        workload = dataclasses.replace(workloads.WORKLOADS[name], pool=pool)
        ops = run.set_up(workload, seed=7)
        measured = run.measure(workload, ops, seconds=0.0)
        per_layer, consistent = run.traced_pass(workload, ops, 7, measured)
        results[name] = (measured, run.end_to_end(measured, 1.0),
                         per_layer, consistent)
    patch.undo()
    return results


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == layers.METRICS
    assert SPEC["command"] == ["python3", "grinchbench/run.py"]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_recovers_every_key(runs, name):
    measured, e2e, per_layer, consistent = runs[name]
    assert [o.status for o in measured.outcomes] == ["ok"] * TINY[name]
    assert measured.irreproducible == 0
    assert consistent
    assert set(e2e) == set(run.END_TO_END)
    assert set(per_layer) == set(layers.METRICS)
    assert all(value > 0 for value in e2e.values())


@pytest.mark.parametrize("name", list(TINY))
def test_self_times_sum_to_traced_wall_time(runs, name):
    per_layer = runs[name][2]
    assert 0.9 < per_layer["tracing.self_sum_share"] <= 1.0
    assert all(per_layer[f"{span}.self_ms"] >= 0
               for span in layers.SPAN_NAMES)


def _present(per_layer, prefix):
    return sum(value for metric, value in per_layer.items()
               if metric.startswith(prefix) and metric.endswith(".calls"))


def test_each_workload_exercises_only_its_own_layers(runs):
    only = {
        "watched": ("channel.defender_tap", "cache.",
                    "targets.encrypt_traced"),
        "lossy-batch": ("core.voting.", "channel.degradation",
                        "targets.batch", "channel.observe_batch"),
        "record-replay": ("trace.",),
    }
    for owner, prefixes in only.items():
        for prefix in prefixes:
            for name in TINY:
                present = _present(runs[name][2], prefix) > 0
                assert present == (name == owner), (prefix, name)


def test_watched_time_goes_to_defender_tap_and_cache(runs):
    per_layer = runs["watched"][2]
    watched = (per_layer["channel.defender_tap.self_ms"]
               + sum(per_layer[f"{span}.self_ms"] for span in layers.SPAN_NAMES
                     if span.startswith("cache.")))
    others = [per_layer[f"{span}.self_ms"] for span in layers.SPAN_NAMES
              if span != "channel.defender_tap"
              and not span.startswith("cache.")]
    assert watched > max(others)


def test_simulated_counters_are_exact_counts(runs):
    measured = runs["watched"][0]
    per_layer = runs["watched"][2]
    assert per_layer["defender.windows"] \
        == per_layer["channel.encryptions_run"] \
        == sum(o.encryptions for o in measured.outcomes)
    assert per_layer["cache.hits"] + per_layer["cache.misses"] > 0
    lossy = runs["lossy-batch"][2]
    assert lossy["channel.lines_dropped"] > 0
    assert 0 < lossy["core.used_window_ratio"] < 1


def test_tracer_self_time_and_nesting():
    tracer = spans.Tracer()
    tracer.op_id = 0
    with tracer.span("outer"):
        time.sleep(0.002)
        with tracer.span("inner"):
            time.sleep(0.004)
    calls, self_seconds = tracer.self_times()
    assert calls == {"outer": 1, "inner": 1}
    assert self_seconds["inner"] >= 0.004
    assert 0.002 <= self_seconds["outer"] < self_seconds["inner"]
    assert tracer.nesting_errors() == 0
    # A child that outlives its parent is caught.
    tracer._end[1] = tracer._end[0] + 1.0
    assert tracer.nesting_errors() > 0


def test_instrumentation_is_removed_afterwards():
    original = vars(workloads.GrinchAttack)["recover_master_key"]
    with spans.instrumented(spans.Tracer(), layers.HOOKS, layers.COUNTED):
        assert vars(workloads.GrinchAttack)["recover_master_key"] \
            is not original
    assert vars(workloads.GrinchAttack)["recover_master_key"] is original


def test_wrong_answer_fails_the_command(monkeypatch, capsys):
    def wrong(op):
        return workloads.Outcome("wrong_key", encryptions=1, windows=1)

    monkeypatch.setitem(workloads.WORKLOADS, "fr-fast", workloads.Workload(
        "fr-fast", wrong, pool=1))
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.main(["--workload", "fr-fast", "--seed", "1",
                     "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_typed_failures_are_counted_not_fatal(monkeypatch, capsys):
    def low_confidence(op):
        return workloads.Outcome("LowConfidenceError", encryptions=5,
                                 windows=5)

    monkeypatch.setitem(workloads.WORKLOADS, "fr-fast", workloads.Workload(
        "fr-fast", low_confidence, pool=2))
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.main(["--workload", "fr-fast", "--seed", "1",
                     "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    assert "{'LowConfidenceError': 2}" in out
    result = json.loads(out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fr-fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
