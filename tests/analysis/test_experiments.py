"""The paper's experiments (E1–E4, E6/E7/E9) as engine records.

Each test runs one registered experiment through
:func:`repro.engine.run_experiment` and reads the record's cells — the
same path ``python -m repro run`` and the benchmark harness take.
"""

import pytest

from repro.engine import render_record, run_experiment


def _run(name, **params):
    # Tests always recompute: use_cache=False writes no cache into the repo.
    return run_experiment(name, params, use_cache=False)


def _figure3_series(record, use_flush):
    """One Fig. 3 series, ordered by probing round."""
    return sorted(
        (c for c in record["cells"] if c["cell"]["use_flush"] == use_flush),
        key=lambda c: c["cell"]["probing_round"],
    )


def _table1_cells(record):
    return {
        (c["cell"]["line_words"], c["cell"]["probing_round"]): c
        for c in record["cells"]
    }


def _by_cell(record, coordinate):
    return {c["cell"][coordinate]: c for c in record["cells"]}


class TestFigure3:
    def test_shape_matches_paper(self):
        """Effort grows with the probing round and no-flush always costs
        more — Fig. 3's two qualitative claims."""
        record = _run("figure3", probing_rounds=[1, 2, 3], runs=1,
                      max_simulated_effort=2_000)
        for use_flush in (True, False):
            efforts = [c["encryptions"]
                       for c in _figure3_series(record, use_flush)]
            assert efforts == sorted(efforts)
        for flush_cell, no_flush_cell in zip(_figure3_series(record, True),
                                             _figure3_series(record, False)):
            assert no_flush_cell["encryptions"] > flush_cell["encryptions"]

    def test_round_one_with_flush_near_paper_value(self):
        """Paper: ~100 encryptions to break the first round when probing
        round 1 (32 key bits)."""
        record = _run("figure3", probing_rounds=[1], runs=3)
        cell = _figure3_series(record, True)[0]
        assert cell["simulated"]
        assert 60 <= cell["encryptions"] <= 300

    def test_analytic_fallback_beyond_budget(self):
        record = _run("figure3", probing_rounds=[1, 6], runs=1,
                      max_simulated_effort=500)
        assert not _figure3_series(record, True)[1]["simulated"]

    def test_validation(self):
        with pytest.raises(ValueError):
            _run("figure3", runs=0)


class TestTable1:
    def test_dropout_triangle_matches_paper(self):
        """The >1M cells appear in the same lower-right triangle as the
        paper's Table I."""
        cells = _table1_cells(_run("table1", runs=1,
                                   max_simulated_effort=2_000))
        assert not cells[1, 1]["dropped_out"]
        assert not cells[2, 4]["dropped_out"]
        assert cells[2, 5]["dropped_out"]
        assert cells[4, 3]["dropped_out"]
        assert cells[8, 2]["dropped_out"]

    def test_effort_grows_along_both_axes(self):
        cells = _table1_cells(_run("table1", line_sizes=[1, 2],
                                   probing_rounds=[1, 2], runs=1,
                                   max_simulated_effort=2_000))

        def value(lw, r):
            return cells[lw, r]["encryptions"]

        assert value(1, 2) > value(1, 1)
        assert value(2, 1) > value(1, 1)

    def test_rows_render_like_the_paper(self):
        record = _run("table1", line_sizes=[1, 8], probing_rounds=[1, 2],
                      runs=1, max_simulated_effort=500)
        rows = [line.split(" | ")
                for line in render_record(record).splitlines()[4:]]
        assert rows[0][0].strip() == "1 Word"
        assert rows[1][0].strip() == "8 Words"
        assert rows[1][2].strip() == ">1M"


class TestTable2:
    def test_reproduces_paper_table2_exactly(self):
        probed = {
            (c["cell"]["platform"], c["cell"]["frequency_mhz"]):
                c["probed_round"]
            for c in _run("table2")["cells"]
        }
        assert probed["single-core SoC", 10] == 2
        assert probed["single-core SoC", 25] == 4
        assert probed["single-core SoC", 50] == 8
        for mhz in (10, 25, 50):
            assert probed["MPSoC", mhz] == 1

    def test_rows_layout(self):
        rows = [[field.strip() for field in line.split(" | ")]
                for line in render_record(_run("table2")).splitlines()[4:]]
        assert rows[0] == ["single-core SoC", "2", "4", "8"]
        assert rows[1] == ["MPSoC", "1", "1", "1"]


class TestFullKey:
    def test_headline_effort(self):
        """Full 128-bit recovery in the few-hundred-encryption regime."""
        (cell,) = _run("full_key", runs=2, seed=4)["cells"]
        assert cell["all_recovered"]
        assert cell["summary"]["mean"] < 1_000

    def test_validation(self):
        with pytest.raises(ValueError):
            _run("full_key", runs=0)

    def test_respects_custom_config(self):
        (cell,) = _run("full_key", runs=1, seed=4, probing_round=2)["cells"]
        assert cell["all_recovered"]


class TestAblations:
    def test_flush_reload_beats_prime_probe(self):
        by_name = _by_cell(_run("probe_ablation", seed=2, runs=1),
                           "strategy")
        assert by_name["flush_reload"]["recovered"]
        assert by_name["prime_probe"]["recovered"]
        assert by_name["prime_probe"]["encryptions"] > \
            by_name["flush_reload"]["encryptions"]

    def test_theory_tracks_simulation(self):
        record = _run("theory_validation", cases=[[1, 1], [1, 2]], runs=3)
        for cell in record["cells"]:
            assert cell["relative_error"] < 0.6

    def test_noise_sweep_recovers_under_all_levels(self):
        cells = _run("noise_sweep", levels=[[0.0, 0], [0.8, 4]],
                     runs=1)["cells"]
        assert all(cell["recovered"] for cell in cells)
        assert cells[1]["encryptions"] >= cells[0]["encryptions"]
