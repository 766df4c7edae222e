"""Tests for the ASCII reporting helpers."""

import pytest

from repro.analysis.reporting import (
    format_count,
    format_table,
    render_figure3,
    render_series,
    render_table1,
    render_table2,
)
from repro.engine import render_record, run_experiment


class TestFormatTable:
    def test_columns_align(self):
        text = format_table("T", ["a", "bee"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        header, divider, *rows = lines[2:]
        assert header.index("|") == rows[0].index("|")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table("T", ["a"], [["1", "2"]])


class TestFormatCount:
    def test_thousands_separator(self):
        assert format_count(12345) == "12,345"

    def test_dropout_threshold(self):
        assert format_count(2_000_000) == ">1M"


def _figure3_cell(probing_round, use_flush, encryptions, simulated):
    return {"cell": {"probing_round": probing_round, "use_flush": use_flush},
            "encryptions": encryptions, "simulated": simulated}


def _table1_cell(line_words, probing_round, encryptions, dropped_out,
                 simulated):
    return {"cell": {"line_words": line_words,
                     "probing_round": probing_round},
            "encryptions": encryptions, "dropped_out": dropped_out,
            "simulated": simulated}


def _table2_cell(platform, frequency_mhz, probed_round):
    return {"cell": {"platform": platform, "frequency_mhz": frequency_mhz},
            "probed_round": probed_round}


class TestRenderers:
    """The paper renderers read engine records; these are hand-built so
    every marker is covered without running a sweep."""

    def test_render_figure3_mentions_series(self):
        text = render_figure3({"cells": [
            _figure3_cell(1, True, 100.0, True),
            _figure3_cell(1, False, 300.0, True),
            _figure3_cell(2, True, 500.0, False),
        ]})
        assert "flush" in text
        assert "no-flush" in text
        assert "analytic" in text
        assert "100" in text

    def test_render_table1(self):
        text = render_table1({"cells": [
            _table1_cell(1, 1, 96.0, False, True),
            _table1_cell(1, 2, None, True, False),
        ]})
        assert "1 Word" in text
        assert ">1M" in text
        assert "96" in text

    def test_render_table2(self):
        text = render_table2({"cells": [
            _table2_cell(platform, mhz, probed)
            for platform, rounds in (("single-core SoC", (2, 4, 8)),
                                     ("MPSoC", (1, 1, 1)))
            for mhz, probed in zip((10, 25, 50), rounds)
        ]})
        assert "single-core SoC" in text
        assert "MPSoC" in text
        assert "50 MHz" in text

    def test_render_series(self):
        text = render_series("title", ["a", "bb"], [1.0, 2_000_000.0])
        assert "title" in text
        assert ">1M" in text

    def test_render_series_validates(self):
        with pytest.raises(ValueError):
            render_series("t", ["a"], [1.0, 2.0])


#: ``render_record`` text of small seeded sweeps, pinned byte for byte so
#: a change to a renderer or to the records it reads cannot go unseen.
FIGURE3_PIN = (
    "Fig. 3 — Required encryptions to break the 1st GIFT round\n"
    "(log-scale bars; 'analytic' = beyond the Monte-Carlo budget)\n"
    "round  1    flush        112 |##########################\n"
    "round  1 no-flush        420 |##################################\n"
    "round  2    flush        390 |#################################\n"
    "round  2 no-flush      1,149 |########################################"
)
TABLE1_PIN = (
    "Table I — Required encryptions to attack the first round\n"
    "========================================================\n"
    "Cache Line Size | 1        | 2  \n"
    "----------------+----------+----\n"
    "1 Word          | 124      | 425\n"
    "8 Words         | ~524,288 | >1M"
)
TABLE2_PIN = (
    "Table II — Attack efficiency (probed round) of performed attacks\n"
    "================================================================\n"
    "Platform        | 10 MHz | 25 MHz | 50 MHz\n"
    "----------------+--------+--------+-------\n"
    "single-core SoC | 2      | 4      | 8     \n"
    "MPSoC           | 1      | 1      | 1     "
)


class TestRenderPins:
    def test_figure3(self):
        record = run_experiment(
            "figure3",
            {"probing_rounds": [1, 2], "runs": 1,
             "max_simulated_effort": 2_000},
            use_cache=False,
        )
        assert render_record(record) == FIGURE3_PIN

    def test_table1(self):
        record = run_experiment(
            "table1",
            {"line_sizes": [1, 8], "probing_rounds": [1, 2], "runs": 1,
             "max_simulated_effort": 500},
            use_cache=False,
        )
        assert render_record(record) == TABLE1_PIN

    def test_table2(self):
        record = run_experiment("table2", use_cache=False)
        assert render_record(record) == TABLE2_PIN
