"""Analytic effort model, statistics and ASCII reporting.

The paper's experiments run through :mod:`repro.engine`
(``run_experiment`` + ``render_record``); the renderers here format the
engine's records.  This package sits below the engine and never
imports it.
"""

from .reporting import (
    format_count,
    format_table,
    render_figure3,
    render_series,
    render_table1,
    render_table2,
)
from .statistics import (
    Summary,
    geometric_mean,
    mean,
    mean_confidence_interval,
    median,
    sample_stdev,
)
from .theory import (
    absence_probability,
    expected_encryptions_per_segment,
    expected_first_round_effort,
    expected_max_geometric,
    flush_advantage,
    growth_factor_per_round,
    monitored_lines,
    practical_probing_round_limit,
    visible_noise_accesses,
)

__all__ = [
    "format_count",
    "format_table",
    "render_figure3",
    "render_series",
    "render_table1",
    "render_table2",
    "Summary",
    "geometric_mean",
    "mean",
    "mean_confidence_interval",
    "median",
    "sample_stdev",
    "absence_probability",
    "expected_encryptions_per_segment",
    "expected_first_round_effort",
    "expected_max_geometric",
    "flush_advantage",
    "growth_factor_per_round",
    "monitored_lines",
    "practical_probing_round_limit",
    "visible_noise_accesses",
]
