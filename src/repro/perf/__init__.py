"""Performance subsystem: microbenchmarks, artifacts, regression gates.

``repro.perf`` keeps the hot paths fast the same way the engine keeps
results reproducible — by measuring them on every change and gating on
*hardware-independent ratios* rather than absolute throughput (the
attacker-effort-vs-throughput framing Flush+Flush and ARMageddon use to
compare probe channels).  Three layers:

* :mod:`repro.perf.bench` — the calibrated timing core
  (:func:`measure` runs a callable in geometrically growing batches
  until the sample is long enough to trust;
  :func:`~repro.perf.bench.measure_interleaved` alternates several
  callables so their ratio survives host drift).
* :mod:`repro.perf.suite` — the benchmark suite: cipher enc/s (traced
  vs. untraced), bare vs. defender-tapped transport sweeps, observer
  fast-path observations/s, voting updates/s, and engine first-round
  trials/s, plus the ratio gates (:data:`MIN_UNTRACED_OVER_TRACED`,
  :data:`~repro.perf.suite.MAX_DEFENDER_TAP_OVERHEAD`).
* :mod:`repro.perf.artifact` — the schema-validated ``BENCH_perf.json``
  record (``repro.perf/bench/v1``) and the appending trajectory file
  that anchors the regression policy.

Run it with ``python -m repro perf [--quick] [--json] [--profile P]``;
see ``docs/performance.md`` for how to read the output.
"""

from .artifact import (
    ARTIFACT_NAME,
    SCHEMA_ID,
    TRAJECTORY_NAME,
    append_trajectory,
    build_record,
    last_trajectory_ratio,
    validate_record,
    write_artifact,
)
from .bench import BenchResult, measure
from .suite import (
    MIN_UNTRACED_OVER_TRACED,
    REGRESSION_HEADROOM,
    PerfReport,
    check_gates,
    run_suite,
)

__all__ = [
    "ARTIFACT_NAME",
    "SCHEMA_ID",
    "TRAJECTORY_NAME",
    "append_trajectory",
    "build_record",
    "last_trajectory_ratio",
    "validate_record",
    "write_artifact",
    "BenchResult",
    "measure",
    "MIN_UNTRACED_OVER_TRACED",
    "REGRESSION_HEADROOM",
    "PerfReport",
    "check_gates",
    "run_suite",
]
