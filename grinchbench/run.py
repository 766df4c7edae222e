"""GRINCH key-recovery benchmark.

    python3 grinchbench/run.py --workload fr-fast --seed 1 --seconds 20 \
        --trace 0

One process, one attack at a time: a closed loop with a single client.
Each operation is one complete, checked GRINCH attack on a key derived
from ``--seed`` (see ``workloads.py``).  The run makes the workload's
fixed pool of operations, then repeats passes over the pool until
``--seconds`` have passed (at least one full pass).  Every repetition
of an operation must reproduce its first outcome exactly.

Times are host-speed normalised: a fixed calibration loop owned by the
benchmark runs between operations, and each operation's host time is
rescaled by the calibrations just before and after it to what the
reference host (on which the loop takes :data:`CALIBRATION_MS`) would
have taken.  On a shared machine whose speed drifts by tens of percent
over seconds, this keeps the drift out of the figures; the raw host
times are printed next to them.  An operation's time is the median of
its repetitions.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it then runs the pool once more with every layer boundary
wrapped in a span, checks that the traced pass reproduces the untraced
outcomes, and reports the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is non-zero when any output
check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up is timed in this process and in this many fresh interpreters;
#: ``setup_s`` is the median.
SETUP_PROBES = 2

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "attacks_per_s": "1/s",
    "encryptions_per_s": "1/s",
    "attack_ms.p50": "ms",
    "attack_ms.tail": "ms",
    "encryptions_per_attack": "count",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Operations that must lie beyond the tail percentile.
TAIL_BEYOND = 10

#: Typical duration of one :func:`calibration` on the reference host
#: (a 2-vCPU x86-64 VM, CPython 3.11).
CALIBRATION_MS = 2.0

#: An operation's host speed is the median of this many calibrations on
#: each side of it: a single 2 ms calibration jitters by several percent.
CALIBRATION_WINDOW = 3


def calibration() -> float:
    """Run a fixed piece of interpreter work; return its seconds.

    The benchmark owns this code, so no change to the program can make
    it faster or slower; only the host's speed at that moment can.
    """
    began = time.perf_counter()
    table = [(i * 7919) & 0xFFFF for i in range(256)]
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(6000):
        acc = (acc ^ table[(acc + i) & 0xFF]) * 3 & 0xFFFFFF
        counts[acc & 0x3FF] = counts.get(acc & 0x3FF, 0) + 1
    return time.perf_counter() - began


def normalized(seconds: float, calibrations: Sequence[float]) -> float:
    """``seconds`` rescaled to the reference host's speed, judged by the
    median of ``calibrations`` run around them."""
    return (seconds * CALIBRATION_MS / 1000.0
            / statistics.median(calibrations))


@dataclass(frozen=True)
class Execution:
    """One run of one operation."""

    outcome: object
    seconds: float
    normalized: float


@dataclass
class Measured:
    """Every execution of every operation of a pool, per operation."""

    runs: List[List[Execution]]
    passes: int

    @property
    def outcomes(self) -> list:
        """Each operation's first outcome."""
        return [runs[0].outcome for runs in self.runs]

    @property
    def executions(self) -> List[Execution]:
        return [run for runs in self.runs for run in runs]

    @property
    def irreproducible(self) -> int:
        """Repetitions whose outcome differs from the first one."""
        return sum(run.outcome != runs[0].outcome
                   for runs in self.runs for run in runs)

    def op_seconds(self, normalized: bool = True) -> List[float]:
        """Each operation's median time over its repetitions."""
        return [statistics.median(run.normalized if normalized
                                  else run.seconds for run in runs)
                for runs in self.runs]


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time set-up in a fresh interpreter, print it, exit.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload, seed: int) -> list:
    """Make the seeded operation pool and run the seed-independent
    warm-up operations, so lazy tables and caches are filled before
    timing."""
    import workloads

    for index in range(workload.warmup_ops):
        workload.run(workloads.warmup_input(workload.name, index))
    return [workloads.op_input(workload.name, seed, index)
            for index in range(workload.pool)]


def probe_setup(args: argparse.Namespace) -> float:
    """Normalised set-up seconds of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload, ops: list, seconds: Optional[float] = None,
            tracer=None) -> Measured:
    """Run passes over ``ops``: exactly one when ``seconds`` is None,
    else until ``seconds`` have passed and every operation ran.  With
    ``tracer``, each operation runs inside a root span."""
    import spans

    measured = Measured([[] for _ in ops], passes=0)
    # The k-th timed operation ran between calibrations k and k + 1.
    timed: List[Tuple[int, object, float]] = []
    calibrations = [calibration()]
    start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            began = time.perf_counter()
            if tracer is None:
                outcome = workload.run(op)
            else:
                tracer.op_id = index
                with tracer.span(spans.ROOT):
                    outcome = workload.run(op)
            timed.append((index, outcome, time.perf_counter() - began))
            calibrations.append(calibration())
            if (measured.passes and seconds is not None
                    and time.perf_counter() - start >= seconds):
                break
        else:
            measured.passes += 1
            if (seconds is not None
                    and time.perf_counter() - start < seconds):
                continue
        break
    for k, (index, outcome, took) in enumerate(timed):
        around = calibrations[max(0, k + 1 - CALIBRATION_WINDOW):
                              k + 1 + CALIBRATION_WINDOW]
        measured.runs[index].append(
            Execution(outcome, took, normalized(took, around)))
    return measured


def tail(values_ms: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` operations beyond it (the maximum when there
    are too few operations)."""
    ordered = sorted(values_ms)
    rank = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        rank -= TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def timing(outcomes: list, op_seconds: List[float]) -> Dict[str, float]:
    """The four timing metrics of a pool, from per-operation seconds.

    The two rates count only the attacks up to the tail percentile.
    About 1 ``lossy-batch`` key in 150 re-crafts a voting segment for
    over a second (up to 25 s), and counting it let one key in a seed's
    pool swing that seed's rates by tens of percent.
    """
    import workloads

    op_ms = [1000.0 * s for s in op_seconds]
    tail_ms = tail(op_ms)[0]
    kept = [o for o, ms in zip(outcomes, op_ms) if ms <= tail_ms]
    total = sum(ms for ms in op_ms if ms <= tail_ms) / 1000.0
    return {
        "attacks_per_s": sum(o.status == workloads.OK for o in kept) / total,
        "encryptions_per_s": sum(o.encryptions for o in kept) / total,
        "attack_ms.p50": statistics.median(op_ms),
        "attack_ms.tail": tail_ms,
    }


def end_to_end(measured: Measured, setup_s: float) -> Dict[str, float]:
    import workloads

    outcomes = measured.outcomes
    succeeded = [o for o in outcomes if o.status == workloads.OK]
    return {
        **timing(outcomes, measured.op_seconds()),
        "encryptions_per_attack": (
            sum(o.encryptions for o in succeeded) / len(succeeded)
            if succeeded else 0.0),
        "setup_s": setup_s,
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0),
    }


def report_end_to_end(metrics: Dict[str, float], measured: Measured) -> None:
    import workloads

    outcomes = measured.outcomes
    pool = len(outcomes)
    failures = Counter(o.status for o in outcomes if o.status != workloads.OK)
    failed = sum(failures.values())
    raw = timing(outcomes, measured.op_seconds(normalized=False))
    _, level = tail(measured.op_seconds())
    print(f"  {measured.passes} full passes, {len(measured.executions)} "
          f"executions of {pool} operations, "
          f"{measured.irreproducible} irreproducible")
    notes = {
        "attack_ms.tail": f"p{level:.1f} of {pool} attacks; ",
        "encryptions_per_attack": f"{pool - failed} successful attacks",
    }
    for name, unit in END_TO_END.items():
        note = notes.get(name, "")
        if name in raw:
            note += f"host time: {raw[name]:.4f}"
        print(f"  {name:<24} {metrics[name]:>14.4f} {unit:<6} {note}")
    print(f"  {'failed_share':<24} {failed / pool:>14.4f} {'ratio':<6} "
          f"{failed} of {pool}; by type: {dict(sorted(failures.items()))}")


def traced_pass(workload, ops: list, seed: int, untraced: Measured
                ) -> Tuple[Dict[str, float], bool]:
    """Run the pool once more with spans on.

    Returns the per-layer metrics and whether the traced pass
    reproduced the untraced outcomes exactly and every span nested
    inside its parent.
    """
    import layers
    import spans

    tracer = spans.Tracer()
    with spans.instrumented(tracer, layers.HOOKS, layers.COUNTED):
        traced = measure(workload, ops, tracer=tracer)
    wall = sum(run.seconds for run in traced.executions)
    metrics = layers.per_layer(tracer, traced.outcomes, wall)
    metrics["tracing.overhead_ratio"] = (sum(traced.op_seconds())
                                         / sum(untraced.op_seconds()))
    reproduced = traced.outcomes == untraced.outcomes
    nesting_errors = tracer.nesting_errors()
    path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(path)

    total = sum(metrics[f"{name}.self_ms"] for name in layers.SPAN_NAMES)
    print(f"traced {len(ops)} operations; spans in {path}")
    print(f"  outcomes reproduced: {reproduced}; nesting errors: "
          f"{nesting_errors}")
    for name, unit in layers.METRICS.items():
        share = ""
        if name.endswith(".self_ms") and total:
            share = f"{100.0 * metrics[name] / total:5.1f}% of self time"
        print(f"  {name:<32} {metrics[name]:>14.4f} {unit:<6} {share}")
    return metrics, reproduced and nesting_errors == 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"grinchbench: {SRC} holds no repro package; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    before = calibration()
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"grinchbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = set_up(workload, args.seed)
    took = time.perf_counter() - started
    setup_here = normalized(took, [before] + [
        calibration() for _ in range(2 * CALIBRATION_WINDOW - 1)])
    if args.setup_probe:
        print(repr(setup_here))
        return 0
    setup_s = statistics.median(
        [setup_here] + [probe_setup(args) for _ in range(SETUP_PROBES)])

    print(f"grinchbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    measured = measure(workload, ops, args.seconds)
    metrics = end_to_end(measured, setup_s)
    report_end_to_end(metrics, measured)
    correct = measured.irreproducible == 0 and not any(
        o.status in workloads.INCORRECT for o in measured.outcomes)
    units = END_TO_END
    if args.trace:
        import layers

        metrics, consistent = traced_pass(workload, ops, args.seed, measured)
        correct = correct and consistent
        units = layers.METRICS
    # One attempt per attack of the pool, as in every metric: a
    # repetition only re-times an attack, and must reproduce its outcome.
    outcomes = measured.outcomes
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.status != workloads.OK for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
