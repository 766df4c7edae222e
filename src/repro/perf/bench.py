"""Calibrated microbenchmark timing core.

No external dependencies (the container has no ``pyperf``): a callable
is run in geometrically growing batches until the accumulated runtime
crosses a floor, so per-call clock overhead is amortised for fast
operations while slow operations (a whole engine trial) still finish
after a single batch.  Growth stops once one batch takes a
:data:`SLICES`-th of the floor, so every sample spans many slices and
several callables can be timed in alternation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

#: Largest batch one timing slice may run; bounds the overshoot past
#: ``min_seconds`` for very fast callables.
MAX_BATCH: int = 1 << 20

#: Batches stop growing once one takes ``min_seconds / SLICES``, so a
#: measurement spans at least about this many slices.
SLICES: int = 8


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's measurement: ``ops`` calls in ``seconds``."""

    name: str
    ops: int
    seconds: float

    @property
    def ops_per_s(self) -> float:
        """Throughput; the number every ratio gate is built from."""
        if self.seconds <= 0.0:
            # Degenerate clock resolution; report the ops as if they
            # took one tick so ratios stay finite.
            return float(self.ops)
        return self.ops / self.seconds

    def as_record(self) -> Dict[str, Union[str, int, float]]:
        """JSON-ready form used by the ``BENCH_perf.json`` artifact."""
        return {
            "name": self.name,
            "ops": self.ops,
            "seconds": self.seconds,
            "ops_per_s": self.ops_per_s,
        }


def measure(name: str, fn: Callable[[], object], *,
            min_seconds: float = 0.25,
            clock: Callable[[], float] = time.perf_counter) -> BenchResult:
    """Time ``fn`` until at least ``min_seconds`` have accumulated.

    One untimed warm-up call precedes measurement (first-call effects:
    lazy imports, cache fills, bytecode specialisation).  Batches grow
    geometrically so the loop's own bookkeeping stays negligible, until
    one batch takes a :data:`SLICES`-th of the floor.
    """
    (result,) = measure_interleaved([(name, fn)], min_seconds=min_seconds,
                                    clock=clock)
    return result


def measure_interleaved(benches: Sequence[Tuple[str, Callable[[], object]]],
                        *, min_seconds: float = 0.25,
                        clock: Callable[[], float] = time.perf_counter
                        ) -> List[BenchResult]:
    """Time several callables in alternating batches of equal size.

    Works like :func:`measure`, but each batch size runs once per
    callable before the batch grows, until every callable has
    accumulated ``min_seconds``.  Alternating slices expose all of
    them to the same host-speed drift, so a ratio between them stays
    meaningful on a shared machine.
    """
    if min_seconds <= 0.0:
        raise ValueError(f"min_seconds must be positive, got {min_seconds}")
    for _, fn in benches:
        fn()  # warm-up, untimed
    ops = 0
    elapsed = [0.0] * len(benches)
    batch = 1
    while min(elapsed) < min_seconds:
        longest = 0.0
        for index, (_, fn) in enumerate(benches):
            start = clock()
            for _ in range(batch):
                fn()
            seconds = clock() - start
            elapsed[index] += seconds
            longest = max(longest, seconds)
        ops += batch
        if longest < min_seconds / SLICES:
            batch = min(batch * 2, MAX_BATCH)
    return [BenchResult(name=name, ops=ops, seconds=seconds)
            for (name, _), seconds in zip(benches, elapsed)]
