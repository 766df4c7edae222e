"""Span tracing for the benchmark's traced run.

Every instrumented function is wrapped from the outside: the benchmark
replaces the attribute on the owning class (or module) with a wrapper
that records one span per call and restores the original afterwards.
Nothing under ``src/`` knows it is being traced.

A span is ``(name, start, end, parent span, operation id)``.  Spans are
kept in flat arrays while the run lasts and written out once at the
end.  A layer's self time is its span's duration minus the time its
direct child spans cover; because the benchmark is single-threaded,
child spans nest strictly inside their parents and self times of all
spans sum to the durations of the root spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy

#: Name of the root span the benchmark opens around each operation.
ROOT = "bench.harness"


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self.op_id)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable,
             counter: Optional[Tuple[str, Callable]] = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``counter`` is ``(key, measure)``: after each call
        ``counts[key]`` grows by ``measure(args, result)``.
        """
        name_id = self.name_id(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def count_calls(self, key: str, fn: Callable) -> Callable:
        """``fn`` bumping ``counts[key]`` per call, with no span."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def arrays(self) -> Dict[str, numpy.ndarray]:
        """The span table as numpy columns."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        return {
            "name": numpy.frombuffer(self._name, dtype=numpy.uint16),
            "parent": numpy.frombuffer(self._parent, dtype=numpy.int32),
            "op": numpy.frombuffer(self._op, dtype=numpy.int32),
            "start": numpy.frombuffer(self._start, dtype=numpy.float64),
            "end": numpy.frombuffer(self._end, dtype=numpy.float64),
        }

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Per span name: call count and summed self time (seconds)."""
        cols = self.arrays()
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        covered = numpy.bincount(cols["parent"][has_parent],
                                 weights=duration[has_parent],
                                 minlength=len(duration))
        own = duration - covered
        names = len(self.names)
        calls = numpy.bincount(cols["name"], minlength=names)
        seconds = numpy.bincount(cols["name"], weights=own, minlength=names)
        return (
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            {name: float(seconds[i]) for i, name in enumerate(self.names)},
        )

    def nesting_errors(self) -> int:
        """Spans that are not inside their parent, in time or operation,
        or whose self time is negative."""
        cols = self.arrays()
        child = numpy.nonzero(cols["parent"] >= 0)[0]
        parent = cols["parent"][child]
        outside = ((cols["start"][child] < cols["start"][parent])
                   | (cols["end"][child] > cols["end"][parent])
                   | (cols["op"][child] != cols["op"][parent]))
        duration = cols["end"] - cols["start"]
        covered = numpy.bincount(parent, weights=duration[child],
                                 minlength=len(duration))
        # Sums of nested floats may overshoot by a rounding error.
        negative = duration - covered < -1e-9
        return int(outside.sum() + negative.sum()
                   + (duration < 0).sum())

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        numpy.savez(path, names=numpy.array(self.names), **self.arrays())


#: One instrumented attribute: (owner, attribute, span name, counter).
Hook = Tuple[Any, str, str, Optional[Tuple[str, Callable]]]


@contextmanager
def instrumented(tracer: Tracer, hooks: List[Hook],
                 counted: List[Tuple[Any, str, str]]) -> Iterator[Tracer]:
    """Install span wrappers for ``hooks`` and call counters for
    ``counted`` (``(owner, attribute, counter key)``); restore every
    original attribute on exit."""
    originals: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, attribute: str, make: Callable) -> None:
        original = vars(owner)[attribute]
        originals.append((owner, attribute, original))
        if isinstance(original, property):
            replacement = property(make(original.fget))
        else:
            replacement = make(original)
        setattr(owner, attribute, replacement)

    try:
        for owner, attribute, name, counter in hooks:
            replace(owner, attribute,
                    lambda fn, name=name, counter=counter:
                    tracer.wrap(name, fn, counter))
        for owner, attribute, key in counted:
            replace(owner, attribute,
                    lambda fn, key=key: tracer.count_calls(key, fn))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
