"""Which public functions the traced run wraps, and the per-layer
metrics it derives from the spans and counters.

Each span name is one layer boundary; ``<span>.calls`` counts its calls
over the traced operations and ``<span>.self_ms`` is its self time per
operation.  The end-to-end metric each one should move is listed in
``README.md``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cache.multilevel import TwoLevelHierarchy
from repro.cache.setassoc import SetAssociativeCache
from repro.channel.defender import ObservedTransport
from repro.channel.degradation import LossyChannel
from repro.channel.observer import ObservationChannel
from repro.channel.transport import SharedL2Transport, SingleLevelTransport
from repro.core.attack import GrinchAttack
from repro.core.crafting import PlaintextCrafter
from repro.core.eliminate import CandidateEliminator
from repro.core.results import SegmentOutcome
from repro.core.voting import VotingEliminator
from repro.targets.batch import BatchVictim
from repro.targets.gift import GiftTarget, TracedGiftCipher
from repro.trace import RecordingVictim, ReplayVictim

import spans
import workloads


def _one(args, result) -> int:
    return 1


def _blocks(args, result) -> int:
    return len(args[1])


def _dropped(args, result) -> int:
    return len(args[1]) - len(result)


def _dropped_batch(args, result) -> int:
    return (sum(len(observed) for observed in args[1])
            - sum(len(observed) for observed in result))


_TRANSPORT_OPS = ("access", "flush_line", "victim_access")

#: (owner, attribute, span name, counter) for every wrapped function.
HOOKS: List[spans.Hook] = [
    (GrinchAttack, "recover_master_key", "core.attack", None),
    (GrinchAttack, "attack_first_round", "core.attack", None),
    (PlaintextCrafter, "craft", "core.craft", None),
    (PlaintextCrafter, "craft_many", "core.craft", None),
    (CandidateEliminator, "update", "core.eliminate",
     ("windows_consumed", _one)),
    (CandidateEliminator, "update_batch", "core.eliminate", None),
    (CandidateEliminator, "candidates", "core.eliminate", None),
    (CandidateEliminator, "converged", "core.eliminate", None),
    (CandidateEliminator, "contradicted", "core.eliminate", None),
    (VotingEliminator, "update", "core.voting.update",
     ("windows_consumed", _one)),
    (VotingEliminator, "update_batch", "core.voting.update", None),
    *[(VotingEliminator, name, "core.voting.decide", None)
      for name in ("confidence", "decided", "separated", "rejected",
                   "viable")],
    (TracedGiftCipher, "sbox_indices_by_round", "targets.sbox_indices",
     None),
    (GiftTarget, "invert_rounds", "targets.invert_rounds", None),
    (TracedGiftCipher, "encrypt_traced", "targets.encrypt_traced", None),
    (BatchVictim, "encrypt_batch", "targets.batch", ("batch_blocks", _blocks)),
    (BatchVictim, "sbox_indices_batch", "targets.batch",
     ("batch_blocks", _blocks)),
    (ObservationChannel, "observe", "channel.observe", None),
    (ObservationChannel, "observe_batch", "channel.observe_batch", None),
    *[(ObservedTransport, name, "channel.defender_tap", None)
      for name in _TRANSPORT_OPS],
    *[(owner, name, "channel.transport", None)
      for owner in (SingleLevelTransport, SharedL2Transport)
      for name in _TRANSPORT_OPS],
    (LossyChannel, "drop_lines", "channel.degradation",
     ("lines_dropped", _dropped)),
    (LossyChannel, "drop_lines_batch", "channel.degradation",
     ("lines_dropped", _dropped_batch)),
    (SetAssociativeCache, "access", "cache.l1.access", None),
    (SetAssociativeCache, "flush_line", "cache.l1.flush", None),
    (TwoLevelHierarchy, "access", "cache.hierarchy", None),
    (TwoLevelHierarchy, "flush_line", "cache.hierarchy", None),
    *[(RecordingVictim, name, "trace.record", None)
      for name in ("encrypt", "encrypt_traced", "sbox_indices_by_round")],
    *[(ReplayVictim, name, "trace.replay", None)
      for name in ("encrypt", "encrypt_traced", "sbox_indices_by_round")],
    # The benchmark's own calls into the trace codec.
    (workloads, "dumps", "trace.encode", None),
    (workloads, "loads", "trace.decode", None),
]

#: (owner, attribute, counter key) counted without a span.
COUNTED: List[Tuple[object, str, str]] = [
    (PlaintextCrafter, "__init__", "crafter_streams"),
    (SegmentOutcome, "__init__", "segments_decided"),
]

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [name for _, _, name, _ in HOOKS] + [spans.ROOT]))

#: name -> unit of every per-layer metric, in report order.
METRICS: Dict[str, str] = {
    **{f"{name}.{field}": unit
       for name in SPAN_NAMES
       for field, unit in (("calls", "count"), ("self_ms", "ms"))},
    "targets.batch.blocks": "count",
    "channel.lines_dropped": "count",
    "channel.encryptions_run": "count",
    "defender.windows": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.hit_rate": "ratio",
    "trace.bytes": "bytes",
    "core.recraft_ratio": "ratio",
    "core.used_window_ratio": "ratio",
    "tracing.ops": "count",
    "tracing.overhead_ratio": "ratio",
    "tracing.self_sum_share": "ratio",
}


def per_layer(tracer: spans.Tracer,
              outcomes: Sequence[workloads.Outcome],
              traced_seconds: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over ``outcomes``
    (all but ``tracing.overhead_ratio``, which needs the untraced
    pass); ``traced_seconds`` is the pass's wall time."""
    calls, self_seconds = tracer.self_times()
    ops = len(outcomes)
    values: Dict[str, float] = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_ms"] = 1000.0 * self_seconds.get(name, 0.0) / ops
    counts = tracer.counts
    hits = sum(o.hits for o in outcomes)
    misses = sum(o.misses for o in outcomes)
    windows = sum(o.windows for o in outcomes)
    values.update({
        "targets.batch.blocks": counts["batch_blocks"],
        "channel.lines_dropped": counts["lines_dropped"],
        "channel.encryptions_run": windows,
        "defender.windows": sum(o.defender_windows for o in outcomes),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": sum(o.evictions for o in outcomes),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "trace.bytes": sum(o.trace_bytes for o in outcomes),
        "core.recraft_ratio": (counts["segments_decided"]
                               / max(counts["crafter_streams"], 1)),
        "core.used_window_ratio": (counts["windows_consumed"]
                                   / max(windows, 1)),
        "tracing.ops": ops,
        "tracing.self_sum_share": sum(self_seconds.values()) / traced_seconds,
    })
    return values
