"""L4 — the defender's side of the channel: counter-based detection.

Flush+Flush exists *because* defenders watch performance counters:
Gruss et al. built it to evade detectors that flag the cache-miss
storms of Flush+Reload and Prime+Probe (the HexPADS line of work).
This module gives the reproduction that defender, so "stealthy" is a
measured number instead of a citation:

* :class:`DefenderObserver` is a performance-counter-style monitor: it
  accumulates per-window **counter deltas** — victim/attacker hit and
  miss rates, flush counts with the resident/absent split, eviction
  and back-invalidate counts — sourced exclusively from
  :class:`~repro.cache.setassoc.CacheStats` /
  :class:`~repro.cache.multilevel.HierarchyStats` differences.  It
  never reads victim metadata, addresses, or cache content: everything
  it sees, a real PMU exposes.
* :class:`ObservedTransport` is the tap: a delegating
  :class:`~repro.channel.transport.CacheTransport` that attributes
  counter deltas to the role that issued them (the per-core PMCs of a
  real system).  Attribution happens at **role switches**, not per
  operation: the defender keeps one counter snapshot for the active
  (substrate, role) pair and reads the counters again only when the
  role or substrate changes, charging ``counters(now) - snapshot`` to
  the role that was active.  Counter deltas add, so this equals the
  sum of per-operation deltas, at a handful of snapshots per window
  instead of two per operation.  It advertises
  ``supports_fast_path = False`` so the observer runs the full
  simulation — the analytic fast path never touches the substrate, so
  there would be no events to count.  The two paths are
  observation-identical and draw identical RNG (test-pinned), which
  makes watching **transparent**: same observations, same encryption
  counts, seed-0 GIFT-64 recovery still takes exactly 464 encryptions
  under the defender's eye.
* :class:`DetectionPolicy` turns a window's counters into flags.  The
  default thresholds fire only on events commodity PMUs actually
  count — attacker-core cache misses and cache evictions.  Flush
  counts are *reported* but unflagged by default: no mainstream PMU
  has a ``clflush`` event, which is precisely Flush+Flush's stealth
  argument — its windows contain flushes and nothing else.

The per-primitive signatures this makes measurable (default GIFT-64
geometry, 16 monitored lines):

=============  =======================================================
Flush+Reload   the reload step *is* a miss storm: every monitored line
               the victim did not touch misses on reload.
Flush+Flush    flush-only windows — zero attacker accesses, zero
               attacker misses, zero evictions; only the (un-counted)
               flush events and their resident/absent split remain.
Prime+Probe    mass eviction traffic: priming walks every way of every
               monitored set and the probe step repeats it, so both
               miss and eviction counters light up.
=============  =======================================================

E20 (``repro.engine.stealth``) sweeps this into the stealth-vs-effort
frontier; ``docs/stealth.md`` defines the detectability metric.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from .transport import CacheTransport

__all__ = [
    "CounterDelta",
    "DefenderObserver",
    "DefenderReport",
    "DetectionPolicy",
    "ObservedTransport",
    "WindowCounters",
    "read_counters",
]


@dataclass(frozen=True)
class CounterDelta:
    """A snapshot (or difference) of the substrate's event counters.

    The fields are the union of what :class:`CacheStats` and
    :class:`HierarchyStats` expose, normalised to one shape so the
    defender is transport-agnostic: ``accesses``/``hits``/``misses``
    are demand loads (a hierarchy's "miss" is a memory fetch),
    ``evictions`` are capacity victims at any level,
    ``back_invalidates`` are inclusive-L2 kills of L1 copies, and the
    flush triple carries the per-line resident/absent split.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    flush_hits: int = 0
    flush_misses: int = 0
    back_invalidates: int = 0

    def __add__(self, other: "CounterDelta") -> "CounterDelta":
        return CounterDelta(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(CounterDelta)
        ))

    def __sub__(self, other: "CounterDelta") -> "CounterDelta":
        return CounterDelta(*(
            getattr(self, f.name) - getattr(other, f.name)
            for f in fields(CounterDelta)
        ))

    @property
    def hit_rate(self) -> float:
        """Fraction of demand loads that hit (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of demand loads that missed (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def pmc_visible(self) -> int:
        """Events a commodity performance counter can see.

        Demand misses, capacity evictions, and back-invalidates all
        have PMU events on real hardware; ``clflush`` does not (the
        Flush+Flush stealth argument), so flushes are excluded.
        """
        return self.misses + self.evictions + self.back_invalidates


#: The all-zero delta (also the "cold counters" snapshot).
_ZERO = CounterDelta()

#: :data:`_ZERO` as a plain tuple in field order.
_NO_COUNTS = (0,) * len(fields(CounterDelta))


def read_counters(transport: Any) -> CounterDelta:
    """Normalised counter snapshot of a transport's substrate.

    Duck-typed on the substrate attribute, never on concrete classes,
    so recording/replay wrappers and future transports participate by
    exposing either a ``cache`` (:class:`CacheStats`) or a
    ``hierarchy`` (:class:`HierarchyStats`); a wrapper that holds an
    ``inner`` transport is unwrapped.  Only aggregate counters are
    read — no addresses, tags, or victim state.
    """
    return CounterDelta(*_read_counts(transport))


def _read_counts(transport: Any) -> Tuple[int, ...]:
    """:func:`read_counters` as a plain tuple in field order."""
    inner = getattr(transport, "inner", None)
    if inner is not None:
        return _read_counts(inner)
    cache = getattr(transport, "cache", None)
    if cache is not None:
        stats = cache.stats
        return (stats.accesses, stats.hits, stats.misses,
                stats.evictions, stats.flushes, stats.flush_hits,
                stats.flush_misses, 0)
    hierarchy = getattr(transport, "hierarchy", None)
    if hierarchy is not None:
        stats = hierarchy.stats
        hits = stats.l1_hits + stats.l2_hits
        return (hits + stats.memory_fetches, hits, stats.memory_fetches,
                stats.evictions, stats.flushes, stats.flush_hits,
                stats.flush_misses, stats.back_invalidates)
    raise TypeError(
        f"{type(transport).__name__} exposes neither a 'cache' nor a "
        f"'hierarchy' substrate — nothing for a defender to count"
    )


@dataclass
class WindowCounters:
    """One probe window's per-role counter deltas.

    ``attacker`` accumulates deltas of the attacker's operations
    (probe accesses and flushes), ``victim`` those of victim-side
    traffic (the encryption itself plus co-runner noise, which a real
    defender cannot tell apart).  ``flags`` holds the detection
    reasons the policy raised when the window closed.
    """

    index: int
    primitive: str = ""
    attacker: CounterDelta = _ZERO
    victim: CounterDelta = _ZERO
    flags: Tuple[str, ...] = ()

    @property
    def total(self) -> CounterDelta:
        """Role-blind view (a global, unattributed PMU)."""
        return self.attacker + self.victim

    @property
    def pmc_visible(self) -> int:
        """The window's detectability raw material.

        Attacker-attributed events only: the victim's own table
        traffic evicts its own lines all day (the GIFT PermBits
        working set alone keeps sets churning), so a detector
        thresholding global eviction counts would flag the *victim*.
        A deployed detector baselines the protected workload away;
        attributing each event to the core whose operation caused it
        — which is exactly what per-core PMCs do for misses — is that
        baseline, applied exactly.
        """
        return (self.attacker.misses
                + self.attacker.evictions
                + self.attacker.back_invalidates)

    @property
    def flagged(self) -> bool:
        """Whether the detection policy fired on this window."""
        return bool(self.flags)


@dataclass(frozen=True)
class DetectionPolicy:
    """Per-window thresholds over the defender's counters.

    A threshold of ``None`` disables that detector.  The defaults
    model a HexPADS-style PMU detector: they fire on attacker-core
    miss storms and on shared-cache eviction storms, and deliberately
    have **no flush detector** — commodity PMUs cannot count
    ``clflush``, which is the documented reason Flush+Flush windows
    sail through.  Set ``max_flushes`` to model hypothetical
    flush-counting hardware and watch Flush+Flush light up.
    """

    max_attacker_misses: Optional[int] = 4
    max_evictions: Optional[int] = 8
    max_flushes: Optional[int] = None
    max_victim_miss_rate: Optional[float] = None

    def flags(self, window: WindowCounters) -> Tuple[str, ...]:
        """Detection reasons for one closed window (empty = clean).

        Both storm detectors look at attacker-attributed counts only:
        the victim's own eviction/miss baseline belongs to the
        workload, not the attack (see
        :attr:`WindowCounters.pmc_visible`).
        """
        reasons: List[str] = []
        if (self.max_attacker_misses is not None
                and window.attacker.misses > self.max_attacker_misses):
            reasons.append("attacker-miss-storm")
        evictions = (window.attacker.evictions
                     + window.attacker.back_invalidates)
        if (self.max_evictions is not None
                and evictions > self.max_evictions):
            reasons.append("eviction-storm")
        if (self.max_flushes is not None
                and window.attacker.flushes > self.max_flushes):
            reasons.append("flush-storm")
        if (self.max_victim_miss_rate is not None
                and window.victim.accesses
                and window.victim.miss_rate > self.max_victim_miss_rate):
            reasons.append("victim-miss-rate")
        return tuple(reasons)


@dataclass(frozen=True)
class DefenderReport:
    """Aggregate verdict over every window the defender saw.

    ``detectability`` is the metric E20 plots: mean PMC-visible events
    per window (attacker misses + evictions + back-invalidates).  It
    is zero for a perfectly stealthy attacker and grows with exactly
    the traffic a real detector thresholds on; ``detection_rate`` is
    the thresholded view under the configured policy.
    """

    windows: int
    flagged_windows: int
    detection_rate: float
    detectability: float
    attacker_accesses_per_window: float
    attacker_misses_per_window: float
    evictions_per_window: float
    flushes_per_window: float
    flush_resident_per_window: float
    flush_absent_per_window: float
    attacker_hit_rate: float
    victim_hit_rate: float
    victim_miss_rate: float
    flag_reasons: Dict[str, int]
    primitives: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for engine artifacts."""
        return {
            "windows": self.windows,
            "flagged_windows": self.flagged_windows,
            "detection_rate": self.detection_rate,
            "detectability": self.detectability,
            "attacker_accesses_per_window":
                self.attacker_accesses_per_window,
            "attacker_misses_per_window":
                self.attacker_misses_per_window,
            "evictions_per_window": self.evictions_per_window,
            "flushes_per_window": self.flushes_per_window,
            "flush_resident_per_window": self.flush_resident_per_window,
            "flush_absent_per_window": self.flush_absent_per_window,
            "attacker_hit_rate": self.attacker_hit_rate,
            "victim_hit_rate": self.victim_hit_rate,
            "victim_miss_rate": self.victim_miss_rate,
            "flag_reasons": dict(self.flag_reasons),
            "primitives": list(self.primitives),
        }


class DefenderObserver:
    """Performance-counter-style monitor, fed by an observed transport.

    The observation channel opens a window around every probe
    (:meth:`begin_window` / :meth:`end_window`); traffic outside any
    window — e.g. the cold replays of the trace-/time-driven variants
    — accumulates in the :attr:`ambient` buckets instead, so nothing
    the tap sees is ever dropped.

    Attribution is lazy.  The defender remembers the active
    (substrate, role) pair and one counter snapshot of that substrate.
    When the pair changes it accrues the counters moved since the
    snapshot to the role that was active.  Opening or closing a window
    and reading :attr:`ambient` *settle*: they accrue, then record the
    accrued counts into the open window or the ambient buckets.  Closed
    :attr:`windows` were settled by :meth:`end_window`, so reading them
    needs no settling.  Every counter change of the active substrate is
    charged to the active role, so a substrate is watched through one
    tap of one defender at a time.

    The defender consumes **no randomness** and perturbs **no state**:
    it only subtracts counter snapshots the substrate maintains
    anyway, which is what keeps a watched attack bit-identical to an
    unwatched one.
    """

    def __init__(self, policy: Optional[DetectionPolicy] = None) -> None:
        self.policy = policy if policy is not None else DetectionPolicy()
        self.windows: List[WindowCounters] = []
        self._ambient: Dict[str, CounterDelta] = {
            "attacker": _ZERO, "victim": _ZERO,
        }
        self._current: Optional[WindowCounters] = None
        # The (substrate, role) pair whose counters are pending, and
        # the substrate's snapshot at the last accrual.  The substrate
        # is the tap's inner transport, never the tap itself: the tap
        # holds this defender, and a tap -> defender -> tap cycle
        # would keep every watched cache alive until cyclic GC.
        self._active: Optional[Tuple[CacheTransport, str]] = None
        self._mark: Tuple[int, ...] = ()
        # Per-role counts accrued at role switches since the open
        # window (or the ambient buckets) last absorbed them: plain
        # tuples in field order, so a switch allocates no CounterDelta.
        # Recording a CounterDelta at every switch instead puts the
        # defender_tap_overhead perf bench at a 1.56-1.59x median
        # (1.41-1.45x even with tuple marks or tuple-based __add__ /
        # __sub__: building the frozen dataclass dominates), over its
        # 1.5x gate; this buffer reads 1.14x.
        self._accrued: Dict[str, Tuple[int, ...]] = {
            "attacker": _NO_COUNTS, "victim": _NO_COUNTS,
        }

    @property
    def ambient(self) -> Dict[str, CounterDelta]:
        """Per-role counters of traffic outside any window."""
        self._settle()
        return self._ambient

    # ------------------------------------------------------------------
    # Tap
    # ------------------------------------------------------------------

    def watch(self, transport: CacheTransport) -> "ObservedTransport":
        """Wrap ``transport`` so its events feed this defender."""
        return ObservedTransport(transport, self)

    def record(self, role: str, delta: CounterDelta) -> None:
        """A counter delta, attributed to ``role``."""
        if role not in self._ambient:
            raise ValueError(f"unknown role {role!r}")
        window = self._current
        if window is None:
            self._ambient[role] = self._ambient[role] + delta
        elif role == "attacker":
            window.attacker = window.attacker + delta
        else:
            window.victim = window.victim + delta

    def _accrue(self) -> None:
        """Accrue the counters moved since the mark to the pending role."""
        active = self._active
        if active is None:
            return
        substrate, role = active
        now = _read_counts(substrate)
        self._accrued[role] = tuple(map(
            operator.add, self._accrued[role],
            map(operator.sub, now, self._mark),
        ))
        self._mark = now

    def _settle(self) -> None:
        """Accrue, then record the accrued counts where they belong."""
        self._accrue()
        for role, counts in self._accrued.items():
            if any(counts):
                self.record(role, CounterDelta(*counts))
                self._accrued[role] = _NO_COUNTS

    def _switch(self, active: Tuple[CacheTransport, str]) -> None:
        """Accrue, then make ``active`` the pending (substrate, role)."""
        previous = self._active
        self._accrue()
        self._active = active
        if previous is None or previous[0] is not active[0]:
            self._mark = _read_counts(active[0])

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------

    def begin_window(self, primitive: str = "") -> None:
        """Open a probe window (closing any window left open)."""
        if self._current is not None:
            self.end_window()
        self._settle()
        self._current = WindowCounters(index=len(self.windows),
                                       primitive=primitive)

    def end_window(self) -> Optional[WindowCounters]:
        """Close the open window, run detection, and archive it."""
        window = self._current
        if window is None:
            return None
        self._settle()
        self._current = None
        window.flags = self.policy.flags(window)
        self.windows.append(window)
        return window

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------

    def report(self) -> DefenderReport:
        """Aggregate everything seen so far into one report."""
        count = len(self.windows)
        flagged = sum(1 for w in self.windows if w.flagged)
        reasons: Dict[str, int] = {}
        for window in self.windows:
            for reason in window.flags:
                reasons[reason] = reasons.get(reason, 0) + 1
        attacker = sum((w.attacker for w in self.windows), _ZERO)
        victim = sum((w.victim for w in self.windows), _ZERO)
        per = float(count) if count else 1.0
        return DefenderReport(
            windows=count,
            flagged_windows=flagged,
            detection_rate=flagged / count if count else 0.0,
            detectability=(sum(w.pmc_visible for w in self.windows)
                           / per),
            attacker_accesses_per_window=attacker.accesses / per,
            attacker_misses_per_window=attacker.misses / per,
            evictions_per_window=((attacker.evictions
                                   + attacker.back_invalidates) / per),
            flushes_per_window=attacker.flushes / per,
            flush_resident_per_window=attacker.flush_hits / per,
            flush_absent_per_window=attacker.flush_misses / per,
            attacker_hit_rate=attacker.hit_rate,
            victim_hit_rate=victim.hit_rate,
            victim_miss_rate=victim.miss_rate,
            flag_reasons=reasons,
            primitives=tuple(sorted({w.primitive for w in self.windows
                                     if w.primitive})),
        )


class ObservedTransport(CacheTransport):
    """A transport under a defender's counter tap.

    Delegates every operation and capability to ``inner`` except
    ``supports_fast_path``, which is forced off: the analytic fast
    path computes observations without touching the substrate, so a
    watched channel must run the full simulation for the counters to
    mean anything.  The full path is observation-identical to the fast
    path and draws the same RNG streams (asserted by the equivalence
    suite), so forcing it changes *nothing* the attacker sees — only
    what the defender does.

    An operation only checks that its (substrate, role) pair is the
    defender's active one; the defender snapshots counters only when
    that pair changes (see :class:`DefenderObserver`), so a run of
    same-role operations costs one identity test each.
    """

    def __init__(self, inner: CacheTransport,
                 defender: DefenderObserver) -> None:
        self.inner = inner
        self.defender = defender
        self.supports_prime_probe = inner.supports_prime_probe
        self.supports_fast_path = False
        self.noise_via_victim = inner.noise_via_victim
        self.probe_on_empty_window = inner.probe_on_empty_window
        self._as_attacker = (inner, "attacker")
        self._as_victim = (inner, "victim")

    def access(self, address: int) -> bool:
        if self.defender._active is not self._as_attacker:
            self.defender._switch(self._as_attacker)
        return self.inner.access(address)

    def flush_line(self, address: int) -> bool:
        if self.defender._active is not self._as_attacker:
            self.defender._switch(self._as_attacker)
        return self.inner.flush_line(address)

    def victim_access(self, address: int) -> bool:
        if self.defender._active is not self._as_victim:
            self.defender._switch(self._as_victim)
        return self.inner.victim_access(address)

    def cold(self) -> "ObservedTransport":
        """A cold inner substrate under the *same* defender's tap."""
        return ObservedTransport(self.inner.cold(), self.defender)

    def check_geometry(self, geometry: Any) -> None:
        self.inner.check_geometry(geometry)

    @property
    def line_bytes(self) -> int:
        return self.inner.line_bytes
