"""Mapping between S-box indices and the cache lines the attacker watches.

With a line of ``L`` words (1 byte each on the paper's platforms) the
16-byte S-box spans ``16 / L`` cache lines, each covering ``L``
consecutive indices.  The attacker's observations are *line*-granular;
this module owns the index-to-line arithmetic, including the paper's
Section III-D point that growing lines obfuscate the low index bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..cache.geometry import CacheGeometry
from ..targets.layout import SBOX_ENTRIES as SBOX_SIZE
from ..targets.layout import TableLayout


@dataclass(frozen=True)
class SboxMonitor:
    """Precomputed view of the S-box table through a cache geometry."""

    layout: TableLayout
    geometry: CacheGeometry
    lines: Tuple[int, ...]
    indices_by_line: Dict[int, Tuple[int, ...]]
    line_by_index: Tuple[int, ...]

    @classmethod
    def build(cls, layout: TableLayout, geometry: CacheGeometry
              ) -> "SboxMonitor":
        """Derive the monitored lines for a layout/geometry pair."""
        line_by_index = tuple(
            geometry.line_of(layout.sbox_address(index))
            for index in range(SBOX_SIZE)
        )
        indices_by_line: Dict[int, List[int]] = {}
        for index, line in enumerate(line_by_index):
            indices_by_line.setdefault(line, []).append(index)
        return cls(
            layout=layout,
            geometry=geometry,
            lines=tuple(sorted(indices_by_line)),
            indices_by_line={
                line: tuple(indices)
                for line, indices in indices_by_line.items()
            },
            line_by_index=line_by_index,
        )

    @property
    def universe(self) -> FrozenSet[int]:
        """All monitored line numbers (the candidate universe)."""
        return frozenset(self.lines)

    @property
    def indices_per_line(self) -> int:
        """How many S-box indices one cache line covers."""
        return max(len(v) for v in self.indices_by_line.values())

    def line_for_index(self, index: int) -> int:
        """Cache line number holding S-box entry ``index``."""
        if not 0 <= index < SBOX_SIZE:
            raise ValueError(f"S-box index must be a 4-bit value, got {index}")
        return self.line_by_index[index]

    def indices_for_line(self, line: int) -> Tuple[int, ...]:
        """S-box indices covered by a monitored ``line``."""
        if line not in self.indices_by_line:
            raise ValueError(f"line {line} does not hold S-box entries")
        return self.indices_by_line[line]

    def line_addresses(self) -> List[int]:
        """One representative byte address per monitored line.

        Flush+Reload flushes/reloads these; the first covered index's
        address suffices because residency is line-granular.
        """
        return [
            self.layout.sbox_address(self.indices_by_line[line][0])
            for line in self.lines
        ]


class EvictionGuard:
    """Which monitored lines the victim's own scatter loads can evict.

    The fast observation path reports a monitored line iff an S-box
    load in the visible window touched it.  The full cache simulation
    can disagree in exactly one way: every round of a table-based
    victim loads the S-box for all segments, then the PermBits scatter
    entry ``(segment, S(index))`` for all segments, and scatter lines
    can share a cache set with an S-box line.  Under LRU a line is gone
    by the probe iff at least ``ways`` distinct other lines of its set
    were loaded after its last access; with a single monitored line in
    the set, those are the scatter lines loaded from the round of that
    last access on (a round's scatter loads follow all its S-box loads).

    :meth:`plan` bounds that count per window length, so the common
    windows (one round of GIFT-64 on the paper's geometries) need no
    per-encryption work; :meth:`evicted` counts exactly for the lines
    still at risk.
    """

    def __init__(self, monitor: SboxMonitor, segments: int,
                 sbox: Optional[Sequence[int]]) -> None:
        geometry = monitor.geometry
        layout = monitor.layout
        self.monitor = monitor
        self.ways = geometry.ways
        self.sbox = None if sbox is None else tuple(sbox)
        self._num_sets = geometry.num_sets
        # scatter_lines[segment][nibble]: the line that scatter load hits.
        self._scatter_lines = tuple(
            tuple(geometry.line_of(layout.perm_address(segment, nibble,
                                                       segments))
                  for nibble in range(SBOX_SIZE))
            for segment in range(segments)
        )
        self._monitored_in_set: Dict[int, int] = {}
        for line in monitor.lines:
            cache_set = line % self._num_sets
            self._monitored_in_set[cache_set] = (
                self._monitored_in_set.get(cache_set, 0) + 1)
        self._scatter_hits_monitor = not monitor.universe.isdisjoint(
            line for row in self._scatter_lines for line in row
        )
        self._index_sets = {line: frozenset(indices) for line, indices
                            in monitor.indices_by_line.items()}
        self._companions: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        self._plans: Dict[int, Optional[Tuple[int, ...]]] = {}

    def plan(self, rounds: int) -> Optional[Tuple[int, ...]]:
        """How a ``rounds``-round window may run on the fast path.

        ``None`` means it may not (the victim's S-box is unknown, an
        at-risk line shares its set with another monitored line so the
        probe's own reloads matter, or a scatter load lands on a
        monitored line): take the full path.  Otherwise the monitored
        lines whose eviction :meth:`evicted` must check — usually none.
        """
        if rounds not in self._plans:
            at_risk = tuple(line for line in self.monitor.lines
                            if self._bound(line, rounds) >= self.ways)
            exact = not self._scatter_hits_monitor and (
                not at_risk
                or (self.sbox is not None
                    and all(self._monitored_in_set[line % self._num_sets]
                            == 1 for line in at_risk))
            )
            self._plans[rounds] = at_risk if exact else None
        return self._plans[rounds]

    def _bound(self, line: int, rounds: int) -> int:
        """Most distinct other lines of ``line``'s set a ``rounds``-round
        window can load after ``line``'s last access."""
        cache_set = line % self._num_sets
        # Distinct scatter lines each segment can place in the set; it
        # loads one per round from the round of the last access on.
        counts = [len({ln for ln in row if ln % self._num_sets == cache_set})
                  for row in self._scatter_lines]
        caps = [min(count, rounds) for count in counts]
        total = sum(caps)
        others = self._monitored_in_set[cache_set] - 1
        if self.sbox is None:
            return others + total
        # The segment making the last access loads that access's own
        # scatter entry in the same round: fixed, not free.
        worst = 0
        for segment, count in enumerate(counts):
            row = self._scatter_lines[segment]
            for index in self.monitor.indices_by_line[line]:
                own = int(row[self.sbox[index]] % self._num_sets
                          == cache_set)
                worst = max(worst, total - caps[segment]
                            + min(count, rounds - 1 + own))
        return others + worst

    def evicted(self, window: Sequence[Sequence[int]],
                lines: Iterable[int]) -> FrozenSet[int]:
        """Which of ``lines`` (all touched in ``window``) are evicted.

        ``window`` holds the per-round S-box indices of the visible
        rounds, and ``lines`` come from :meth:`plan` for its length.
        """
        gone = []
        for line in lines:
            indices = self._index_sets[line]
            last = len(window) - 1
            while indices.isdisjoint(window[last]):
                last -= 1
            companions = self._companions_in_set(line % self._num_sets)
            loaded = set()
            for row in window[last:]:
                loaded.update(map(getitem, companions, row))
            loaded.discard(-1)
            if len(loaded) >= self.ways:
                gone.append(line)
        return frozenset(gone)

    def _companions_in_set(self, cache_set: int
                           ) -> Tuple[Tuple[int, ...], ...]:
        """``[segment][index]``: the line of the scatter load S-box
        ``index`` triggers, if it falls in ``cache_set``; else -1."""
        companions = self._companions.get(cache_set)
        if companions is None:
            sbox = self.sbox
            companions = self._companions[cache_set] = tuple(
                tuple(row[sbox[index]]
                      if row[sbox[index]] % self._num_sets == cache_set
                      else -1
                      for index in range(SBOX_SIZE))
                for row in self._scatter_lines
            )
        return companions


@lru_cache(maxsize=64)
def shared_eviction_guard(layout: TableLayout, geometry: CacheGeometry,
                          segments: int,
                          sbox: Optional[Tuple[int, ...]]) -> EvictionGuard:
    """One guard per victim shape, shared by every channel on it.

    Building the scatter-line tables and the one-round plan costs about
    a millisecond — a few percent of a whole GIFT-64 attack — so the
    channels of a campaign reuse them.
    """
    return EvictionGuard(SboxMonitor.build(layout, geometry), segments, sbox)
