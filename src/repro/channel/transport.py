"""L2 — cache transports: *where* the probe and the victim meet.

A :class:`CacheTransport` adapts one memory substrate to the two roles
an observation needs: the attacker's probe surface (the
:class:`~repro.channel.primitive.ProbeSurface` protocol — ``access`` /
``flush_line`` as the attacker core sees them) and the victim's
execution substrate (``victim_access``).  The same-core and cross-core
attacks differ *only* in which transport they run on:

* :class:`SingleLevelTransport` — attacker and victim share one
  set-associative cache (the paper's threat model, Section III-B);
* :class:`SharedL2Transport` — the victim runs behind a private L1 and
  the attacker can only sense the shared L2, but wields a ``clflush``
  that purges the whole hierarchy (the paper's memory-hierarchy
  future-work question).

Transports also carry the capability flags the observer needs to pick
an execution path: whether Prime+Probe's set priming is meaningful
(only when attacker loads land in the same cache the victim fills),
whether the analytic fast path is exact, and two behavioural quirks of
the cross-core channel (noise arrives as victim-core traffic; an empty
probe window still performs a perturbing flush+probe cycle).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from ..cache.geometry import CacheGeometry
from ..cache.multilevel import MemoryLevel, TwoLevelHierarchy
from ..cache.setassoc import SetAssociativeCache

#: Core indices of the two parties on a shared-L2 transport.
VICTIM_CORE = 0
ATTACKER_CORE = 1


class CacheTransport(ABC):
    """One memory substrate, seen from both sides of the channel."""

    #: Whether attacker loads contend in the same sets the victim fills
    #: (required by eviction-based primitives such as Prime+Probe).
    supports_prime_probe: bool = False

    #: Whether monitored-line residency after the visible window is a
    #: pure function of the victim's S-box accesses (exact fast path).
    supports_fast_path: bool = False

    #: Whether co-runner noise manifests as victim-side traffic (it is
    #: then *observed* by the probe rather than unioned afterwards).
    noise_via_victim: bool = False

    #: Whether an empty probe window still runs a (state-perturbing)
    #: reset+observe cycle, as the cross-core attacker's loop does.
    probe_on_empty_window: bool = False

    @abstractmethod
    def access(self, address: int) -> bool:
        """One attacker load; returns whether it hit in attacker-visible
        cache state."""

    @abstractmethod
    def flush_line(self, address: int) -> bool:
        """``clflush`` one line everywhere; returns whether it was
        attacker-visibly present."""

    @abstractmethod
    def victim_access(self, address: int) -> bool:
        """One victim load; returns whether it hit in any cache level."""

    @abstractmethod
    def cold(self) -> "CacheTransport":
        """A fresh, cold transport of the same shape (for per-window
        observations that must start from a flushed state)."""

    def check_geometry(self, geometry: CacheGeometry) -> None:
        """Raise if the transport is incompatible with an attack
        geometry (default: require matching line size)."""
        if self.line_bytes != geometry.line_bytes:
            raise ValueError(
                "hierarchy line size must match the attack geometry"
            )

    @property
    @abstractmethod
    def line_bytes(self) -> int:
        """Cache line size of the substrate."""


class SingleLevelTransport(CacheTransport):
    """Attacker and victim time-share one set-associative cache."""

    supports_prime_probe = True
    supports_fast_path = True
    noise_via_victim = False
    probe_on_empty_window = False

    def __init__(self, geometry: CacheGeometry, policy: str = "lru",
                 rng: Optional[random.Random] = None) -> None:
        self.geometry = geometry
        self.policy_name = policy
        self.rng = rng
        self.cache = SetAssociativeCache(geometry, policy=policy, rng=rng)
        # The fast path's eviction bookkeeping assumes LRU: under FIFO
        # or random replacement any miss in a full set can evict.
        self.supports_fast_path = policy == "lru"

    def access(self, address: int) -> bool:
        return self.cache.access(address)

    def flush_line(self, address: int) -> bool:
        return self.cache.flush_line(address)

    def victim_access(self, address: int) -> bool:
        return self.cache.access(address)

    def cold(self) -> "SingleLevelTransport":
        # The replacement policy is part of the substrate's shape: a
        # cold window on a random-replacement cache must not silently
        # revert to LRU.  (A shared explicit rng keeps drawing from its
        # stream; derived per-set streams restart identically, which is
        # what per-window reproducibility wants.)
        return SingleLevelTransport(self.geometry, self.policy_name,
                                    self.rng)

    @property
    def line_bytes(self) -> int:
        return self.geometry.line_bytes


class SharedL2Transport(CacheTransport):
    """Victim behind a private L1; attacker senses the shared L2 only.

    The attacker's reload can hit in its own (flushed) L1 or the shared
    L2 — victim-L1 residency is invisible — while its ``clflush``
    purges every level and core.  Prime+Probe is meaningless here: the
    attacker cannot prime the victim's private L1, which is where the
    contention would have to happen.
    """

    supports_prime_probe = False
    supports_fast_path = False
    noise_via_victim = True
    probe_on_empty_window = True

    def __init__(self, hierarchy: Optional[TwoLevelHierarchy] = None,
                 victim_core: int = VICTIM_CORE,
                 attacker_core: int = ATTACKER_CORE) -> None:
        if hierarchy is None:
            hierarchy = TwoLevelHierarchy()
        if hierarchy.cores < 2:
            raise ValueError("cross-core attacks need at least two cores")
        if victim_core == attacker_core:
            raise ValueError("victim and attacker must run on distinct cores")
        self.hierarchy = hierarchy
        self.victim_core = victim_core
        self.attacker_core = attacker_core

    def access(self, address: int) -> bool:
        # Sense shared-level residency first, then touch the line from
        # the attacker core, as a real reload would.
        resident = self.hierarchy.is_resident_l2(address)
        self.hierarchy.access(self.attacker_core, address)
        return resident

    def flush_line(self, address: int) -> bool:
        present = self.hierarchy.is_resident_l2(address)
        self.hierarchy.flush_line(address)
        return present

    def victim_access(self, address: int) -> bool:
        level = self.hierarchy.access(self.victim_core, address)
        return level is not MemoryLevel.MEMORY

    def cold(self) -> "SharedL2Transport":
        hierarchy = self.hierarchy
        return SharedL2Transport(
            TwoLevelHierarchy(
                cores=hierarchy.cores,
                l1_geometry=hierarchy.l1[0].geometry,
                l2_geometry=hierarchy.l2.geometry,
                inclusion=hierarchy.inclusion,
                policy=hierarchy.policy_name,
                rng=hierarchy.rng,
            ),
            victim_core=self.victim_core,
            attacker_core=self.attacker_core,
        )

    @property
    def line_bytes(self) -> int:
        return self.hierarchy.line_bytes
