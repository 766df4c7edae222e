"""L4 tests: ObservationChannel composition, path equivalence, and the
seed-0 effort invariant the refactor promised to preserve."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.channel import (
    LOSSLESS,
    FlushReload,
    LossyChannel,
    ObservationChannel,
    ProbeJitter,
    SboxMonitor,
    SharedL2Transport,
    SingleLevelTransport,
)
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.channel.monitor import EvictionGuard
from repro.gift.lut import TracedGift64, TracedGift128
from repro.seeding import derive_key, derive_rng
from repro.targets.registry import get_target

plaintexts = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _pair(victim, primitive, **overrides):
    """A (fast, full) channel pair with identical RNG streams."""
    fast = ObservationChannel(victim, AttackConfig(
        probe_strategy=primitive, use_fast_path=True, seed=5, **overrides
    ))
    full = ObservationChannel(victim, AttackConfig(
        probe_strategy=primitive, use_fast_path=False, seed=5, **overrides
    ))
    return fast, full


class TestPathEquivalence:
    """Fast analytic path == full simulation, for every primitive."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts, st.integers(min_value=1, max_value=4))
    def test_flush_reload_paths_agree(self, plaintext, attacked_round):
        victim = TracedGift64(derive_key(128, 21))
        fast, full = _pair(victim, "flush_reload")
        assert fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, attacked_round) == \
            full.observe(plaintext, attacked_round)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts, st.integers(min_value=1, max_value=4))
    def test_flush_flush_paths_agree(self, plaintext, attacked_round):
        """Holds even with a noisy readout: filter_observation applies
        to both paths, and identical pre-filter sets consume identical
        draws from the primitive stream."""
        victim = TracedGift64(derive_key(128, 22))
        fast, full = _pair(victim, "flush_flush",
                           flush_flush_miss_probability=0.1)
        assert fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, attacked_round) == \
            full.observe(plaintext, attacked_round)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts)
    def test_prime_probe_ignores_fast_path_flag(self, plaintext):
        """Prime+Probe can never take the analytic path; asking for it
        must be a safe no-op, not a silent wrong answer."""
        victim = TracedGift64(derive_key(128, 23))
        fast, full = _pair(victim, "prime_probe", stall_window=200)
        assert not fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, 1) == full.observe(plaintext, 1)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts)
    def test_lossy_decorated_channel_at_zero_loss_agrees(self, plaintext):
        """A LossyChannel decorator with miss_probability=0 must be an
        exact no-op on both paths (the degradation draws nothing)."""
        victim = TracedGift64(derive_key(128, 24))
        fast, full = _pair(victim, "flush_reload",
                           loss=LossyChannel(miss_probability=0.0))
        plain_fast, _ = _pair(victim, "flush_reload")
        assert fast.is_lossless
        assert fast.observe(plaintext, 1) == full.observe(plaintext, 1)
        assert fast.observe(plaintext, 1) == plain_fast.observe(plaintext, 1)


class TestComposition:
    def test_default_stack(self, victim):
        channel = ObservationChannel(victim, AttackConfig(seed=1))
        assert isinstance(channel.transport, SingleLevelTransport)
        assert isinstance(channel.primitive, FlushReload)
        assert channel.degradations == (LOSSLESS,)
        assert channel.is_lossless
        assert channel.signal_reliability == 1.0
        assert channel.mid_flush_supported

    def test_explicit_layers_compose(self, victim):
        config = AttackConfig(seed=2)
        monitor = SboxMonitor.build(victim.layout, config.geometry)
        channel = ObservationChannel(
            victim, config,
            transport=SingleLevelTransport(config.geometry),
            primitive=FlushReload(monitor),
            degradations=(LossyChannel(miss_probability=0.2),
                          ProbeJitter(offsets=(0, 1),
                                      weights=(0.5, 0.5))),
        )
        assert not channel.is_lossless
        observed = channel.observe(0x0123456789ABCDEF, 1)
        assert observed <= channel.monitor.universe

    def test_prime_probe_rejected_on_cross_core_transport(self, victim):
        config = AttackConfig(probe_strategy="prime_probe", seed=3)
        with pytest.raises(ValueError, match="same-cache contention"):
            ObservationChannel(victim, config,
                               transport=SharedL2Transport())

    def test_mismatched_transport_geometry_rejected(self, victim):
        config = AttackConfig(
            geometry=CacheGeometry(line_words=8), seed=3
        )
        with pytest.raises(ValueError, match="line size"):
            ObservationChannel(victim, config,
                               transport=SharedL2Transport())

    def test_stacked_degradations_apply_in_order(self, victim):
        """Two lossy decorators drop more than either alone (statistically,
        at p high enough to be certain over the run)."""
        config = AttackConfig(seed=4)
        heavy = ObservationChannel(
            victim, config,
            degradations=(LossyChannel(miss_probability=0.9),
                          LossyChannel(miss_probability=0.9)),
        )
        light = ObservationChannel(victim, AttackConfig(seed=4))
        rng = random.Random(0)
        heavy_total = light_total = 0
        for _ in range(10):
            plaintext = rng.getrandbits(64)
            heavy_total += len(heavy.observe(plaintext, 1))
            light_total += len(light.observe(plaintext, 1))
        assert heavy_total < light_total


class TestSelfEviction:
    """The victim's own PermBits loads can evict a watched S-box line;
    the fast path must drop it exactly where the cache simulation does."""

    def test_fast_path_drops_a_line_the_victim_evicted(self):
        key = derive_key(128, 102)
        victim = TracedGift128(key)
        config = dict(use_flush=False, probing_round=2, seed=102)
        fast = ObservationChannel(victim, AttackConfig(
            use_fast_path=True, **config))
        full = ObservationChannel(victim, AttackConfig(
            use_fast_path=False, **config))
        rng = derive_rng("fast-full-equivalence", 102)
        plaintexts = [rng.getrandbits(128) for _ in range(4)]
        plaintext = plaintexts[3]
        # Attacked round 3 is monitored in round 4; probing round 2 and
        # no flush make the window rounds 1-5.
        touched = {fast.monitor.line_for_index(index)
                   for row in victim.sbox_indices_by_round(plaintext, 5)
                   for index in row}
        observed = full.observe(plaintext, 3)
        assert observed < touched
        assert fast.observe(plaintext, 3) == observed

    @pytest.mark.parametrize("seed, plaintext, later_lines, kept", [
        (1, 0xE0C9697575CC3CD84A4407AE400E11B4, 16, False),
        (13, 0xB72CAFAF62905E5DF8DF0043CA7C481A, 15, True),
    ], ids=["sixteen-evict", "fifteen-keep"])
    def test_exactly_ways_later_lines_evict(self, seed, plaintext,
                                            later_lines, kept):
        """LRU boundary: 16 distinct scatter lines after line 4096's
        last access evict it from the 16-way set, 15 do not."""
        victim = TracedGift128(derive_key(128, seed))
        config = dict(use_flush=False, probing_round=2, seed=seed)
        fast = ObservationChannel(victim, AttackConfig(
            use_fast_path=True, **config))
        full = ObservationChannel(victim, AttackConfig(
            use_fast_path=False, **config))
        window = victim.sbox_indices_by_round(plaintext, 5)
        last = max(r for r, row in enumerate(window) if 0 in row)
        set_zero = {
            line for row in window[last:]
            for segment, index in enumerate(row)
            for line in [victim.layout.perm_address(
                segment, get_target("gift128").sbox[index], 32)]
            if line % 64 == 0
        }
        assert len(set_zero) == later_lines
        observed = full.observe(plaintext, 3)
        assert (4096 in observed) is kept
        assert fast.observe(plaintext, 3) == observed

    def test_one_round_gift64_windows_need_no_check(self):
        monitor = SboxMonitor.build(TracedGift64(0).layout, CacheGeometry())
        guard = EvictionGuard(monitor, 16, get_target("gift64").sbox)
        assert guard.plan(1) == ()
        assert guard.plan(2) == (4096, 4104)

    def test_unknown_sbox_sends_risky_windows_to_full_path(self):
        layout = TracedGift64(0).layout
        paper = EvictionGuard(SboxMonitor.build(layout, CacheGeometry()),
                              16, None)
        assert paper.plan(1) is None
        wide = EvictionGuard(
            SboxMonitor.build(layout, CacheGeometry(line_words=4)), 16, None)
        assert wide.plan(8) == ()


class TestEffortInvariant:
    def test_seed0_full_key_takes_exactly_464_encryptions(self):
        """The refactor's bit-identical-RNG contract, pinned: the
        seed-0 GIFT-64 Flush+Reload full-key recovery costs exactly the
        same 464 encryptions it did before the channel stack existed."""
        victim = TracedGift64(derive_key(128, 0))
        result = GrinchAttack(victim, AttackConfig(seed=0)) \
            .recover_master_key()
        assert result.master_key == derive_key(128, 0)
        assert result.total_encryptions == 464
