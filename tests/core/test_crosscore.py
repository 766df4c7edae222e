"""Tests for the cross-core (shared-L2) attack — the paper's future work."""

import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.multilevel import InclusionPolicy, TwoLevelHierarchy
from repro.channel import (
    LossyChannel,
    NoiseModel,
    ObservationChannel,
    SharedL2Transport,
)
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.core.crosscore import make_cross_core_runner
from repro.core.errors import AttackError
from repro.gift.lut import TracedGift64
from repro.seeding import derive_key, derive_rng


@pytest.fixture
def planted():
    key = random.Random(0xCAFE).getrandbits(128)
    return TracedGift64(key), key


class TestInclusiveHierarchy:
    def test_full_recovery_through_shared_l2(self, planted):
        """With an inclusive LLC the hierarchy does not protect GIFT:
        the cross-core attacker recovers the full key."""
        victim, key = planted
        config = AttackConfig(seed=3, max_total_encryptions=None)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        result = GrinchAttack(victim, config, runner=runner) \
            .recover_master_key()
        assert result.master_key == key

    def test_effort_comparable_to_single_level(self, planted):
        """The clflush reset makes the cross-core channel as clean as
        the same-core one."""
        victim, _ = planted
        config = AttackConfig(seed=4, max_total_encryptions=None)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        cross = GrinchAttack(victim, config, runner=runner) \
            .attack_first_round().encryptions
        same = GrinchAttack(victim, config).attack_first_round().encryptions
        assert cross < 4 * same

    def test_observation_matches_l2_contents(self, planted):
        victim, _ = planted
        config = AttackConfig(seed=5)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        observed = runner.observe(0x123456789ABCDEF0, 1)
        # Exactly the round-2 lines (flush removed round 1).
        round2 = victim.sbox_indices_by_round(0x123456789ABCDEF0, 2)[1]
        expected = {runner.monitor.line_for_index(i) for i in round2}
        assert observed == expected


class TestExclusiveHierarchy:
    def test_blinds_the_attack(self, planted):
        """With an exclusive LLC the S-box never leaves the victim's
        private L1, so the shared level carries (almost) nothing — the
        hierarchy acts as a countermeasure."""
        victim, _ = planted
        config = AttackConfig(seed=6, max_encryptions_per_segment=500,
                              max_total_encryptions=None)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.EXCLUSIVE
        )
        attack = GrinchAttack(victim, config, runner=runner)
        with pytest.raises(AttackError):
            attack.recover_master_key()

    def test_only_eviction_spills_surface(self, planted):
        """An exclusive L2 sees a line only when L1 pressure (here: the
        PermBits table) evicts it — a trickle compared to the inclusive
        hierarchy's full footprint, and crucially not guaranteed to
        include the pinned target line, which is what breaks the
        intersection."""
        victim, _ = planted
        rng = random.Random(1)
        plaintexts = [rng.getrandbits(64) for _ in range(30)]
        totals = {}
        for inclusion in (InclusionPolicy.EXCLUSIVE,
                          InclusionPolicy.INCLUSIVE):
            runner = make_cross_core_runner(
                victim, AttackConfig(seed=7), inclusion
            )
            totals[inclusion] = sum(
                len(runner.observe(p, 1)) for p in plaintexts
            )
        assert totals[InclusionPolicy.EXCLUSIVE] * 4 < \
            totals[InclusionPolicy.INCLUSIVE]


class TestRunnerContracts:
    """The cross-core channel is a plain ObservationChannel over a
    SharedL2Transport; the layers themselves reject what cannot work."""

    def test_rejects_prime_probe(self, planted):
        victim, _ = planted
        with pytest.raises(ValueError):
            ObservationChannel(
                victim, AttackConfig(probe_strategy="prime_probe"),
                transport=SharedL2Transport(TwoLevelHierarchy()),
            )

    def test_rejects_single_core_hierarchy(self, planted):
        victim, _ = planted
        with pytest.raises(ValueError):
            ObservationChannel(
                victim, AttackConfig(),
                transport=SharedL2Transport(TwoLevelHierarchy(cores=1)),
            )

    def test_rejects_line_size_mismatch(self, planted):
        victim, _ = planted
        with pytest.raises(ValueError):
            ObservationChannel(
                victim,
                AttackConfig(geometry=CacheGeometry(line_words=8)),
                transport=SharedL2Transport(
                    TwoLevelHierarchy()),  # 1-byte lines
            )

    def test_known_pair_channel(self, planted):
        victim, _ = planted
        config = AttackConfig(seed=8)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        assert runner.known_pair(0x42) == victim.encrypt(0x42)


#: First 64 observations of ``make_cross_core_runner`` (seed 9, key 9,
#: ambient noise and 10 % loss), one hex mask per window over the
#: sorted monitored lines.  Pins the ``"crosscore"`` noise/loss/
#: primitive streams and the default hierarchy's shape and per-set
#: replacement streams.
_CROSSCORE_PINS = {
    "lru": (
        "4543 aef5 664f a6b6 786e fd6b 97e3 2e0b 1673 8be5 b846 3978 "
        "aa3d 8bfb d86f f1fb 9fdd fb33 f6bc d27d f8c4 90df 7bee a39f "
        "5c9a aced 3bc7 b2ed 9f11 b6e7 d6b4 5571 6d58 6c3d 635f cff3 "
        "eee7 1e0a e1ff 973e e6b3 7eb2 5eba 7784 51da 5eba eb37 cf7b "
        "f732 239c a795 9f59 5276 69a5 fdf9 3f6a 8faa e1fb 4527 f3ac "
        "5cc6 b6ea 62ff f0f1"
    ),
    "random": (
        "4543 aef5 664f a6b6 786e fd6b 97e3 2e0b 1673 8be5 b846 3978 "
        "aa3d 8bfb d86f f1fb 9fdd fb33 f6bc d27d f8c4 90df 7bee a39f "
        "5c9a aced 3bc7 b2ed 9f11 b6e7 d6b4 5571 6d58 6c3d 635f cff3 "
        "eee7 1e0a c9fe 373e e673 7ea6 5eba 7722 d1d9 ddb8 eb36 cf7b "
        "f732 0b3c 8f55 9f59 4676 59a5 fdea 3dea 8faa 8dfb 4527 f3ac "
        "5cc6 b6ba e2ff d4e1"
    ),
}


class TestRngScopePin:
    @pytest.mark.parametrize("policy", sorted(_CROSSCORE_PINS))
    def test_first_64_observations(self, policy):
        config = AttackConfig(
            seed=9,
            noise=NoiseModel(touch_probability=0.3, monitored_touches=2),
            loss=LossyChannel(miss_probability=0.1),
        )
        victim = TracedGift64(derive_key(128, 9))
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE, policy=policy
        )
        lines = sorted(runner.monitor.lines)
        rng = derive_rng("crosscore-pin", 9)
        masks = []
        for _ in range(64):
            observed = runner.observe(rng.getrandbits(64), 1)
            masks.append(sum(1 << lines.index(line) for line in observed))
        assert " ".join(f"{mask:04x}" for mask in masks) \
            == _CROSSCORE_PINS[policy]
