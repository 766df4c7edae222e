"""Tests for the cache-attack runner, including fast/full path equivalence."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.config import AttackConfig
from repro.channel import NO_NOISE, DefenderObserver, NoiseModel
from repro.channel import ObservationChannel as CacheAttackRunner
from repro.gift.lut import TracedGift64, TracedGift128
from repro.seeding import derive_key, derive_rng
from repro.targets.registry import get_target


def _runner(victim, **overrides):
    config = AttackConfig(seed=11, **overrides)
    return CacheAttackRunner(victim, config)


class TestObservationSemantics:
    def test_flush_hides_round_one(self, victim):
        """With the mid-run flush the observation only contains rounds
        t+1..t+r; round 1's accesses must be invisible."""
        runner = _runner(victim, probing_round=1, use_flush=True)
        plaintext = 0x0123456789ABCDEF
        observed = runner.observe(plaintext, attacked_round=1)
        round2 = victim.sbox_indices_by_round(plaintext, 2)[1]
        expected = {runner.monitor.line_for_index(i) for i in round2}
        assert observed == expected

    def test_no_flush_includes_round_one(self, victim):
        runner = _runner(victim, probing_round=1, use_flush=False)
        plaintext = 0xFEDCBA9876543210
        observed = runner.observe(plaintext, attacked_round=1)
        rounds = victim.sbox_indices_by_round(plaintext, 2)
        expected = {
            runner.monitor.line_for_index(i)
            for indices in rounds for i in indices
        }
        assert observed == expected

    def test_probing_round_widens_the_window(self, victim):
        early = _runner(victim, probing_round=1)
        late = _runner(victim, probing_round=6)
        plaintext = 0x1122334455667788
        assert early.observe(plaintext, 1) <= \
            late.observe(plaintext, 1)

    def test_counts_encryptions(self, victim):
        runner = _runner(victim)
        for _ in range(5):
            runner.observe(0, 1)
        assert runner.encryptions_run == 5

    def test_rejects_bad_round(self, victim):
        with pytest.raises(ValueError):
            _runner(victim).observe(0, 0)


class TestFastFullEquivalence:
    @pytest.mark.parametrize("line_words", [1, 2, 4, 8])
    @pytest.mark.parametrize("use_flush", [True, False])
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        primitive=st.sampled_from(["flush_reload", "flush_flush"]),
        target_name=st.sampled_from(["gift64", "gift128"]),
        probing_round=st.integers(min_value=1, max_value=4),
        attacked_round=st.integers(min_value=1, max_value=3),
        noisy=st.booleans(),
        readout_miss=st.sampled_from([0.0, 0.1]),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_paths_agree_observation_for_observation(
            self, line_words, use_flush, primitive, target_name,
            probing_round, attacked_round, noisy, readout_miss, seed):
        """Every observation path answers identically, window by window.

        The accelerated path must be *exactly* the full cache
        simulation — this equality is what licenses using it in the
        Table I sweeps — and watching the channel with a defender
        (which forces the full path) must change nothing the attacker
        sees.  ``observe_batch`` on a batch-capable victim is the same
        sequence as looping ``observe`` (vectorized when the readout is
        reliable, the scalar fallback otherwise).
        """
        target = get_target(target_name)
        key = derive_key(128, seed)

        def channel(victim, use_fast_path=True, defender=None):
            config = AttackConfig(
                geometry=CacheGeometry(line_words=line_words),
                probe_strategy=primitive, probing_round=probing_round,
                use_flush=use_flush, use_fast_path=use_fast_path,
                flush_flush_miss_probability=readout_miss,
                noise=(NoiseModel(touch_probability=0.5,
                                  monitored_touches=2)
                       if noisy else NO_NOISE),
                seed=seed,
            )
            return CacheAttackRunner(victim, config, defender=defender)

        victim = target.make_victim(key)
        fast = channel(victim)
        full = channel(victim, use_fast_path=False)
        watched = channel(victim, defender=DefenderObserver())
        batch = channel(target.make_victim_batch(key))
        assert fast.fast_path_active and not full.fast_path_active
        assert batch.batch_path_active == (fast.signal_reliability == 1.0)

        rng = derive_rng("fast-full-equivalence", seed)
        plaintexts = [rng.getrandbits(target.width) for _ in range(6)]
        expected = [fast.observe(p, attacked_round) for p in plaintexts]
        assert [full.observe(p, attacked_round)
                for p in plaintexts] == expected
        assert [watched.observe(p, attacked_round)
                for p in plaintexts] == expected
        assert batch.observe_batch(plaintexts, attacked_round) == expected
        assert len(watched.defender.windows) == len(plaintexts)

    def test_deeper_attack_rounds_agree_too(self, random_key):
        victim = TracedGift64(random_key)
        fast = CacheAttackRunner(victim, AttackConfig(use_fast_path=True))
        full = CacheAttackRunner(victim, AttackConfig(use_fast_path=False))
        rng = random.Random(78)
        for attacked_round in (2, 3, 4):
            plaintext = rng.getrandbits(64)
            assert fast.observe(plaintext, attacked_round) == \
                full.observe(plaintext, attacked_round)

    def test_prime_probe_never_uses_fast_path(self, victim):
        runner = _runner(victim, probe_strategy="prime_probe")
        assert not runner.fast_path_active

    def test_paths_agree_for_gift128(self, random_key):
        victim = TracedGift128(random_key)
        fast = CacheAttackRunner(victim, AttackConfig(use_fast_path=True))
        full = CacheAttackRunner(victim, AttackConfig(use_fast_path=False))
        rng = random.Random(80)
        for _ in range(10):
            plaintext = rng.getrandbits(128)
            assert fast.observe(plaintext, 1) == full.observe(plaintext, 1)


class TestNoise:
    def test_noise_only_adds_monitored_lines(self, victim):
        noisy = CacheAttackRunner(victim, AttackConfig(
            seed=3, noise=NoiseModel(touch_probability=1.0,
                                     monitored_touches=4),
        ))
        quiet = CacheAttackRunner(victim, AttackConfig(seed=3))
        rng = random.Random(9)
        for _ in range(10):
            plaintext = rng.getrandbits(64)
            noisy_obs = noisy.observe(plaintext, 1)
            quiet_obs = quiet.observe(plaintext, 1)
            assert quiet_obs <= noisy_obs
            assert noisy_obs <= noisy.monitor.universe

    def test_silent_noise_changes_nothing(self, victim):
        a = CacheAttackRunner(victim, AttackConfig(seed=3))
        b = CacheAttackRunner(victim, AttackConfig(
            seed=3, noise=NoiseModel(touch_probability=0.0,
                                     monitored_touches=10),
        ))
        assert a.observe(42, 1) == b.observe(42, 1)


class TestKnownPair:
    def test_matches_victim_encryption(self, victim):
        runner = _runner(victim)
        assert runner.known_pair(0x1234) == victim.encrypt(0x1234)
