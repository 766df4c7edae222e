"""The channel's batch surface: observe_batch and its capability gate.

Three invariants anchor the batch path to the historic scalar channel:

* on a lossless (and even a noisy) channel, ``observe_batch`` is
  observation-for-observation identical to looping ``observe`` on a
  fresh channel — the noise stream is consumed per window in scalar
  order on both paths;
* on a lossy channel, the batch degradations are deterministic at ANY
  batch split — ``drop_lines_batch`` draws one C-order matrix per call
  on the dedicated ``"-loss-batch"`` stream, so window ``k`` always
  gets row ``k``'s randomness;
* the capability gate falls back to the exact scalar loop whenever a
  configuration could diverge (noisy Flush+Flush readouts, jittered
  windows, wrapped replay/recording victims).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.degradation import LossyChannel, ProbeJitter, NoiseModel
from repro.channel.observer import ObservationChannel
from repro.gift.bitsliced import numpy_available
from repro.core.config import AttackConfig
from repro.seeding import derive_key, derive_rng
from repro.targets.gift import TracedGift64

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the batch path requires numpy"
)


def _plaintexts(count, label="channel-batch"):
    rng = derive_rng(label, 0)
    return [rng.getrandbits(64) for _ in range(count)]


def _channel(config, key_seed=0):
    victim = TracedGift64(derive_key(128, key_seed))
    return ObservationChannel(victim, config)


class TestGating:
    def test_active_on_the_reference_setup(self):
        channel = _channel(AttackConfig(seed=0))
        assert channel.fast_path_active
        assert channel.batch_path_active

    def test_active_with_batch_aware_loss(self):
        channel = _channel(AttackConfig(
            seed=0, loss=LossyChannel(miss_probability=0.2)
        ))
        assert channel.batch_path_active

    def test_inactive_for_prime_probe(self):
        channel = _channel(AttackConfig(
            seed=0, probe_strategy="prime_probe", stall_window=200
        ))
        assert not channel.batch_path_active

    def test_inactive_under_jitter(self):
        channel = _channel(AttackConfig(
            seed=0,
            loss=LossyChannel(jitter=ProbeJitter(offsets=(-1, 0, 1),
                                                 weights=(0.2, 0.6, 0.2))),
        ))
        assert channel.fast_path_active
        assert not channel.batch_path_active

    def test_inactive_for_noisy_flush_flush_readout(self):
        channel = _channel(AttackConfig(
            seed=0, probe_strategy="flush_flush",
            flush_flush_miss_probability=0.1,
        ))
        assert not channel.batch_path_active

    def test_inactive_for_replay_victims(self):
        from repro.engine.replay import config_from_header
        from repro.trace import ReplayVictim, read_binary
        from pathlib import Path

        corpus = (Path(__file__).resolve().parent.parent / "corpus"
                  / "gift64-seed0-full.grtr")
        trace = read_binary(corpus)
        victim = ReplayVictim(trace)
        channel = ObservationChannel(victim,
                                     config_from_header(trace.header))
        assert not channel.batch_path_active

    def test_fallback_still_answers(self):
        # An inactive batch path must still serve observe_batch via the
        # scalar loop, bit-identical to fresh scalar observes.
        config = AttackConfig(seed=0, probe_strategy="prime_probe",
                              stall_window=200)
        plaintexts = _plaintexts(5)
        batched = _channel(config).observe_batch(plaintexts, 1)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 1)
                           for p in plaintexts]


class TestLosslessEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=9))
    def test_matches_scalar_observes(self, seed, count):
        config = AttackConfig(seed=seed)
        rng = derive_rng("observe-batch-plaintexts", seed)
        plaintexts = [rng.getrandbits(64) for _ in range(count)]
        batch_channel = _channel(config)
        assert batch_channel.batch_path_active
        batched = batch_channel.observe_batch(plaintexts, 1)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 1)
                           for p in plaintexts]
        assert batch_channel.encryptions_run \
            == scalar_channel.encryptions_run == count

    def test_matches_under_ambient_noise(self):
        # The noise stream is drawn per window in scalar order on the
        # batch path too, so even a noisy environment stays identical.
        config = AttackConfig(
            seed=7, noise=NoiseModel(touch_probability=0.5,
                                     monitored_touches=2),
        )
        plaintexts = _plaintexts(16)
        batched = _channel(config).observe_batch(plaintexts, 1)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 1)
                           for p in plaintexts]

    def test_deeper_attacked_round(self):
        config = AttackConfig(seed=3)
        plaintexts = _plaintexts(6)
        batched = _channel(config).observe_batch(plaintexts, 4)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 4)
                           for p in plaintexts]

    def test_empty_batch(self):
        channel = _channel(AttackConfig(seed=0))
        assert channel.observe_batch([], 1) == []
        assert channel.encryptions_run == 0

    def test_bad_round_rejected(self):
        with pytest.raises(ValueError):
            _channel(AttackConfig(seed=0)).observe_batch([0], 0)


class TestLossyDeterminism:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16),
           st.lists(st.integers(min_value=1, max_value=6),
                    min_size=1, max_size=5))
    def test_any_batch_split_is_identical(self, seed, sizes):
        """Splitting one window sequence into arbitrary batch sizes
        consumes the dedicated loss stream identically."""
        config = AttackConfig(
            seed=seed,
            loss=LossyChannel(miss_probability=0.25, eviction_rate=0.1),
        )
        total = sum(sizes)
        plaintexts = _plaintexts(total, label="lossy-split")
        whole = _channel(config).observe_batch(plaintexts, 1)
        split_channel = _channel(config)
        assert split_channel.batch_path_active
        split = []
        cursor = 0
        for size in sizes:
            split.extend(split_channel.observe_batch(
                plaintexts[cursor:cursor + size], 1
            ))
            cursor += size
        assert split == whole

    def test_scalar_loss_stream_untouched_by_batch_calls(self):
        # A batch call must never consume the scalar "-loss" stream:
        # interleaving batch calls cannot change later scalar draws.
        config = AttackConfig(seed=5,
                              loss=LossyChannel(miss_probability=0.3))
        plaintexts = _plaintexts(8, label="loss-interleave")
        pure = _channel(config)
        expected = [pure.observe(p, 1) for p in plaintexts[:4]]
        mixed = _channel(config)
        mixed.observe_batch(plaintexts[4:], 1)
        assert [mixed.observe(p, 1) for p in plaintexts[:4]] == expected


class TestDropLinesBatchStream:
    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2 ** 16),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=11))
    def test_split_invariance_on_raw_windows(self, seed, count, cut):
        import numpy

        from repro.seeding import derive_seed

        cut = min(cut, count)
        loss = LossyChannel(miss_probability=0.3, eviction_rate=0.2)
        lines = list(range(4))
        rng = derive_rng("drop-batch-windows", seed)
        windows = [
            frozenset(line for line in lines if rng.random() < 0.7)
            for _ in range(count)
        ]

        def fresh():
            return numpy.random.default_rng(
                derive_seed("drop-batch-test", seed)
            )

        whole = loss.drop_lines_batch(windows, lines, fresh())
        generator = fresh()
        split = loss.drop_lines_batch(windows[:cut], lines, generator) \
            + loss.drop_lines_batch(windows[cut:], lines, generator)
        assert split == whole
        for original, degraded in zip(windows, whole):
            assert degraded <= original

    def test_draws_per_window_is_fixed(self):
        loss = LossyChannel(miss_probability=0.5)
        assert loss.batch_draws_per_window(4) == 6

