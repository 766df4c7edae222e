"""Tests for Algorithm 1 (target-bit selection and tracing)."""

import pytest

from repro.gift.constants import constant_mask
from repro.gift.permutation import PERM64_INV
from repro.gift.sbox import GIFT_SBOX
from repro.core.target_bits import set_target_bits


class TestSourceTracing:
    @pytest.mark.parametrize("segment", range(16))
    def test_four_distinct_source_segments(self, segment):
        # Section III-C: "the attacker has to carefully select four
        # segments of the plaintext".
        spec = set_target_bits(1, segment)
        assert len(spec.source_segments) == 4

    @pytest.mark.parametrize("segment", range(16))
    def test_sources_follow_inverse_permutation(self, segment):
        spec = set_target_bits(1, segment)
        for source in spec.sources:
            expected_pre = PERM64_INV[source.target_position]
            assert source.pre_perm_position == expected_pre
            assert source.source_segment == expected_pre // 4
            assert source.output_bit == expected_pre % 4

    @pytest.mark.parametrize("segment", range(16))
    def test_output_bit_equals_target_offset(self, segment):
        """GIFT's permutation preserves offsets mod 4, so the source's
        S-box output bit equals the target index bit it feeds — the fact
        behind the visible/invisible hypothesis split."""
        spec = set_target_bits(2, segment)
        for source in spec.sources:
            assert source.output_bit == source.target_position % 4

    def test_key_positions_are_the_two_low_bits(self):
        spec = set_target_bits(1, 3)
        key_positions = [s.target_position for s in spec.sources if s.key_xored]
        assert key_positions == [12, 13]

    def test_union_of_source_cones_covers_all_segments(self):
        cones = set()
        for segment in range(16):
            cones.update(set_target_bits(1, segment).source_segments)
        assert cones == set(range(16))


class TestForcedLists:
    @pytest.mark.parametrize("segment", range(16))
    def test_valid_inputs_force_their_bits(self, segment):
        spec = set_target_bits(1, segment)
        for source in spec.sources:
            inputs = spec.valid_inputs[source.source_segment]
            for x in inputs:
                assert (GIFT_SBOX[x] >> source.output_bit) & 1 \
                    == source.forced_value

    def test_key_bits_forced_to_one_by_default(self):
        # "In this attack we set these bits to 1" (Section III-C).
        spec = set_target_bits(1, 0)
        for source in spec.sources:
            if source.key_xored:
                assert source.forced_value == 1

    def test_forced_high_bits_configurable(self):
        spec = set_target_bits(1, 0, forced_high_bits=(0, 1))
        by_offset = {s.target_position % 4: s for s in spec.sources}
        assert by_offset[2].forced_value == 0
        assert by_offset[3].forced_value == 1

    def test_lists_have_eight_entries(self):
        # Component functions of a bijective S-box are balanced.
        spec = set_target_bits(1, 5)
        for inputs in spec.valid_inputs.values():
            assert len(inputs) == 8


class TestPredictedHighBits:
    @pytest.mark.parametrize("round_index", [1, 2, 3, 4])
    @pytest.mark.parametrize("segment", [0, 3, 7, 15])
    def test_prediction_accounts_for_round_constant(self, round_index,
                                                    segment):
        spec = set_target_bits(round_index, segment)
        constant = constant_mask(round_index, 64)
        expected_bit2 = 1 ^ ((constant >> (4 * segment + 2)) & 1)
        expected_bit3 = 1 ^ ((constant >> (4 * segment + 3)) & 1)
        assert spec.predicted_high_bits == (expected_bit3 << 1) | expected_bit2

    def test_segment15_gets_the_fixed_msb_constant(self):
        # Bit 63 is XORed with 1 every round.
        spec = set_target_bits(1, 15)
        assert (spec.predicted_high_bits >> 1) & 1 == 0  # 1 ^ 1


class TestKeyBitBookkeeping:
    def test_paper_example(self):
        spec = set_target_bits(1, 0)
        assert spec.key_bit_positions == (0, 16)
        assert spec.master_key_bits() == (0, 16)

    def test_round5_has_no_fresh_master_bits(self):
        spec = set_target_bits(5, 0)
        assert spec.key_bit_positions == (-1, -1)


class TestGift128Targets:
    def test_key_offsets_are_bits_one_and_two(self):
        spec = set_target_bits(1, 0, width=128)
        assert spec.key_offsets == (1, 2)
        key_positions = [
            s.target_position for s in spec.sources if s.key_xored
        ]
        assert key_positions == [1, 2]

    def test_free_offsets_are_zero_and_three(self):
        spec = set_target_bits(1, 5, width=128)
        assert tuple(o for o, _ in spec.free_bit_predictions) == (0, 3)

    def test_bit_zero_never_sees_a_round_constant(self):
        # Constants land on nibble bit 3 and the MSB only.
        for segment in (0, 7, 31):
            spec = set_target_bits(1, segment, width=128)
            predictions = dict(spec.free_bit_predictions)
            assert predictions[0] == 1  # forced value passes through

    def test_32_segments_with_four_sources_each(self):
        for segment in range(32):
            spec = set_target_bits(2, segment, width=128)
            assert len(spec.source_segments) == 4

    def test_master_key_bits_cover_everything_in_two_rounds(self):
        seen = set()
        for round_index in (1, 2):
            for segment in range(32):
                spec = set_target_bits(round_index, segment, width=128)
                seen.update(spec.master_key_bits())
        assert seen == set(range(128))

    def test_predicted_high_bits_view_is_64_only(self):
        spec = set_target_bits(1, 0, width=128)
        with pytest.raises(ValueError):
            _ = spec.predicted_high_bits


class TestValidation:
    def test_rejects_undefined_width(self):
        with pytest.raises(ValueError):
            set_target_bits(1, 0, width=96)

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError):
            set_target_bits(1, 16)

    def test_rejects_bad_forced_bits(self):
        with pytest.raises(ValueError):
            set_target_bits(1, 0, forced_high_bits=(2, 0))


class TestSharedSpecs:
    """``set_target_bits`` is memoised, so its specs are shared."""

    def test_repeated_calls_return_the_same_spec(self):
        assert set_target_bits(3, 7) is set_target_bits(3, 7)
        assert (set_target_bits(1, 2, width=128, forced_high_bits=(0, 1))
                is set_target_bits(1, 2, width=128,
                                   forced_high_bits=(0, 1)))

    def test_valid_inputs_cannot_be_mutated(self):
        spec = set_target_bits(2, 4)
        source = spec.source_segments[0]
        with pytest.raises(TypeError):
            spec.valid_inputs[source] = (0,)  # type: ignore[index]
        with pytest.raises(TypeError):
            del spec.valid_inputs[source]  # type: ignore[attr-defined]
        assert set_target_bits(2, 4).valid_inputs[source] != (0,)

    def test_direct_round_one_spec_is_read_only_too(self):
        from repro.targets import get_target

        spec = set_target_bits(1, 0, target=get_target("present80"))
        with pytest.raises(TypeError):
            spec.valid_inputs[0] = (0,)  # type: ignore[index]
