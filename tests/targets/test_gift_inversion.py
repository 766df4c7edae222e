"""Step 5's table-driven inversion against a round-by-round reference.

:meth:`repro.targets.gift.GiftTarget.invert_rounds` runs on byte
tables (``S⁻¹(P⁻¹(y) XOR P⁻¹(m_r))`` with memoised masks).  The
reference below unwinds one round at a time with the spec-style
primitives of :mod:`repro.gift.cipher`, exactly as Step 5 is written;
both directions are checked: the inversion equals the reference, and
encrypting its result forward through the same rounds reaches the
input state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gift.cipher import round_key_mask, sub_cells
from repro.gift.constants import constant_mask
from repro.gift.keyschedule import round_keys
from repro.gift.permutation import (
    inverse_permutation_for_width,
    permutation_for_width,
    permute,
)
from repro.targets import get_target

TARGETS = ("gift64", "gift128", "giftcofb")


def _reference_invert(state, prior, width):
    inverse = inverse_permutation_for_width(width)
    for round_index in range(len(prior), 0, -1):
        u, v = prior[round_index - 1]
        state ^= round_key_mask(u, v, width)
        state ^= constant_mask(round_index, width)
        state = permute(state, inverse)
        state = sub_cells(state, width, inverse=True)
    return state


def _forward(plaintext, prior, width):
    forward = permutation_for_width(width)
    state = plaintext
    for round_index, (u, v) in enumerate(prior, start=1):
        state = permute(sub_cells(state, width), forward)
        state ^= round_key_mask(u, v, width)
        state ^= constant_mask(round_index, width)
    return state


@st.composite
def cases(draw):
    target = get_target(draw(st.sampled_from(TARGETS)))
    rounds = draw(st.integers(min_value=0,
                              max_value=target.verification_round - 1))
    if draw(st.booleans()):
        # Scheduled keys, as the attack's true prior rounds are.
        key = draw(st.integers(min_value=0, max_value=(1 << 128) - 1))
        prior = round_keys(key, rounds, target.width) if rounds else []
    else:
        # Arbitrary (U, V) pairs, as hypothesised round keys are.
        half = st.integers(min_value=0,
                           max_value=(1 << (target.width // 4)) - 1)
        prior = draw(st.lists(st.tuples(half, half), min_size=rounds,
                              max_size=rounds))
    state = draw(st.integers(min_value=0,
                             max_value=(1 << target.width) - 1))
    return target, prior, state


class TestInvertRounds:
    @settings(max_examples=300)
    @given(cases())
    def test_matches_round_by_round_reference(self, case):
        target, prior, state = case
        assert (target.invert_rounds(state, prior)
                == _reference_invert(state, prior, target.width))

    @settings(max_examples=300)
    @given(cases())
    def test_forward_rounds_reach_the_input_state(self, case):
        target, prior, state = case
        plaintext = target.invert_rounds(state, tuple(prior))
        assert 0 <= plaintext < 1 << target.width
        assert _forward(plaintext, prior, target.width) == state

    def test_zero_rounds_is_identity(self):
        for name in TARGETS:
            assert get_target(name).invert_rounds(0xC0FFEE, ()) == 0xC0FFEE

    def test_list_and_tuple_keys_agree(self):
        target = get_target("gift64")
        prior = round_keys(0x1234, 4, 64)
        assert (target.invert_rounds(0xFEEDFACE, prior)
                == target.invert_rounds(0xFEEDFACE, tuple(prior)))
