"""The fast path's index walk against the traced LUT path.

``sbox_indices_by_round`` splits each round state into bytes and
scatters through byte-fused tables; ``encrypt_traced`` records one
``sbox`` access per segment per round.  Both must name the same
indices at every reduced round count, for every GIFT victim the
attack drives — including the countermeasure subclasses, which change
the key schedule or the load addresses but reuse the walk.  (The
reshaped-S-box victim records the packed row it loads, ``index >> 1``,
as its access index.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.countermeasures.hardened_schedule import HardenedKeyScheduleGift64
from repro.countermeasures.reshaped_sbox import ReshapedSboxGift64
from repro.gift.lut import TracedGift64, TracedGift128

VICTIMS = (TracedGift64, TracedGift128, ReshapedSboxGift64,
           HardenedKeyScheduleGift64)

KEYS = st.integers(min_value=0, max_value=(1 << 128) - 1)


def _recorded(victim, index):
    """The access index ``encrypt_traced`` records for S-box ``index``."""
    return index >> 1 if isinstance(victim, ReshapedSboxGift64) else index


def _traced_indices(victim, plaintext, max_rounds):
    trace = victim.encrypt_traced(plaintext, max_rounds=max_rounds)
    by_round = [[] for _ in range(max_rounds)]
    for access in trace.accesses:
        if access.table == "sbox":
            by_round[access.round_index - 1].append(access.index)
    return by_round


@st.composite
def cases(draw):
    victim = draw(st.sampled_from(VICTIMS))(draw(KEYS))
    plaintext = draw(st.integers(min_value=0,
                                 max_value=(1 << victim.width) - 1))
    return victim, plaintext, draw(st.integers(min_value=1, max_value=6))


class TestIndexPath:
    @settings(max_examples=200)
    @given(cases())
    def test_matches_traced_sbox_accesses(self, case):
        victim, plaintext, max_rounds = case
        walked = victim.sbox_indices_by_round(plaintext, max_rounds)
        assert len(walked) == max_rounds
        assert all(len(row) == victim.width // 4 for row in walked)
        assert ([[_recorded(victim, index) for index in row]
                 for row in walked]
                == _traced_indices(victim, plaintext, max_rounds))

    @pytest.mark.parametrize("victim_cls", VICTIMS)
    def test_bounds_still_raise(self, victim_cls):
        victim = victim_cls(0x42)
        with pytest.raises(ValueError):
            victim.sbox_indices_by_round(1 << victim.width, 1)
        with pytest.raises(ValueError):
            victim.sbox_indices_by_round(-1, 1)
        with pytest.raises(ValueError):
            victim.sbox_indices_by_round(0, 0)
        with pytest.raises(ValueError):
            victim.sbox_indices_by_round(0, victim.rounds + 1)
