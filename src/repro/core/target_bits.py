"""Algorithm 1 of the GRINCH paper: selecting and tracing target key bits.

For a target round ``t`` and state segment ``s``, AddRoundKey XORs
secret bits into fixed bit offsets of the monitored S-box index (bits
0/1 for GIFT-64, bits 1/2 for GIFT-128, all four for PRESENT).
Algorithm 1 walks the bits of that index backwards through the cipher's
bit permutation to find which source S-box output bits must be pinned,
and collects the S-box input lists that pin them (``List_A``/``List_B``
in the paper).

Section III-C requires controlling all *four* source segments ("the
attacker has to carefully select four segments"), because any key-free
bits of the target index must also stay constant for the intersection
to converge to a single entry.  :func:`set_target_bits` therefore
traces all four bits; the key positions are forced to 1 (as in the
paper) and the free positions to a configurable constant.

The walk is generic over any registered
:class:`~repro.targets.CipherTarget`: the target supplies the inverse
permutation, the S-box preimage lists, the key/free bit offsets, and
the round-constant mask.  Ciphers whose round-1 S-box indices are
already key-dependent (PRESENT, ``probe_round_offset = 0`` with
``first_round_direct``) skip the walk for ``t = 1`` — the crafted
plaintext nibble *is* the constrained value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from ..targets.protocol import CipherTarget
from ..targets.registry import get_target


@dataclass(frozen=True)
class SourceBit:
    """One monitored index bit of the target segment, traced to its source.

    Attributes
    ----------
    target_position:
        Bit position within the pre-key state feeding the monitored
        index (``4s + j``).
    pre_perm_position:
        The same bit before the permutation, i.e. within the source
        S-box output layer.
    source_segment:
        Segment whose S-box produces the bit (``pre_perm_position // 4``).
    output_bit:
        Bit offset within that S-box output (``pre_perm_position % 4``).
    forced_value:
        Constant the attacker forces this S-box output bit to.
    key_xored:
        Whether AddRoundKey XORs a secret key bit at ``target_position``.
    """

    target_position: int
    pre_perm_position: int
    source_segment: int
    output_bit: int
    forced_value: int
    key_xored: bool


@dataclass(frozen=True)
class TargetSpec:
    """Everything needed to craft plaintexts and interpret observations
    for one (round, segment) target.

    ``valid_inputs`` maps each source segment to the list of S-box inputs
    that force its constrained output bit(s) — the paper's
    ``List_A``/``List_B``, extended to all four sources.  (For a
    ``first_round_direct`` round-1 target it maps the target segment
    itself to the single fully pinned plaintext nibble.)  It is a
    read-only mapping: :func:`set_target_bits` memoises its specs, so
    every caller shares one instance.
    ``free_bit_predictions`` gives, per key-free index bit offset, the
    value the attacker *predicts* for the monitored access (forced value
    XORed with the key-independent round constant).
    """

    round_index: int
    segment: int
    width: int
    sources: Tuple[SourceBit, ...]
    valid_inputs: Mapping[int, Tuple[int, ...]]
    key_offsets: Tuple[int, ...]
    free_bit_predictions: Tuple[Tuple[int, int], ...]
    key_bit_positions: Tuple[int, ...]
    target: Optional[CipherTarget] = field(default=None, compare=False,
                                           repr=False)

    @property
    def source_segments(self) -> Tuple[int, ...]:
        """Distinct input segments that must be controlled."""
        return tuple(sorted(self.valid_inputs))

    @property
    def predicted_high_bits(self) -> int:
        """GIFT-64 compatibility view: predicted index bits 3..2.

        Only meaningful when the free offsets are exactly (2, 3), i.e.
        the GIFT-64 layout.
        """
        predictions = dict(self.free_bit_predictions)
        if set(predictions) != {2, 3}:
            raise ValueError(
                f"predicted_high_bits is a GIFT-64 view; free offsets "
                f"here are {sorted(predictions)}"
            )
        return (predictions[3] << 1) | predictions[2]

    def master_key_bits(self) -> Tuple[int, ...]:
        """Master-key bit indices recovered by this target.

        Only defined for the attacked rounds (where round keys are
        fresh master-key material).
        """
        return self._target().master_key_bit_positions(
            self.round_index, self.segment
        )

    def _target(self) -> CipherTarget:
        if self.target is not None:
            return self.target
        return get_target(f"gift{self.width}")


@lru_cache(maxsize=1024)
def set_target_bits(round_index: int, segment: int, width: int = 64,
                    forced_high_bits: Optional[Tuple[int, ...]] = None,
                    target: Optional[CipherTarget] = None) -> TargetSpec:
    """Algorithm 1 (extended per Section III-C): build a :class:`TargetSpec`.

    Parameters
    ----------
    round_index:
        The round whose AddRoundKey bits are attacked (``t``); the
        monitored S-box accesses happen in round
        ``t + target.probe_round_offset``.
    segment:
        Target state segment ``s``.
    width:
        Cipher state width; selects the GIFT profile when no ``target``
        is given (the historical call shape).
    forced_high_bits:
        Constants for the key-free bits of the target index, in
        ascending offset order (offsets 2 and 3 for GIFT-64, 0 and 3
        for GIFT-128; PRESENT has none).  Defaults to all ones.  The
        key positions are always forced to 1, following the paper ("In
        this attack we set these bits to 1").
    target:
        The cipher target to trace against; defaults to the registered
        GIFT target of ``width``.

    The result depends only on the arguments and public cipher
    constants, so it is memoised (bounded): an attack asks for the
    same few dozen specs once per segment attempt.
    """
    if target is None:
        if width not in (64, 128):
            raise ValueError(
                f"GIFT only defines 64- and 128-bit states, got {width}"
            )
        target = get_target(f"gift{width}")
    width = target.width
    if not 0 <= segment < target.segments:
        raise ValueError(
            f"segment must be in [0, {target.segments}), got {segment}"
        )
    if forced_high_bits is None:
        forced_high_bits = (1,) * len(target.free_offsets)
    if len(forced_high_bits) != len(target.free_offsets) or any(
            bit not in (0, 1) for bit in forced_high_bits):
        raise ValueError(
            f"forced_high_bits must be {len(target.free_offsets)} bits, "
            f"got {forced_high_bits}"
        )
    forced_by_offset = {offset: 1 for offset in target.key_offsets}
    for offset, value in zip(target.free_offsets, forced_high_bits):
        forced_by_offset[offset] = value

    if 1 <= round_index <= target.full_key_rounds:
        key_positions = target.master_key_bit_positions(round_index, segment)
    else:
        # Rounds beyond the attacked window reuse (rotated/rescheduled)
        # key material; the positions are not fresh master-key bits.
        # Used only by the verification stage.
        key_positions = (-1,) * len(target.key_offsets)

    constant = target.round_constant_mask(round_index)
    free_bit_predictions = tuple(
        (
            offset,
            forced_by_offset[offset]
            ^ ((constant >> (4 * segment + offset)) & 1),
        )
        for offset in target.free_offsets
    )

    if target.first_round_direct and round_index == 1:
        # The monitored index is plaintext nibble XOR key nibble: pin
        # the plaintext nibble to the forced constants directly, no
        # source tracing needed (and no sources to hypothesise over).
        pinned = 0
        for offset in range(4):
            pinned |= forced_by_offset[offset] << offset
        return TargetSpec(
            round_index=round_index,
            segment=segment,
            width=width,
            sources=(),
            valid_inputs=MappingProxyType({segment: (pinned,)}),
            key_offsets=target.key_offsets,
            free_bit_predictions=free_bit_predictions,
            key_bit_positions=key_positions,
            target=target,
        )

    inverse_perm = target.inverse_permutation()
    sources: List[SourceBit] = []
    constraints_by_segment: Dict[int, List[Tuple[int, int]]] = {}
    for offset in range(4):
        target_position = 4 * segment + offset
        pre_perm_position = inverse_perm[target_position]
        source_segment = pre_perm_position // 4
        output_bit = pre_perm_position % 4
        forced_value = forced_by_offset[offset]
        sources.append(
            SourceBit(
                target_position=target_position,
                pre_perm_position=pre_perm_position,
                source_segment=source_segment,
                output_bit=output_bit,
                forced_value=forced_value,
                key_xored=offset in target.key_offsets,
            )
        )
        constraints_by_segment.setdefault(source_segment, []).append(
            (output_bit, forced_value)
        )

    if len(constraints_by_segment) != 4:
        # GIFT's and PRESENT's permutations send the four bits of every
        # segment to four distinct segments, so the converse holds too;
        # anything else means the permutation tables are corrupted.
        raise RuntimeError(
            "expected 4 distinct source segments for segment "
            f"{segment}, got {sorted(constraints_by_segment)}"
        )

    valid_inputs = {
        source_segment: target.inputs_for_output_bits(constraints)
        for source_segment, constraints in constraints_by_segment.items()
    }
    for source_segment, inputs in valid_inputs.items():
        if not inputs:
            raise RuntimeError(
                f"no S-box input satisfies the constraints of source "
                f"segment {source_segment}"
            )

    return TargetSpec(
        round_index=round_index,
        segment=segment,
        width=width,
        sources=tuple(sources),
        valid_inputs=MappingProxyType(valid_inputs),
        key_offsets=target.key_offsets,
        free_bit_predictions=free_bit_predictions,
        key_bit_positions=key_positions,
        target=target,
    )
