"""Table-based (lookup-table) GIFT victim implementation with memory tracing.

This mirrors the software structure of the public GIFT implementation
the paper attacks (github.com/giftcipher/gift, reference [13]): SubCells
is one S-box table load per segment per round, and PermBits is one load
per segment from a precomputed scatter table.  Every load is recorded as
a :class:`~repro.gift.trace.MemoryAccess` so the cache simulator can
replay the exact address stream a shared cache would see.

The S-box load address is ``sbox_base + entry_bytes * index`` — the
key-dependent address GRINCH observes.  The PermBits table is
key-*independent* in round 1 but correlated with S-box outputs in later
rounds; it lives at a disjoint address range, as in the real binary,
so it only interferes through cache-set collisions (a Prime+Probe
concern, exercised by the ablation benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem
from typing import List, Optional, Tuple

from .cipher import round_key_mask
from .constants import constant_mask
from .keyschedule import round_keys as standard_round_keys
from ..staticcheck.secrets import secret_params
from .permutation import inverse_permutation_for_width, permutation_for_width, permute
from .sbox import GIFT_SBOX, GIFT_SBOX_INV
from .trace import EncryptionTrace, MemoryAccess

#: Widest PermBits scatter table any GIFT variant uses (GIFT-128 has 32
#: segments); :class:`TableLayout` validates against this extent because
#: the layout is width-agnostic.
MAX_SEGMENTS: int = 32


@dataclass(frozen=True)
class TableLayout:
    """Where the victim's lookup tables live in its data memory.

    The defaults model a small statically linked IoT binary: the 16-entry
    S-box packed one byte per entry (the paper's "16 bytes" table) and
    the PermBits scatter table in a separate, non-overlapping region.
    """

    sbox_base: int = 0x1000
    sbox_entry_bytes: int = 1
    perm_base: int = 0x2000
    perm_entry_bytes: int = 8

    def __post_init__(self) -> None:
        if self.sbox_base < 0 or self.perm_base < 0:
            raise ValueError("table base addresses must be non-negative")
        if self.sbox_entry_bytes < 1 or self.perm_entry_bytes < 1:
            raise ValueError("table entry sizes must be positive")
        # The layout does not know the cipher width, so the PermBits
        # extent is checked at its 32-segment (GIFT-128) maximum; both
        # orderings must be rejected or a perm table placed just below
        # the S-box would silently alias PermBits loads onto S-box
        # addresses and corrupt the observed index sets.
        sbox_end = self.sbox_base + 16 * self.sbox_entry_bytes
        perm_end = (self.perm_base
                    + 16 * MAX_SEGMENTS * self.perm_entry_bytes)
        if self.sbox_base < perm_end and self.perm_base < sbox_end:
            raise ValueError("S-box and PermBits tables overlap")

    def sbox_address(self, index: int) -> int:
        """Byte address of S-box entry ``index``."""
        if not 0 <= index < 16:
            raise ValueError(f"S-box index must be a 4-bit value, got {index}")
        return self.sbox_base + self.sbox_entry_bytes * index

    def sbox_addresses(self) -> List[int]:
        """Addresses of all sixteen S-box entries, in index order."""
        return [self.sbox_address(i) for i in range(16)]

    def perm_address(self, segment: int, nibble: int, segments: int) -> int:
        """Byte address of the PermBits scatter entry for one segment/nibble."""
        if not 0 <= nibble < 16:
            raise ValueError(f"nibble must be a 4-bit value, got {nibble}")
        if not 0 <= segment < segments:
            raise ValueError(f"segment must be in [0, {segments}), got {segment}")
        return self.perm_base + self.perm_entry_bytes * (segment * 16 + nibble)


def _build_scatter_table(width: int) -> Tuple[Tuple[int, ...], ...]:
    """Precompute PermBits as ``table[segment][nibble] -> scattered bits``.

    This is the classic LUT realisation of a bit permutation: the four
    bits of ``nibble`` sitting at segment ``segment`` are placed at their
    permuted positions; OR-ing the entries of all segments applies the
    full permutation.
    """
    permutation = permutation_for_width(width)
    segments = width // 4
    table = []
    for segment in range(segments):
        row = []
        for nibble in range(16):
            scattered = 0
            for bit in range(4):
                if (nibble >> bit) & 1:
                    scattered |= 1 << permutation[4 * segment + bit]
            row.append(scattered)
        table.append(tuple(row))
    return tuple(table)


_SCATTER_TABLES = {64: _build_scatter_table(64), 128: _build_scatter_table(128)}


def _fuse_sbox_into_scatter(width: int) -> Tuple[Tuple[int, ...], ...]:
    """Fuse SubCells into the scatter table: ``fused[seg][x]`` is the
    scattered contribution of input nibble ``x`` at segment ``seg``,
    i.e. ``scatter[seg][SBOX[x]]``.  One table load replaces the
    S-box load + scatter load pair of the LUT round function."""
    scatter = _SCATTER_TABLES[width]
    return tuple(
        tuple(row[GIFT_SBOX[x]] for x in range(16)) for row in scatter
    )


_FUSED_SBOX_SCATTER = {64: _fuse_sbox_into_scatter(64),
                       128: _fuse_sbox_into_scatter(128)}


@lru_cache(maxsize=None)
def _fused_byte_scatter(width: int) -> Tuple[Tuple[int, ...], ...]:
    """The fused scatter table re-indexed by state byte:
    ``table[b][x]`` is the contribution of byte value ``x`` at byte
    ``b``, i.e. of its low nibble at segment ``2b`` and its high
    nibble at segment ``2b + 1``.  Contributions of distinct bytes are
    disjoint, so one round is the sum of one load per byte.  Built on
    the first victim of each width."""
    fused = _FUSED_SBOX_SCATTER[width]
    return tuple(
        tuple(fused[2 * byte][x & 0xF] | fused[2 * byte + 1][x >> 4]
              for x in range(256))
        for byte in range(width // 8)
    )


#: ``_NIBBLE_PAIRS[x]`` is byte ``x`` split into ``(low, high)`` nibbles,
#: i.e. the S-box indices of the two segments the byte holds.
_NIBBLE_PAIRS: Tuple[Tuple[int, int], ...] = tuple(
    (x & 0xF, x >> 4) for x in range(256)
)


@secret_params("state")
def _sub_cells_inverse(state: int, width: int) -> int:
    result = 0
    for segment in range(width // 4):
        nibble = (state >> (4 * segment)) & 0xF
        result |= GIFT_SBOX_INV[nibble] << (4 * segment)
    return result


class TracedGiftCipher:
    """LUT-based GIFT that records every table load it performs.

    Functionally identical to :class:`repro.gift.cipher.GiftCipher`
    (cross-checked in the test suite); additionally produces the address
    stream used as the victim side of the cache-attack simulation.
    """

    def __init__(self, master_key: int, width: int, rounds: int,
                 layout: TableLayout = TableLayout()) -> None:
        if width not in (64, 128):
            raise ValueError(f"GIFT only defines 64- and 128-bit states, got {width}")
        if not 0 <= master_key < (1 << 128):
            raise ValueError("master key must be a 128-bit integer")
        if rounds < 1:
            raise ValueError(f"round count must be positive, got {rounds}")
        self.width = width
        self.rounds = rounds
        self.master_key = master_key
        self.layout = layout
        self._segments = width // 4
        self._scatter = _SCATTER_TABLES[width]
        self._fused_sbox_scatter = _FUSED_SBOX_SCATTER[width]
        self._fused_byte_scatter = _fused_byte_scatter(width)
        # Hoisted once per instance: the inverse permutation (decrypt
        # used to rebuild it per call) and the per-(index, segment)
        # load-address tables the traced path re-derived per access.
        self._inverse_permutation = inverse_permutation_for_width(width)
        self._sbox_address_table: Tuple[int, ...] = tuple(
            layout.sbox_addresses()
        )
        self._perm_address_table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(layout.perm_address(segment, nibble, self._segments)
                  for nibble in range(16))
            for segment in range(self._segments)
        )
        self._round_keys: List[Tuple[int, int]] = self.compute_round_keys()
        # Fused per-round injection masks: AddRoundKey's (U, V) expansion
        # XOR the round constant, folded into one full-state mask at key
        # setup.  Built *after* compute_round_keys() so key-schedule-
        # hardened subclasses feed their own keys in.
        self._inject_masks: Tuple[int, ...] = tuple(
            round_key_mask(u, v, width) ^ constant_mask(round_index, width)
            for round_index, (u, v) in enumerate(self._round_keys, start=1)
        )

    def compute_round_keys(self) -> List[Tuple[int, int]]:
        """Return the ``(U, V)`` round keys for all rounds.

        Subclasses override this to model key-schedule countermeasures
        (the paper's second proposed protection hardens UpdateKey).
        """
        return standard_round_keys(self.master_key, self.rounds, self.width)

    def encrypt(self, plaintext: int) -> int:
        """Encrypt one block on the trace-free fast path.

        Runs the same LUT round function as :meth:`encrypt_traced` —
        one fused S-box/scatter load per segment, then the precomputed
        ``(U, V, round-constant)`` injection mask — but never touches
        :class:`~repro.gift.trace.EncryptionTrace` or allocates
        :class:`~repro.gift.trace.MemoryAccess` records.  Proven
        ciphertext-identical to the traced path by the official vectors
        and the hypothesis sweeps in ``tests/gift/test_fast_path.py``.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        state = plaintext
        fused = self._fused_sbox_scatter
        inject = self._inject_masks
        segments = self._segments
        for round_index in range(self.rounds):
            permuted = 0
            for segment in range(segments):
                permuted |= fused[segment][(state >> (4 * segment)) & 0xF]
            state = permuted ^ inject[round_index]
        return state

    def decrypt(self, ciphertext: int) -> int:
        """Decrypt one block (not traced).

        GRINCH only ever observes encryptions, so no decryption address
        stream is modelled; the inverse rounds use the same round keys
        as :meth:`encrypt`, so key-schedule-hardened subclasses stay
        self-consistent.  The inverse permutation and the injection
        masks are the instance-level precomputed ones, not per-call
        rebuilds.
        """
        if not 0 <= ciphertext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        inverse_perm = self._inverse_permutation
        inject = self._inject_masks
        state = ciphertext
        for round_index in range(self.rounds, 0, -1):
            state = permute(state ^ inject[round_index - 1], inverse_perm)
            state = _sub_cells_inverse(state, self.width)
        return state

    def encrypt_traced(self, plaintext: int,
                       max_rounds: Optional[int] = None
                       ) -> EncryptionTrace:
        """Encrypt one block, recording all table loads.

        ``max_rounds`` bounds tracing (and computation) for experiments
        that only need the early rounds — running 28 full rounds per
        probe would dominate the Monte-Carlo sweeps for no extra
        information.  When bounded, ``ciphertext`` holds the state after
        ``max_rounds`` rounds rather than the real ciphertext.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        limit = self.rounds if max_rounds is None else max_rounds
        if not 1 <= limit <= self.rounds:
            raise ValueError(f"max_rounds must be in [1, {self.rounds}]")

        trace = EncryptionTrace(plaintext=plaintext, ciphertext=0)
        state = plaintext
        for round_index in range(1, limit + 1):
            state = self._sub_cells_traced(state, round_index, trace)
            state = self._perm_bits_traced(state, round_index, trace)
            state ^= self._inject_masks[round_index - 1]
        trace.ciphertext = state
        return trace

    def sbox_indices_by_round(self, plaintext: int, max_rounds: int
                              ) -> List[List[int]]:
        """Per-round S-box indices, without trace-object overhead.

        Semantically equal to reading the ``sbox`` accesses off
        :meth:`encrypt_traced` (asserted by the test suite); used by the
        attack's fast observation path, where the million-encryption
        sweeps of Table I cannot afford building
        :class:`~repro.gift.trace.MemoryAccess` records.

        Each round splits the state into bytes once: a nibble-pair
        table yields the two indices per byte, and the byte-fused
        scatter table advances the state with one load per byte.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        if not 1 <= max_rounds <= self.rounds:
            raise ValueError(f"max_rounds must be in [1, {self.rounds}]")
        pairs = _NIBBLE_PAIRS
        scatter = self._fused_byte_scatter
        size = self.width // 8
        indices_by_round: List[List[int]] = []
        state = plaintext
        for mask in self._inject_masks[:max_rounds]:
            data = state.to_bytes(size, "little")
            indices: List[int] = []
            for byte in data:
                indices += pairs[byte]
            indices_by_round.append(indices)
            state = sum(map(getitem, scatter, data)) ^ mask
        return indices_by_round

    @secret_params("state")
    def _sub_cells_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        # The state is key-dependent from round 2 on; the S-box load
        # below is the secret-indexed access GRINCH observes.
        result = 0
        addresses = self._sbox_address_table
        for segment in range(self._segments):
            index = (state >> (4 * segment)) & 0xF
            trace.append(
                MemoryAccess(
                    address=addresses[index],
                    round_index=round_index,
                    segment=segment,
                    table="sbox",
                    index=index,
                )
            )
            result |= GIFT_SBOX[index] << (4 * segment)
        return result

    @secret_params("state")
    def _perm_bits_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        result = 0
        addresses = self._perm_address_table
        for segment in range(self._segments):
            nibble = (state >> (4 * segment)) & 0xF
            trace.append(
                MemoryAccess(
                    address=addresses[segment][nibble],
                    round_index=round_index,
                    segment=segment,
                    table="perm",
                    index=segment * 16 + nibble,
                )
            )
            result |= self._scatter[segment][nibble]
        return result


class TracedGift64(TracedGiftCipher):
    """Traced LUT implementation of GIFT-64 (the paper's victim)."""

    def __init__(self, master_key: int, rounds: int = 28,
                 layout: TableLayout = TableLayout()) -> None:
        super().__init__(master_key, width=64, rounds=rounds, layout=layout)


class TracedGift128(TracedGiftCipher):
    """Traced LUT implementation of GIFT-128."""

    def __init__(self, master_key: int, rounds: int = 40,
                 layout: TableLayout = TableLayout()) -> None:
        super().__init__(master_key, width=128, rounds=rounds, layout=layout)
