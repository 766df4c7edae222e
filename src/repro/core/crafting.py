"""Algorithm 2 of the GRINCH paper: crafted plaintext generation.

For a round-1 target, the crafted plaintext *is* the constrained
round-1 input: the four source segments are drawn from their valid-input
lists (forcing the four target bits after SubCells/PermBits), every
other segment is random — exactly Algorithm 2, extended to four pinned
segments per Section III-C.

For deeper targets (Step 5, "Update Plaintext Generation") the attacker
builds the desired constrained state the same way and then inverts the
earlier rounds using the round keys recovered so far; for GIFT:

    input_r = S⁻¹(P⁻¹(input_{r+1} XOR RK_r XOR C_r))

The inversion is the cipher target's
:meth:`~repro.targets.CipherTarget.invert_rounds` — each registered
cipher knows how its own rounds unwind (PRESENT, for instance, XORs
its key *before* the S-box layer and has no state-side constants).

A wrong guess for a round key shows up as a constant XOR error on the
achieved constrained state; errors outside the four pinned segments land
in positions that were random anyway, which is why hypothesis testing
only needs to enumerate the candidates of the four source segments.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .target_bits import TargetSpec

#: Per segment, in ascending order: the nibble's shift and the
#: valid-input list it draws from (``None``: a uniform random nibble).
DrawPlan = Tuple[Tuple[int, Optional[Tuple[int, ...]]], ...]


def draw_plan(spec: TargetSpec) -> DrawPlan:
    """The per-segment draws of :func:`build_target_round_input`."""
    return tuple(
        (4 * segment, spec.valid_inputs.get(segment))
        for segment in range(spec.width // 4)
    )


def draw_from_plan(plan: DrawPlan, rng: random.Random) -> int:
    """One constrained state drawn along ``plan``: ``rng.choice`` for a
    pinned segment, ``rng.randrange(16)`` for a free one, in segment
    order."""
    state = 0
    for shift, choices in plan:
        if choices is None:
            state |= rng.randrange(16) << shift
        else:
            state |= rng.choice(choices) << shift
    return state


def build_target_round_input(spec: TargetSpec, rng: random.Random) -> int:
    """Draw one constrained target-round input for ``spec``.

    The pinned source segments take a random element of their
    valid-input list; the remaining segments take uniform random
    nibbles (Algorithm 2 lines 3-10).
    """
    return draw_from_plan(draw_plan(spec), rng)


class PlaintextCrafter:
    """Generates crafted plaintexts for one attack target.

    Parameters
    ----------
    spec:
        The target description from Algorithm 1.
    prior_round_keys:
        Keys of rounds ``1 .. t-1`` as known/hypothesised by the
        attacker (empty for a round-1 target), in the target's native
        round-key representation; held as a tuple.
    rng:
        Attacker randomness for segment choices.
    """

    def __init__(self, spec: TargetSpec,
                 prior_round_keys: Sequence,
                 rng: random.Random) -> None:
        if len(prior_round_keys) != spec.round_index - 1:
            raise ValueError(
                f"round-{spec.round_index} target needs "
                f"{spec.round_index - 1} prior round keys, "
                f"got {len(prior_round_keys)}"
            )
        self.spec = spec
        self.prior_round_keys = tuple(prior_round_keys)
        self._rng = rng
        self._plan = draw_plan(spec)
        self._invert = spec._target().invert_rounds

    def craft(self) -> int:
        """Return one crafted plaintext."""
        return self._invert(draw_from_plan(self._plan, self._rng),
                            self.prior_round_keys)

    def craft_many(self, count: int) -> List[int]:
        """Return ``count`` crafted plaintexts."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.craft() for _ in range(count)]
