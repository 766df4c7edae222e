"""Attack configuration.

One :class:`AttackConfig` captures everything the GRINCH experiments
sweep: cache geometry (Table I), the probing round and the mid-run flush
(Fig. 3), the probing primitive (Section III-C, step 2), and the
simulation budgets that realise the paper's ">1M encryptions" drop-out
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cache.geometry import CacheGeometry
from ..channel.degradation import LOSSLESS, NO_NOISE, LossyChannel, NoiseModel
from ..targets.layout import TableLayout

#: Probe primitive names accepted by :class:`AttackConfig`.
PROBE_STRATEGIES = ("flush_reload", "prime_probe", "flush_flush")

#: Candidate-recovery modes accepted by :class:`AttackConfig`.
RECOVERY_MODES = ("auto", "strict", "voting")


@dataclass(frozen=True)
class AttackConfig:
    """Parameters of one GRINCH attack run.

    Attributes
    ----------
    geometry:
        Shared-L1 shape; ``geometry.line_words`` is Table I's sweep axis.
    layout:
        Victim table placement in memory.
    probing_round:
        How many rounds of victim activity accumulate in the cache before
        the attacker can probe (Fig. 3's x-axis).  Probing round ``r``
        while attacking round ``t`` means the observation happens after
        round ``t + r`` completes.
    use_flush:
        Whether the attacker flushes the monitored lines right after
        round ``t`` (the paper's "Grinch with Flush" series).  Without
        it, rounds ``1..t`` contribute "dirty" accesses.
    probe_strategy:
        ``"flush_reload"`` (paper's choice), ``"prime_probe"``, or
        ``"flush_flush"`` (Gruss et al.'s stealthy flush-latency
        channel; see ``flush_flush_miss_probability``).
    flush_flush_miss_probability:
        Per-readout false-negative rate of the Flush+Flush signal (the
        flush-latency margin is small, so a present line is sometimes
        read as absent; scaled per cache set — see
        :class:`~repro.channel.primitive.FlushFlush`).  Ignored by the
        other primitives.  A positive value makes ``recovery="auto"``
        vote, exactly like a lossy channel.
    max_encryptions_per_segment:
        Per-segment convergence budget; exceeding it raises
        :class:`~repro.core.errors.BudgetExceeded`.
    max_total_encryptions:
        Optional whole-attack budget (Table I's 1M drop-out).
    confirmation_margin:
        Extra encryptions run after an elimination reaches a single
        candidate *while testing ambiguous hypotheses*.  A wrong
        hypothesis makes the target access vary, so its intersection
        only passes through size one transiently; the margin lets it
        fall to empty before the hypothesis is accepted.  ``None``
        (default) sizes the margin from the analytic line-absence
        probability so the false-accept chance per hypothesis is about
        ``exp(-confirmation_factor)``.  Unambiguous runs (1-word lines,
        i.e. all of Fig. 3 / Table I row one) skip the margin, matching
        the paper's effort accounting.
    confirmation_factor:
        Safety factor for the automatic margin (see above).
    stall_window:
        When positive, an elimination whose candidate set has been
        *unchanged* for this many consecutive observations while still
        holding 2-4 lines is accepted as stalled: the surviving lines'
        key-pair candidates are carried forward like the wide-cache-line
        ambiguity of Section III-D.  Needed for Prime+Probe, whose
        set-granular view suffers persistent false positives from the
        PermBits table (the reason the paper prefers Flush+Reload);
        ``0`` (default) disables stall acceptance.
    seed:
        Seed for the attacker's RNG (plaintext crafting choices).
    noise:
        Co-running process noise injected into each probe window
        (false positives only; the channel stays sound).
    loss:
        False-negative channel model (per-line signal misses, co-runner
        eviction, probe-round jitter) — see
        :class:`~repro.channel.degradation.LossyChannel`.  The default is the
        lossless channel the strict intersection assumes.
    recovery:
        Candidate-recovery mode: ``"strict"`` (monotone intersection,
        contradicts on any false negative), ``"voting"`` (frequency
        scoring, see :mod:`repro.core.voting`), or ``"auto"`` (default:
        voting iff ``loss`` is lossy — the configurable fallback to
        strict intersection at zero loss).
    voting_confidence:
        Confidence the voting recovery must reach before accepting a
        segment's line.  The default is deliberately strict: acceptance
        is sequential (the voter stops the first time the posterior
        crosses the bar), and a full GIFT-64 recovery makes 64 segment
        decisions, so the per-decision error must stay well below
        ``1 / segments`` for the end-to-end success rate to hold.
    voting_min_observations:
        Minimum probe windows before voting may decide.  Calibrated so
        a hot background line cannot fake the target on a small-sample
        fluke: at fewer than ~16 windows a background line running hot
        while the true line runs cold can clear both the posterior and
        the separation guard, and those early wrong accepts are exactly
        the ones that poison later rounds.
    voting_stall_window:
        Re-craft the segment's plaintext stream after this many
        consecutive observations without a confidence improvement.
        Vote counts are kept across re-crafts — the target line is
        fixed by the hypothesis, not the crafter's randomness.
    max_segment_retries:
        Re-craft attempts per segment before giving up with
        :class:`~repro.core.errors.LowConfidenceError` instead of
        returning a low-confidence (probably wrong) key.
    use_fast_path:
        Allow the accelerated observation path when it is provably
        equivalent to the full cache simulation (Flush+Reload with
        non-colliding tables); automatically ignored otherwise.
    batch_size:
        How many crafted plaintexts the attack loop hands to the
        observation channel per call.  ``1`` (default) reproduces the
        historic one-encryption-at-a-time loop exactly — including its
        RNG draw order and encryption counts.  Larger batches route
        through :meth:`~repro.channel.ObservationChannel.observe_batch`
        (vectorized when a bitsliced backend is available), at the cost
        that a segment decision landing mid-batch leaves the rest of
        that batch's encryptions charged: throughput is bought with a
        bounded amount of over-observation, never with different
        decisions.
    """

    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    layout: TableLayout = field(default_factory=TableLayout)
    probing_round: int = 1
    use_flush: bool = True
    probe_strategy: str = "flush_reload"
    flush_flush_miss_probability: float = 0.02
    max_encryptions_per_segment: int = 100_000
    max_total_encryptions: Optional[int] = 1_000_000
    confirmation_margin: Optional[int] = None
    confirmation_factor: float = 8.0
    stall_window: int = 0
    seed: Optional[int] = None
    noise: NoiseModel = NO_NOISE
    loss: LossyChannel = LOSSLESS
    recovery: str = "auto"
    voting_confidence: float = 0.9995
    voting_min_observations: int = 16
    voting_stall_window: int = 48
    max_segment_retries: int = 2
    use_fast_path: bool = True
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.probing_round < 1:
            raise ValueError(
                f"probing_round must be >= 1, got {self.probing_round}"
            )
        if self.probe_strategy not in PROBE_STRATEGIES:
            raise ValueError(
                f"probe_strategy must be one of {PROBE_STRATEGIES}, "
                f"got {self.probe_strategy!r}"
            )
        if not 0.0 <= self.flush_flush_miss_probability < 1.0:
            raise ValueError(
                f"flush_flush_miss_probability must be in [0, 1), "
                f"got {self.flush_flush_miss_probability}"
            )
        if self.max_encryptions_per_segment < 1:
            raise ValueError("max_encryptions_per_segment must be positive")
        if (self.max_total_encryptions is not None
                and self.max_total_encryptions < 1):
            raise ValueError("max_total_encryptions must be positive or None")
        if self.confirmation_margin is not None and self.confirmation_margin < 0:
            raise ValueError("confirmation_margin must be non-negative")
        if self.confirmation_factor <= 0:
            raise ValueError("confirmation_factor must be positive")
        if self.stall_window < 0:
            raise ValueError("stall_window must be non-negative")
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_MODES}, "
                f"got {self.recovery!r}"
            )
        if not 0.0 < self.voting_confidence < 1.0:
            raise ValueError("voting_confidence must be in (0, 1)")
        if self.voting_min_observations < 1:
            raise ValueError("voting_min_observations must be positive")
        if self.voting_stall_window < 1:
            raise ValueError("voting_stall_window must be positive")
        if self.max_segment_retries < 0:
            raise ValueError("max_segment_retries must be non-negative")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    @property
    def voting_active(self) -> bool:
        """Whether segments are recovered by voting instead of strict
        intersection (``"auto"`` votes exactly when the channel is
        lossy)."""
        if self.recovery == "voting":
            return True
        if self.recovery == "strict":
            return False
        if (self.probe_strategy == "flush_flush"
                and self.flush_flush_miss_probability > 0.0):
            # A noisy Flush+Flush readout loses genuine accesses just
            # like a lossy channel, so strict intersection would
            # contradict on it.
            return True
        return not self.loss.is_lossless

    @property
    def fast_path_applicable(self) -> bool:
        """Whether the accelerated observation path preserves semantics.

        The fast path skips the LRU machinery; that is exact only for
        the line-granular flush-based primitives (Flush+Reload and
        Flush+Flush: the channel's eviction guard accounts for the
        victim's own PermBits loads crowding a monitored set, and the
        readout noise applies identically on both paths) —
        Prime+Probe observes at set granularity where the PermBits
        table interferes, so it must run on the full simulator.
        """
        return (self.use_fast_path
                and self.probe_strategy in ("flush_reload", "flush_flush"))
