"""The benchmark's four GRINCH workloads.

Each workload turns ``(workload, seed, index)`` into one operation's
inputs — a planted GIFT-64 master key and an attack seed — and runs one
operation on them: a complete, checked attack.  The program under test
receives only those generated keys and configurations.

All four attack GIFT-64 with 1-word cache lines (the default
:class:`~repro.core.config.AttackConfig` geometry).  Why each exists:

* ``fr-fast`` — the paper's headline full-key attack with every default
  (Flush+Reload, same-core L1, lossless, analytic fast path,
  ``batch_size=1``); the most-run configuration.
* ``watched`` — first-round attacks under a performance-counter
  defender, alternating E20's same-core cell and its mobile-SoC
  inclusive cell; the only workload that runs the cache simulator.
* ``lossy-batch`` — full-key recovery over a 10 % probe-miss channel
  with voting recovery and 16-encryption batches; the only workload
  that runs voting, loss and the bitsliced batch path.  Its voting is
  set stricter than the defaults (see :data:`LOSSY_CONFIG`) so that keys
  almost never fail (1 of about 3,400 seen): the default policy loses 1
  to 4 keys in 100 to a wrong accept or a stall, and a benchmark
  operation should not fail.
* ``record-replay`` — record a fast-path full-key attack, encode and
  decode the trace, replay it with no cipher; the only workload that
  writes and reads traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.cache.multilevel import InclusionPolicy
from repro.channel.defender import (
    DefenderObserver,
    DetectionPolicy,
    read_counters,
)
from repro.channel.degradation import LossyChannel
from repro.channel.observer import ObservationChannel
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.core.crosscore import make_cross_core_runner
from repro.core.errors import (
    BudgetExceeded,
    InconsistentObservation,
    KeyVerificationFailed,
    LowConfidenceError,
)
from repro.seeding import derive_key, derive_seed
from repro.targets.gift import standard_round_keys
from repro.targets.registry import get_target
from repro.trace import (
    RecordingVictim,
    ReplayVictim,
    TraceError,
    TraceHeader,
    TraceRecorder,
    dumps,
    loads,
)

#: Typed attack failures: counted by type, never abort the run.
ATTACK_FAILURES = (LowConfidenceError, BudgetExceeded,
                   InconsistentObservation, KeyVerificationFailed)

#: Statuses that mean the program returned a wrong answer.
INCORRECT = frozenset({"wrong_key", "replay_mismatch"})

OK = "ok"

GIFT64 = get_target("gift64")


@dataclass(frozen=True)
class OpInput:
    """One operation's generated inputs."""

    index: int
    key: int
    seed: int


@dataclass(frozen=True)
class Outcome:
    """What one operation did, as exact simulated counts.

    ``status`` is ``"ok"``, a typed failure's class name, ``"wrong_key"``
    or ``"replay_mismatch"``; ``windows`` sums the observation
    channels' ``encryptions_run``; ``hits``/``misses``/``evictions``
    are the cache substrate's own counters after the operation.
    """

    status: str
    encryptions: int
    windows: int
    defender_windows: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    trace_bytes: int = 0


def op_input(workload: str, seed: int, index: int) -> OpInput:
    """The inputs of operation ``index`` of a seeded run."""
    return OpInput(
        index=index,
        key=derive_key(128, "grinchbench", workload, seed, index),
        seed=derive_seed("grinchbench-attack", workload, seed, index),
    )


def warmup_input(workload: str, index: int) -> OpInput:
    """Seed-independent inputs for the set-up warm-up operations."""
    return op_input(workload, -1, index)


def _substrate(attack: GrinchAttack) -> Dict[str, int]:
    counters = read_counters(attack.runner.transport)
    return {"hits": counters.hits, "misses": counters.misses,
            "evictions": counters.evictions}


def _full_key(victim, config: AttackConfig, key: int) -> Outcome:
    attack = GrinchAttack(victim, config)
    try:
        result = attack.recover_master_key()
    except ATTACK_FAILURES as exc:
        return Outcome(type(exc).__name__, attack.total_encryptions,
                       attack.runner.encryptions_run, **_substrate(attack))
    status = OK if result.master_key == key else "wrong_key"
    return Outcome(status, result.total_encryptions,
                   attack.runner.encryptions_run, **_substrate(attack))


def run_fr_fast(op: OpInput) -> Outcome:
    return _full_key(GIFT64.make_victim(op.key), AttackConfig(seed=op.seed),
                     op.key)


#: ``lossy-batch``'s settings besides the seed.  Against the defaults,
#: the confidence bar (0.9995) and minimum sample (16) are raised to cut
#: wrong accepts, and the stall window (48) and re-craft allowance (2)
#: are widened so a slow segment re-crafts instead of giving up.
LOSSY_CONFIG = dict(loss=LossyChannel(miss_probability=0.1),
                    batch_size=16,
                    voting_confidence=0.999999,
                    voting_min_observations=32,
                    voting_stall_window=128,
                    max_segment_retries=32)


def run_lossy_batch(op: OpInput) -> Outcome:
    config = AttackConfig(seed=op.seed, **LOSSY_CONFIG)
    return _full_key(GIFT64.make_victim_batch(op.key), config, op.key)


#: E20's default detection thresholds (attacker misses / evictions
#: per window).
WATCH_POLICY = DetectionPolicy(max_attacker_misses=4, max_evictions=8)


def run_watched(op: OpInput) -> Outcome:
    victim = GIFT64.make_victim(op.key)
    config = AttackConfig(seed=op.seed)
    defender = DefenderObserver(WATCH_POLICY)
    if op.index % 2 == 0:
        runner = ObservationChannel(victim, config, defender=defender)
    else:
        runner = make_cross_core_runner(victim, config,
                                        InclusionPolicy.INCLUSIVE,
                                        policy="random", defender=defender)
    attack = GrinchAttack(victim, config, runner=runner)
    try:
        result = attack.attack_first_round()
    except ATTACK_FAILURES as exc:
        status, encryptions = type(exc).__name__, attack.total_encryptions
    else:
        estimate = result.outcome.estimate
        planted = standard_round_keys(op.key, 1, 64)[0]
        status = (OK if estimate.resolved
                  and estimate.as_round_key() == planted else "wrong_key")
        encryptions = result.encryptions
    return Outcome(status, encryptions, runner.encryptions_run,
                   defender_windows=defender.report().windows,
                   **_substrate(attack))


def run_record_replay(op: OpInput) -> Outcome:
    victim = GIFT64.make_victim(op.key)
    config = AttackConfig(seed=op.seed, max_total_encryptions=None)
    recorder = TraceRecorder(
        TraceHeader.for_victim("gift64", victim, config, scope="full-key"))
    recording = GrinchAttack(RecordingVictim(victim, recorder), config)
    try:
        recorded = recording.recover_master_key()
    except ATTACK_FAILURES as exc:
        return Outcome(type(exc).__name__, recording.total_encryptions,
                       recording.runner.encryptions_run)
    data = dumps(recorder.to_trace_file())
    replay = GrinchAttack(ReplayVictim(loads(data)), config)
    windows = recording.runner.encryptions_run
    try:
        replayed = replay.recover_master_key()
    except (TraceError, *ATTACK_FAILURES):
        status = "replay_mismatch"
    else:
        if ((replayed.master_key, replayed.total_encryptions)
                != (recorded.master_key, recorded.total_encryptions)):
            status = "replay_mismatch"
        elif recorded.master_key != op.key:
            status = "wrong_key"
        else:
            status = OK
    return Outcome(status, recorded.total_encryptions,
                   windows + replay.runner.encryptions_run,
                   trace_bytes=len(data), **_substrate(replay))


@dataclass(frozen=True)
class Workload:
    """A named operation and the size of its key pool.

    A run repeats passes over ``pool`` seeded operations; the pool is
    sized so one pass takes 9 to 18 seconds of a 20-second run.
    """

    name: str
    run: Callable[[OpInput], Outcome]
    pool: int
    warmup_ops: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fr-fast", run_fr_fast, pool=200),
        # Two warm-up operations: one per alternating cell.
        Workload("watched", run_watched, pool=48, warmup_ops=2),
        Workload("lossy-batch", run_lossy_batch, pool=60),
        Workload("record-replay", run_record_replay, pool=80),
    )
}
