"""The benchmark suite: what ``python -m repro perf`` measures.

Every Monte-Carlo trial the engine runs bottoms out in four hot paths,
each benchmarked here:

* the **cipher** — trace-free ``encrypt()`` vs. the traced LUT path
  that backs the observer's full path (``gift64_encrypt_untraced`` /
  ``gift64_encrypt_traced``, plus the GIFT-128 pair outside ``--quick``),
  and the bitsliced **batch path** (``gift64_encrypt_batch``, one op =
  :data:`_BATCH_BLOCKS` blocks through ``encrypt_batch``);
* the **observer fast path** — crafted-encryption line observations
  (``observer_fast_observations``);
* **crafting** — Algorithm 2's draws plus the Step-5 inversion through
  two known rounds, one crafted plaintext per op
  (``crafting_round3_plaintexts``);
* the **voting decision core** — per-window count updates
  (``voting_updates``);
* the **engine trial body** — one complete first-round attack, the
  unit Fig. 3 / Table I fan out (``engine_first_round_trial``);
* the **transport and the defender tap** — flush, victim and reload
  sweeps over the 16 monitored lines, on a bare transport
  (``transport_plain_ops``) and through a defender's tap inside an
  open window (``transport_watched_ops``).  The two are timed in
  alternating slices, so host drift cannot fake a ratio between them.

The regression gates are *ratios* between benches on the same machine,
so they hold on any hardware: the untraced cipher must stay at least
:data:`MIN_UNTRACED_OVER_TRACED` times faster than the traced path, the
bitsliced batch path must deliver at least
:data:`MIN_BATCH_OVER_UNTRACED` times the scalar untraced blocks/s
(``gift64_batch_over_untraced`` — the whole point of the batch-first
fabric), and the traced path must not silently rot — the
untraced/traced ratio may not grow past :data:`REGRESSION_HEADROOM`
times the ratio recorded in the trajectory file (a growing ratio means
traced got slower relative to the untraced anchor).  The defender tap
may cost at most :data:`MAX_DEFENDER_TAP_OVERHEAD` times the bare
transport (``defender_tap_overhead``, a ceiling rather than a floor).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from ..channel.defender import DefenderObserver
from ..channel.observer import ObservationChannel
from ..channel.transport import CacheTransport, SingleLevelTransport
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..core.crafting import PlaintextCrafter
from ..core.target_bits import set_target_bits
from ..core.voting import VotingEliminator, VotingPolicy
from ..targets.gift import TracedGift64, TracedGift128, round_keys
from ..seeding import derive_key, derive_rng
from .bench import BenchResult, measure, measure_interleaved

#: Hard gate: the trace-free cipher path must beat the traced path by
#: at least this factor (the traced path allocates ~900 MemoryAccess
#: records per GIFT-64 block; anything under 5x means the fast path
#: regressed into tracing work).
MIN_UNTRACED_OVER_TRACED: float = 5.0

#: Hard gate: the bitsliced batch path must encrypt blocks at least
#: this many times faster than the scalar untraced loop (measured as
#: ``encrypt_batch`` calls/s x :data:`_BATCH_BLOCKS` over untraced
#: ops/s; below 20x the vectorized fabric has regressed into
#: per-block work).
MIN_BATCH_OVER_UNTRACED: float = 20.0

#: Soft anchor: the untraced/traced ratio may not exceed the recorded
#: trajectory baseline by more than this factor (a growing ratio means
#: the traced path — which backs the observer's full path — got slower
#: relative to the untraced anchor).
REGRESSION_HEADROOM: float = 2.0

#: Hard gate: a transport under a defender's tap may run at most this
#: many times slower than the bare transport (the tap attributes
#: counters at role switches; per-operation snapshots cost ~15x).
MAX_DEFENDER_TAP_OVERHEAD: float = 1.5

#: Plaintexts cycled through the cipher/observer benches.
_PLAINTEXT_POOL: int = 256

#: Synthetic probe windows cycled through the voting bench.
_OBSERVATION_POOL: int = 512

#: Lines each transport bench sweeps (the 16 S-box lines a GIFT-64
#: attack monitors under 1-word lines).
_TAP_LINES: int = 16

#: Timing floor of the transport pair whatever ``min_seconds`` says:
#: the tap ceiling is a ratio of two ~40 us sweeps, and over 10 ms
#: samples one scheduler hiccup moves it by ~0.3x.
_TAP_MIN_SECONDS: float = 0.05

#: Blocks per ``encrypt_batch`` call in the batch cipher bench (one
#: bench op encrypts this many blocks; large enough to amortise the
#: pack/unpack ends of the bitsliced pipeline).
_BATCH_BLOCKS: int = 4096


@dataclass(frozen=True)
class PerfReport:
    """Everything one suite run produced, pre-artifact."""

    quick: bool
    seed: int
    results: List[BenchResult] = field(default_factory=list)

    def result(self, name: str) -> BenchResult:
        """Look one benchmark up by name."""
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(f"no benchmark named {name!r}")

    @property
    def ratios(self) -> Dict[str, float]:
        """The hardware-independent ratios the gates run on."""
        ratios: Dict[str, float] = {}
        for width in (64, 128):
            untraced = f"gift{width}_encrypt_untraced"
            traced = f"gift{width}_encrypt_traced"
            try:
                fast, slow = self.result(untraced), self.result(traced)
            except KeyError:
                continue
            if slow.ops_per_s > 0.0:
                ratios[f"gift{width}_untraced_over_traced"] = (
                    fast.ops_per_s / slow.ops_per_s
                )
            try:
                batch = self.result(f"gift{width}_encrypt_batch")
            except KeyError:
                continue
            if fast.ops_per_s > 0.0:
                # One batch op encrypts _BATCH_BLOCKS blocks, one
                # untraced op encrypts one — the ratio is blocks/s
                # over blocks/s.
                ratios[f"gift{width}_batch_over_untraced"] = (
                    batch.ops_per_s * _BATCH_BLOCKS / fast.ops_per_s
                )
        try:
            plain = self.result("transport_plain_ops")
            watched = self.result("transport_watched_ops")
        except KeyError:
            return ratios
        if watched.ops_per_s > 0.0:
            ratios["defender_tap_overhead"] = (
                plain.ops_per_s / watched.ops_per_s
            )
        return ratios


def check_gates(ratios: Dict[str, float],
                baseline_ratio: Optional[float] = None,
                *,
                min_ratio: float = MIN_UNTRACED_OVER_TRACED,
                min_batch_ratio: float = MIN_BATCH_OVER_UNTRACED,
                headroom: float = REGRESSION_HEADROOM) -> List[str]:
    """Evaluate the ratio gates; returns human-readable failures.

    ``baseline_ratio`` is the GIFT-64 untraced/traced ratio of the
    trajectory's most recent entry (``None`` on a first run): the new
    ratio must stay within ``headroom`` times it, bounding how much the
    traced path may regress relative to the untraced anchor.
    Batch-over-untraced ratios are gated against ``min_batch_ratio``
    instead of ``min_ratio``; ``defender_tap_overhead`` is a ceiling,
    gated against :data:`MAX_DEFENDER_TAP_OVERHEAD`.
    """
    failures: List[str] = []
    for name, ratio in sorted(ratios.items()):
        if name == "defender_tap_overhead":
            if ratio > MAX_DEFENDER_TAP_OVERHEAD:
                failures.append(
                    f"{name} = {ratio:.2f}x, above the "
                    f"{MAX_DEFENDER_TAP_OVERHEAD:.1f}x gate"
                )
            continue
        floor = (min_batch_ratio if name.endswith("_batch_over_untraced")
                 else min_ratio)
        if ratio < floor:
            failures.append(
                f"{name} = {ratio:.2f}x, below the {floor:.1f}x gate"
            )
    key = "gift64_untraced_over_traced"
    if baseline_ratio is not None and key in ratios:
        bound = baseline_ratio * headroom
        if ratios[key] > bound:
            failures.append(
                f"{key} = {ratios[key]:.2f}x exceeds {bound:.2f}x "
                f"({headroom:.1f}x the {baseline_ratio:.2f}x trajectory "
                f"baseline) — the traced path regressed"
            )
    return failures


# ----------------------------------------------------------------------
# Benchmark bodies
# ----------------------------------------------------------------------

def _cycled(values: List[int]) -> Callable[[], int]:
    cycle = itertools.cycle(values)
    return lambda: next(cycle)


def _cipher_benches(seed: int, quick: bool) -> List[Dict[str, object]]:
    from ..targets.gift import (
        BitslicedGift64,
        BitslicedGift128,
        numpy_available,
    )

    benches: List[Dict[str, object]] = []
    widths = (64,) if quick else (64, 128)
    for width in widths:
        victim_cls = TracedGift64 if width == 64 else TracedGift128
        key = derive_key(128, "perf-cipher", seed, width)
        victim = victim_cls(key)
        rng = derive_rng("perf-plaintexts", seed, width)
        pool = [rng.getrandbits(width) for _ in range(_PLAINTEXT_POOL)]
        draw = _cycled(pool)
        benches.append({
            "name": f"gift{width}_encrypt_untraced",
            "fn": (lambda victim=victim, draw=draw:
                   victim.encrypt(draw())),
        })
        benches.append({
            "name": f"gift{width}_encrypt_traced",
            "fn": (lambda victim=victim, draw=draw:
                   victim.encrypt_traced(draw())),
        })
        if numpy_available():
            backend_cls = (BitslicedGift64 if width == 64
                           else BitslicedGift128)
            backend = backend_cls(key)
            batch_rng = derive_rng("perf-batch-plaintexts", seed, width)
            batch_pool = [batch_rng.getrandbits(width)
                          for _ in range(_BATCH_BLOCKS)]
            benches.append({
                "name": f"gift{width}_encrypt_batch",
                "fn": (lambda backend=backend, batch_pool=batch_pool:
                       backend.encrypt_batch(batch_pool)),
            })
    return benches


def _observer_bench(seed: int) -> Dict[str, object]:
    config = AttackConfig(seed=seed)
    victim = TracedGift64(derive_key(128, "perf-observer", seed))
    channel = ObservationChannel(victim, config)
    assert channel.fast_path_active, "observer bench expects the fast path"
    rng = derive_rng("perf-observer-plaintexts", seed)
    draw = _cycled([rng.getrandbits(64) for _ in range(_PLAINTEXT_POOL)])
    return {
        "name": "observer_fast_observations",
        "fn": lambda: channel.observe(draw(), 1),
    }


def _crafting_bench(seed: int) -> Dict[str, object]:
    # A round-3 GIFT-64 target: every craft draws the constrained
    # state and inverts it through the two known earlier rounds.
    key = derive_key(128, "perf-crafting", seed)
    crafter = PlaintextCrafter(set_target_bits(3, 5),
                               round_keys(key, 2, 64),
                               derive_rng("perf-crafting-draws", seed))
    return {"name": "crafting_round3_plaintexts", "fn": crafter.craft}


def _voting_bench(seed: int) -> Dict[str, object]:
    # A 16-line universe (the paper's 1-byte-entry S-box under 1-word
    # lines) fed synthetic lossy windows: the target present at 80%,
    # three background lines drawn uniformly.
    universe = frozenset(range(16))
    rng = derive_rng("perf-voting", seed)
    windows: List[FrozenSet[int]] = []
    for _ in range(_OBSERVATION_POOL):
        lines = {0} if rng.random() < 0.8 else set()
        lines.update(rng.randrange(16) for _ in range(3))
        windows.append(frozenset(lines))
    voter = VotingEliminator(universe, VotingPolicy(expected_presence=0.8))
    draw = _cycled(windows)  # type: ignore[arg-type]
    return {
        "name": "voting_updates",
        "fn": lambda: voter.update(draw()),
    }


def _transport_benches() -> List[Dict[str, object]]:
    # One op = flush, victim and reload sweeps over the monitored
    # lines: the role pattern of one Flush+Reload window.  The watched
    # transport's window stays open, so the bench times the tap, not
    # window bookkeeping (and archives no windows, however many ops).
    geometry = AttackConfig().geometry
    addresses = [line * geometry.line_bytes for line in range(_TAP_LINES)]

    def sweep(transport: CacheTransport) -> None:
        for address in addresses:
            transport.flush_line(address)
        for address in addresses:
            transport.victim_access(address)
        for address in addresses:
            transport.access(address)

    plain = SingleLevelTransport(geometry)
    defender = DefenderObserver()
    watched = defender.watch(SingleLevelTransport(geometry))
    defender.begin_window("perf")
    return [
        {"name": "transport_plain_ops", "fn": lambda: sweep(plain)},
        {"name": "transport_watched_ops", "fn": lambda: sweep(watched)},
    ]


def _engine_trial_bench(seed: int) -> Dict[str, object]:
    # The trial body of the E1/E2 sweeps: a fresh first-round attack
    # per call (victim construction included, exactly as the engine
    # fans it out).
    config = AttackConfig(seed=seed)
    key = derive_key(128, "perf-trial", seed)

    def trial() -> None:
        GrinchAttack(TracedGift64(key), config).attack_first_round()

    return {"name": "engine_first_round_trial", "fn": trial}


def run_suite(*, quick: bool = False, seed: int = 0,
              min_seconds: Optional[float] = None,
              clock: Callable[[], float] = time.perf_counter
              ) -> PerfReport:
    """Run the full microbenchmark suite and return its report.

    ``--quick`` shrinks the per-bench timing floor and drops the
    GIFT-128 cipher pair; the gates are ratio-based, so the quick run
    is still authoritative for CI.  The transport pair is timed
    interleaved (see :func:`~repro.perf.bench.measure_interleaved`).
    """
    if min_seconds is None:
        min_seconds = 0.05 if quick else 0.4
    benches = _cipher_benches(seed, quick)
    benches.append(_observer_bench(seed))
    benches.append(_crafting_bench(seed))
    benches.append(_voting_bench(seed))
    benches.append(_engine_trial_bench(seed))
    results = [
        measure(bench["name"], bench["fn"],  # type: ignore[arg-type]
                min_seconds=min_seconds, clock=clock)
        for bench in benches
    ]
    results += measure_interleaved(
        [(bench["name"], bench["fn"])  # type: ignore[misc]
         for bench in _transport_benches()],
        min_seconds=max(min_seconds, _TAP_MIN_SECONDS), clock=clock,
    )
    return PerfReport(quick=quick, seed=seed, results=results)
