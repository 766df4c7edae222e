"""E18 — attacks re-run from recorded traces (the L0 replay source).

``trace_replay`` pushes each trace of the committed golden corpus (or
any trace files named via ``--set traces=...``) through the unchanged
observer + attack pipeline with a
:class:`~repro.trace.ReplayVictim` as the only "victim" — no cipher
in the loop — and checks the outcome against the metadata the
recording stamped: same recovered key, same encryption count, same
verification verdict.  This is the engine-facing face of the replay
channel: a regression harness proving that pipeline changes do not
silently alter what the attack extracts from a fixed observation
stream.

Each cell carries the trace file's SHA-256 alongside its path, so the
content-addressed result cache invalidates whenever a corpus file is
regenerated, not only when the code changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, List, Mapping

from ..analysis.reporting import format_table
from ..channel.degradation import LossyChannel
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..staticcheck import declassify
from ..trace import ReplayVictim, TraceHeader, read_binary
from .artifact import trial_summary
from .params import Param, spec
from .registry import CellPlan, Experiment, register

#: The committed golden corpus, relative to the repository root.
DEFAULT_TRACES = (
    "tests/corpus/gift64-seed0-first.grtr",
    "tests/corpus/gift64-seed0-full.grtr",
    "tests/corpus/gift64-seed0-miss20-full.grtr",
    "tests/corpus/present80-seed0-first.grtr",
    "tests/corpus/present80-seed0-full.grtr",
)

_REPLAY_SPEC = spec(
    Param("traces", "str", ",".join(DEFAULT_TRACES),
          "comma-separated trace files to replay (repo-relative)"),
)


def _repo_root() -> Path:
    # src/repro/engine/replay.py -> src/repro/engine -> src/repro
    # -> src -> repo root.
    return Path(__file__).resolve().parents[3]


def _resolve(path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_absolute():
        path = _repo_root() / path
    return path


def config_from_header(header: TraceHeader) -> AttackConfig:
    """The attack configuration a trace header describes.

    Mirrors the trace CLI's mapping so a replayed attack re-derives
    the recorded crafting stream exactly — including the lossy-channel
    parameters a degraded recording stamps into the header meta, which
    select the same voting recovery (and the same derived degradation
    RNG streams) on replay.
    """
    return AttackConfig(
        geometry=header.geometry,
        layout=header.layout,
        probing_round=header.probing_round,
        use_flush=header.use_flush,
        probe_strategy=header.probe_strategy,
        stall_window=(200 if header.probe_strategy == "prime_probe"
                      else 0),
        seed=header.seed,
        loss=LossyChannel(
            miss_probability=float(header.meta.get("miss_probability",
                                                   0.0)),
            eviction_rate=float(header.meta.get("eviction_rate", 0.0)),
        ),
        max_total_encryptions=None,
    )


def _replay_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    plans = []
    for path_text in str(params["traces"]).split(","):
        path_text = path_text.strip()
        if not path_text:
            continue
        path = _resolve(path_text)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        header = read_binary(path).header
        plans.append(CellPlan(
            cell={
                "trace": path_text,
                "sha256": digest,
                "target": header.target,
                "scope": header.meta.get("scope", "full-key"),
            },
            trials=1,
        ))
    if not plans:
        raise ValueError("traces must name at least one trace file")
    return plans


def _replay_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    trace = read_binary(_resolve(cell["trace"]))
    header = trace.header
    meta = header.meta
    victim = ReplayVictim(trace)
    attack = GrinchAttack(victim, config_from_header(header))
    if cell["scope"] == "full-key":
        result = attack.recover_master_key()
        recorded_key = meta.get("master_key")
        key_matches = (recorded_key is not None
                       and int(recorded_key, 16) == result.master_key)
        return {
            "recovered": declassify(key_matches),
            "verified": result.verified,
            "encryptions": result.total_encryptions,
            "matches_recording": declassify(
                key_matches
                and result.total_encryptions
                == meta.get("total_encryptions")
                and result.verified == bool(meta.get("recovered"))
            ),
            "windows_left": victim.remaining,
        }
    result = attack.attack_first_round()
    return {
        "recovered": declassify(
            result.recovered_bits == meta.get("recovered_bits")
        ),
        "verified": None,
        "encryptions": result.encryptions,
        "matches_recording": declassify(
            result.encryptions == meta.get("total_encryptions")
            and result.recovered_bits == meta.get("recovered_bits")
        ),
        "windows_left": victim.remaining,
    }


def _replay_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    trial = trials[0]
    return {
        "cell": cell,
        "trials": trials,
        "summary": trial_summary([float(t["encryptions"])
                                  for t in trials]),
        **trial,
    }


def _replay_summarize(params: Mapping[str, Any],
                      cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "traces": len(cells),
        "all_recovered": all(c["recovered"] for c in cells),
        "all_match_recording": all(c["matches_recording"] for c in cells),
    }


def _replay_render(record: Dict[str, Any]) -> str:
    rows = []
    for cell in record["cells"]:
        rows.append([
            Path(cell["cell"]["trace"]).name,
            cell["cell"]["scope"],
            str(cell["encryptions"]),
            "yes" if cell["recovered"] else "NO",
            "yes" if cell["matches_recording"] else "NO",
        ])
    return format_table(
        "E18 — Replayed attacks from the golden-trace corpus",
        ["Trace", "Scope", "Encryptions", "Recovered", "Matches"],
        rows,
    )


register(Experiment(
    name="trace_replay",
    experiment_id="E18",
    title="Golden-trace replay: the full attack re-run from recorded "
          "observations, no cipher in the loop",
    spec=_REPLAY_SPEC,
    plan=_replay_plan,
    trial=_replay_trial,
    finalize=_replay_finalize,
    summarize=_replay_summarize,
    render=_replay_render,
    aliases=("trace-replay", "replay", "e18"),
))
