"""Built-in experiment definitions: the ablations/extensions E6–E13.

Same declarative shape as :mod:`repro.engine.experiments`; these cover
the DESIGN.md ablation index — probing primitive (E6), analytic-model
validation (E7), replacement policy (E8), co-runner noise (E9), the
observation-channel taxonomy (E10), GIFT-128 (E11), the shared-L2
memory hierarchy (E12), and NoC contention (E13).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..analysis.reporting import format_table, render_series
from ..analysis.theory import expected_first_round_effort
from ..cache.geometry import CacheGeometry
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..channel import NoiseModel, ObservationChannel, SingleLevelTransport
from ..targets.gift import TracedGift64
from ..staticcheck import declassify
from .artifact import trial_summary
from .params import Param, spec
from .registry import CellPlan, Experiment, register
from ..seeding import derive_key


def _passthrough_finalize(params: Mapping[str, Any],
                          cell: Dict[str, Any],
                          trials: List[Any]) -> Dict[str, Any]:
    """Single-trial cells: hoist the trial dict into the cell record."""
    (payload,) = trials
    encryptions = payload.get("encryptions")
    summary = (trial_summary([float(encryptions)])
               if encryptions is not None else None)
    return {"cell": cell, "trials": trials, "summary": summary, **payload}


# ----------------------------------------------------------------------
# E6 — probing-primitive ablation
# ----------------------------------------------------------------------

_PROBE_SPEC = spec(
    Param("runs", "int", 2, "Monte-Carlo repetitions per strategy"),
    Param("seed", "int", 0, "base seed"),
)


def _probe_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"strategy": strategy}, trials=params["runs"])
            for strategy in ("flush_reload", "prime_probe")]


def _probe_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                 trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        probe_strategy=cell["strategy"],
        stall_window=200 if cell["strategy"] == "prime_probe" else 0,
        seed=seed,
        max_total_encryptions=None,
    )
    victim = TracedGift64(derive_key(128, seed))
    outcome = GrinchAttack(victim, config).attack_first_round()
    return {"encryptions": float(outcome.encryptions),
            "recovered_bits": outcome.recovered_bits}


def _probe_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                    trials: List[Any]) -> Dict[str, Any]:
    summary = trial_summary([t["encryptions"] for t in trials])
    return {
        "cell": cell,
        "trials": trials,
        "summary": summary,
        "encryptions": summary["mean"],
        "recovered": all(t["recovered_bits"] >= 16 for t in trials),
    }


def _probe_render(record: Dict[str, Any]) -> str:
    return format_table(
        "E6 — Probing primitive ablation (first-round attack)",
        ["Strategy", "Mean encryptions", "Key bits recovered"],
        [[c["cell"]["strategy"], f"{c['encryptions']:,.0f}",
          "yes" if c["recovered"] else "no"] for c in record["cells"]],
    )


register(Experiment(
    name="probe_ablation",
    experiment_id="E6",
    title="Probing primitive: Flush+Reload vs. Prime+Probe",
    spec=_PROBE_SPEC,
    plan=_probe_plan,
    trial=_probe_trial,
    finalize=_probe_finalize,
    render=_probe_render,
))


# ----------------------------------------------------------------------
# E7 — analytic model vs. Monte-Carlo simulation
# ----------------------------------------------------------------------

_THEORY_SPEC = spec(
    Param("cases", "int_pair_list", ((1, 1), (1, 2), (1, 3), (2, 1)),
          "validated (line_words, probing_round) configurations"),
    Param("runs", "int", 5, "Monte-Carlo repetitions per case"),
    Param("seed", "int", 3, "base seed"),
)


def _theory_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [
        CellPlan(cell={"line_words": line_words,
                       "probing_round": probing_round},
                 trials=params["runs"])
        for line_words, probing_round in params["cases"]
    ]


def _theory_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> float:
    config = AttackConfig(
        geometry=CacheGeometry(line_words=cell["line_words"]),
        probing_round=cell["probing_round"],
        seed=seed,
        max_total_encryptions=None,
    )
    victim = TracedGift64(derive_key(128, seed))
    return float(GrinchAttack(victim, config).attack_first_round()
                 .encryptions)


def _theory_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    summary = trial_summary(trials)
    predicted = expected_first_round_effort(
        cell["line_words"], cell["probing_round"], use_flush=True
    )
    measured = summary["mean"]
    return {
        "cell": cell,
        "trials": trials,
        "summary": summary,
        "predicted": predicted,
        "measured": measured,
        "relative_error": abs(predicted - measured) / measured,
    }


def _theory_render(record: Dict[str, Any]) -> str:
    return format_table(
        "E7 — Analytic effort model vs. Monte-Carlo simulation",
        ["Line words", "Probing round", "Predicted", "Measured",
         "Rel. error"],
        [[str(c["cell"]["line_words"]), str(c["cell"]["probing_round"]),
          f"{c['predicted']:,.0f}", f"{c['measured']:,.0f}",
          f"{c['relative_error']:.0%}"] for c in record["cells"]],
    )


register(Experiment(
    name="theory_validation",
    experiment_id="E7",
    title="Analytic effort model vs. simulation",
    spec=_THEORY_SPEC,
    plan=_theory_plan,
    trial=_theory_trial,
    finalize=_theory_finalize,
    render=_theory_render,
))


# ----------------------------------------------------------------------
# E8 — replacement-policy sensitivity
# ----------------------------------------------------------------------

_POLICY_SPEC = spec(
    Param("policies", "str", "lru,fifo,random",
          "comma-separated replacement policies"),
    Param("seed", "int", 6, "base seed"),
)


def _policy_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"policy": policy.strip()}, trials=1)
            for policy in params["policies"].split(",") if policy.strip()]


def _policy_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    # The policy only matters on the full-simulation path.  It must be
    # built into the channel's transport: the pre-channel runner held
    # its cache directly, and assigning `attack.runner.cache` (as this
    # trial once did) left the transport's LRU cache in the loop — the
    # lru/fifo/random cells were silently all measuring LRU.
    config = AttackConfig(seed=seed, use_fast_path=False,
                          max_total_encryptions=None)
    victim = TracedGift64(derive_key(128, seed))
    runner = ObservationChannel(
        victim, config,
        transport=SingleLevelTransport(config.geometry,
                                       policy=cell["policy"]),
    )
    attack = GrinchAttack(victim, config, runner=runner)
    outcome = attack.attack_first_round()
    return {"encryptions": float(outcome.encryptions),
            "recovered_bits": outcome.recovered_bits}


def _policy_render(record: Dict[str, Any]) -> str:
    return format_table(
        "E8 — replacement policy sensitivity",
        ["Policy", "Encryptions", "Bits recovered"],
        [[c["cell"]["policy"], f"{c['encryptions']:,.0f}",
          str(c["recovered_bits"])] for c in record["cells"]],
    )


register(Experiment(
    name="replacement_policy",
    experiment_id="E8",
    title="Replacement-policy sensitivity (LRU/FIFO/random)",
    spec=_POLICY_SPEC,
    plan=_policy_plan,
    trial=_policy_trial,
    finalize=_passthrough_finalize,
    render=_policy_render,
))


# ----------------------------------------------------------------------
# E9 — co-runner noise sensitivity
# ----------------------------------------------------------------------

_NOISE_SPEC = spec(
    Param("levels", "pair_list", ((0.0, 0), (0.2, 1), (0.5, 2), (0.8, 4)),
          "(touch probability, monitored touches) noise levels"),
    Param("runs", "int", 2, "Monte-Carlo repetitions per level"),
    Param("seed", "int", 5, "base seed"),
)


def _noise_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [
        CellPlan(cell={"touch_probability": probability,
                       "monitored_touches": touches},
                 trials=params["runs"])
        for probability, touches in params["levels"]
    ]


def _noise_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                 trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        seed=seed,
        noise=NoiseModel(
            touch_probability=cell["touch_probability"],
            monitored_touches=cell["monitored_touches"],
        ),
        max_total_encryptions=None,
    )
    victim = TracedGift64(derive_key(128, seed))
    outcome = GrinchAttack(victim, config).attack_first_round()
    return {"encryptions": float(outcome.encryptions),
            "recovered_bits": outcome.recovered_bits}


def _noise_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                    trials: List[Any]) -> Dict[str, Any]:
    summary = trial_summary([t["encryptions"] for t in trials])
    return {
        "cell": cell,
        "trials": trials,
        "summary": summary,
        "encryptions": summary["mean"],
        "recovered": all(t["recovered_bits"] == 32 for t in trials),
    }


def _noise_render(record: Dict[str, Any]) -> str:
    return format_table(
        "E9 — co-runner noise sensitivity (first-round attack)",
        ["P(noisy window)", "Touches/window", "Mean encryptions",
         "Recovered"],
        [[f"{c['cell']['touch_probability']:.1f}",
          str(c["cell"]["monitored_touches"]),
          f"{c['encryptions']:,.0f}",
          "yes" if c["recovered"] else "no"] for c in record["cells"]],
    )


register(Experiment(
    name="noise_sweep",
    experiment_id="E9",
    title="Co-runner noise sensitivity (Section IV-B1)",
    spec=_NOISE_SPEC,
    plan=_noise_plan,
    trial=_noise_trial,
    finalize=_noise_finalize,
    render=_noise_render,
))


# ----------------------------------------------------------------------
# E10 — observation-channel taxonomy
# ----------------------------------------------------------------------

_TAXONOMY_SPEC = spec(
    Param("segment", "int", 2, "target segment for the 2-bit recovery"),
    Param("seed", "int", 0, "base seed"),
    Param("timing_samples", "int", 3_000,
          "latency samples for the time-driven variant"),
)

_CHANNELS = ("access", "trace", "time")


def _taxonomy_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"channel": channel}, trials=1)
            for channel in _CHANNELS]


def _taxonomy_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                    trial_index: int, seed: int) -> Dict[str, Any]:
    from ..targets.gift import round_keys
    from ..variants import TimeDrivenAttack, TraceDrivenAttack

    # One shared victim key per sweep so all three channels answer the
    # same question; the per-channel seed still differs via the cell.
    planted = derive_key(128, "taxonomy", params["seed"])
    victim = TracedGift64(planted)
    segment = params["segment"]
    u1, v1 = round_keys(planted, 1, width=64)[0]
    truth = ((v1 >> segment) & 1, (u1 >> segment) & 1)

    channel = cell["channel"]
    if channel == "access":
        outcome = GrinchAttack(victim, AttackConfig(seed=seed)) \
            .attack_first_round().outcome.segments[segment]
        pairs = outcome.key_pairs
        observes = "resident cache lines"
    elif channel == "trace":
        outcome = TraceDrivenAttack(victim, seed=seed) \
            .recover_segment(segment)
        pairs = outcome.key_pairs
        observes = "victim hit/miss sequence"
    else:
        outcome = TimeDrivenAttack(victim, seed=seed) \
            .recover_segment(segment, samples=params["timing_samples"])
        pairs = outcome.key_pairs
        observes = "window latency only"
    return {
        "encryptions": outcome.encryptions,
        "observes": observes,
        "correct": declassify(truth in tuple(pairs)),
    }


def _taxonomy_render(record: Dict[str, Any]) -> str:
    labels = {"access": "access-driven (GRINCH)",
              "trace": "trace-driven", "time": "time-driven"}
    return format_table(
        f"E10 — observation-channel taxonomy (2 key bits, segment "
        f"{record['params']['segment']})",
        ["Channel", "Encryptions", "Observes"],
        [[labels[c["cell"]["channel"]], str(c["encryptions"]),
          c["observes"]] for c in record["cells"]],
    )


register(Experiment(
    name="taxonomy",
    experiment_id="E10",
    title="Access- vs. trace- vs. time-driven recovery",
    spec=_TAXONOMY_SPEC,
    plan=_taxonomy_plan,
    trial=_taxonomy_trial,
    finalize=_passthrough_finalize,
    render=_taxonomy_render,
))


# ----------------------------------------------------------------------
# E11 — GRINCH on GIFT-128
# ----------------------------------------------------------------------

_GIFT128_SPEC = spec(
    Param("runs", "int", 1, "number of random victim keys"),
    Param("seed", "int", 0, "base seed"),
)


def _gift128_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    return [CellPlan(cell={}, trials=params["runs"])]


def _gift128_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                   trial_index: int, seed: int) -> Dict[str, Any]:
    from ..targets.gift import TracedGift128

    planted = derive_key(128, seed)
    victim = TracedGift128(planted)
    result = GrinchAttack(victim, AttackConfig(seed=seed)) \
        .recover_master_key()
    return {
        "encryptions": result.total_encryptions,
        "recovered": declassify(result.master_key == planted),
    }


def _gift128_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                      trials: List[Any]) -> Dict[str, Any]:
    return {
        "cell": cell,
        "trials": trials,
        "summary": trial_summary([t["encryptions"] for t in trials]),
        "all_recovered": all(t["recovered"] for t in trials),
    }


def _gift128_render(record: Dict[str, Any]) -> str:
    summary = record["cells"][0]["summary"]
    return render_series(
        f"E11 — GRINCH on GIFT-128 ({record['params']['runs']} random "
        f"keys, all recovered: {record['cells'][0]['all_recovered']})",
        ["mean encryptions", "min", "max"],
        [summary["mean"], summary["min"], summary["max"]],
    )


register(Experiment(
    name="gift128",
    experiment_id="E11",
    title="GRINCH on GIFT-128 (NIST-LWC variant)",
    spec=_GIFT128_SPEC,
    plan=_gift128_plan,
    trial=_gift128_trial,
    finalize=_gift128_finalize,
    render=_gift128_render,
))


# ----------------------------------------------------------------------
# E12 — memory-hierarchy effect (paper future work)
# ----------------------------------------------------------------------

_HIERARCHY_SPEC = spec(
    Param("seed", "int", 41, "base seed"),
    Param("blind_segment_budget", "int", 500,
          "per-segment budget for the expected-to-fail exclusive case"),
)

_HIERARCHY_CONFIGS = ("baseline", "inclusive", "exclusive")


def _hierarchy_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"configuration": name}, trials=1)
            for name in _HIERARCHY_CONFIGS]


def _hierarchy_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                     trial_index: int, seed: int) -> Dict[str, Any]:
    from ..cache.multilevel import InclusionPolicy
    from ..core.crosscore import make_cross_core_runner
    from ..core.errors import AttackError

    # One planted key per sweep: the three configurations must answer
    # for the same victim.
    planted = derive_key(128, "hierarchy", params["seed"])
    victim = TracedGift64(planted)
    configuration = cell["configuration"]

    if configuration == "baseline":
        result = GrinchAttack(victim, AttackConfig(seed=seed)) \
            .recover_master_key()
        return {
            "encryptions": result.total_encryptions,
            "recovered": declassify(result.master_key == planted),
            "outcome": "key recovered",
        }
    if configuration == "inclusive":
        config = AttackConfig(seed=seed, max_total_encryptions=None)
        result = GrinchAttack(
            victim, config,
            runner=make_cross_core_runner(victim, config,
                                          InclusionPolicy.INCLUSIVE),
        ).recover_master_key()
        return {
            "encryptions": result.total_encryptions,
            "recovered": declassify(result.master_key == planted),
            "outcome": "key recovered",
        }
    blind_config = AttackConfig(
        seed=seed,
        max_encryptions_per_segment=params["blind_segment_budget"],
        max_total_encryptions=None,
    )
    try:
        GrinchAttack(
            victim, blind_config,
            runner=make_cross_core_runner(victim, blind_config,
                                          InclusionPolicy.EXCLUSIVE),
        ).recover_master_key()
    except AttackError as error:
        return {
            "encryptions": None,
            "recovered": False,
            "outcome": f"attack fails ({type(error).__name__})",
        }
    return {
        "encryptions": None,
        "recovered": True,
        "outcome": "KEY RECOVERED (unexpected)",
    }


def _hierarchy_render(record: Dict[str, Any]) -> str:
    labels = {
        "baseline": "single shared L1 (paper setup)",
        "inclusive": "cross-core, inclusive shared L2",
        "exclusive": "cross-core, exclusive shared L2",
    }
    rows = []
    for cell in record["cells"]:
        outcome = cell["outcome"]
        if cell["encryptions"] is not None:
            outcome = f"{outcome}, {cell['encryptions']} encryptions"
        rows.append([labels[cell["cell"]["configuration"]], outcome])
    return format_table(
        "E12 — memory hierarchy (paper future work)",
        ["Configuration", "Outcome"],
        rows,
    )


register(Experiment(
    name="memory_hierarchy",
    experiment_id="E12",
    title="Cross-core GRINCH through a shared L2",
    spec=_HIERARCHY_SPEC,
    plan=_hierarchy_plan,
    trial=_hierarchy_trial,
    finalize=_passthrough_finalize,
    render=_hierarchy_render,
))


# ----------------------------------------------------------------------
# E13 — NoC contention sensitivity
# ----------------------------------------------------------------------

_NOC_SPEC = spec(
    Param("traffic_intervals", "int_list", (0, 200, 24, 8),
          "victim packet injection periods in cycles (0 = idle)"),
    Param("frequency_mhz", "int", 50, "MPSoC clock in MHz"),
    Param("probes", "int", 64, "attacker probes per measurement"),
)


def _noc_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"traffic_interval_cycles": interval}, trials=1)
            for interval in params["traffic_intervals"]]


def _noc_trial(params: Mapping[str, Any], cell: Dict[str, Any],
               trial_index: int, seed: int) -> Dict[str, Any]:
    from ..soc import ClockDomain, measure_probe_contention

    report = measure_probe_contention(
        ClockDomain(params["frequency_mhz"] * 1e6),
        traffic_interval_cycles=cell["traffic_interval_cycles"],
        probes=params["probes"],
    )
    return {
        "mean_round_trip_s": report.mean_round_trip_s,
        "worst_round_trip_s": report.worst_round_trip_s,
        "slowdown": report.slowdown,
        "probes_completed": report.probes_completed,
    }


def _noc_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                  trials: List[Any]) -> Dict[str, Any]:
    (payload,) = trials
    return {"cell": cell, "trials": trials, "summary": None, **payload}


def _noc_render(record: Dict[str, Any]) -> str:
    rows = []
    for cell in record["cells"]:
        interval = cell["cell"]["traffic_interval_cycles"]
        label = "idle" if interval == 0 else f"1 read / {interval} cycles"
        rows.append([
            label,
            f"{cell['mean_round_trip_s'] * 1e9:.0f} ns",
            f"{cell['worst_round_trip_s'] * 1e9:.0f} ns",
            f"x{cell['slowdown']:.2f}",
        ])
    return format_table(
        f"E13 — NoC contention on attacker probes "
        f"({record['params']['frequency_mhz']} MHz MPSoC)",
        ["Victim traffic", "Mean round trip", "Worst", "Slowdown"],
        rows,
    )


register(Experiment(
    name="noc_contention",
    experiment_id="E13",
    title="Attacker probe latency under victim NoC traffic",
    spec=_NOC_SPEC,
    plan=_noc_plan,
    trial=_noc_trial,
    finalize=_noc_finalize,
    render=_noc_render,
))
