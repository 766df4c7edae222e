"""E3 — Table II: the round each platform actually probes.

Regenerates both platform rows at 10/25/50 MHz and benchmarks the two
event-driven platform simulations.
"""

from repro.engine import render_record, run_experiment
from repro.soc import ClockDomain, MPSoC, SingleCoreSoC


def test_table2_regeneration(publish):
    """Regenerate Table II; the values match the paper exactly."""
    record = run_experiment("table2", use_cache=False)
    publish("table2_platform_probing", render_record(record))

    probed = {(c["cell"]["platform"], c["cell"]["frequency_mhz"]):
              c["probed_round"] for c in record["cells"]}
    assert probed == {
        ("single-core SoC", 10): 2, ("single-core SoC", 25): 4,
        ("single-core SoC", 50): 8,
        ("MPSoC", 10): 1, ("MPSoC", 25): 1, ("MPSoC", 50): 1,
    }


def test_single_core_simulation_benchmark(benchmark):
    report = benchmark(
        lambda: SingleCoreSoC(ClockDomain(25e6)).run_attack_window()
    )
    assert report.probed_round == 4


def test_mpsoc_simulation_benchmark(benchmark):
    report = benchmark(
        lambda: MPSoC(ClockDomain(50e6)).run_attack_window()
    )
    assert report.probed_round == 1
