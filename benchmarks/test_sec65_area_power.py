"""§6.5: Bandit storage/area/power and relative overhead on a 40-core CPU.

Paper: 88 B of tables (< 100 B), 0.00044 mm² and 0.11 mW per agent at 10 nm,
< 0.003 % of a 40-core Ice Lake in both area and power; comparator storage
Pythia 25.5 KB / MLOP 8 KB / Bingo 46 KB.
"""

from repro.experiments.figures import sec65_area_power
from repro.experiments.reporting import format_table


def test_sec65_area_power():
    result = sec65_area_power()
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ("storage (bytes)", result["storage_bytes"]),
            ("area (mm^2 @10nm)", f"{result['area_mm2']:.6f}"),
            ("power (mW @10nm)", f"{result['power_mw']:.3f}"),
            ("area % of Ice Lake 40C",
             f"{100 * result['area_fraction_of_icelake']:.5f}"),
            ("power % of Ice Lake 40C",
             f"{100 * result['power_fraction_of_icelake']:.5f}"),
        ],
        title="Section 6.5: Bandit hardware cost",
    ))
    comparison = result["storage_comparison"]
    print(format_table(
        ["design", "storage (bytes)"], sorted(comparison.items()),
        title="Storage comparison (§7.2.1)",
    ))
    assert result["storage_bytes"] < 100
    assert result["area_fraction_of_icelake"] < 0.00003
    assert result["power_fraction_of_icelake"] < 0.00003
    assert comparison["pythia"] > 250 * comparison["bandit"]
