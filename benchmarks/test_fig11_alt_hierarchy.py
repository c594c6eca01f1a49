"""Figure 11: the Figure 8 lineup on an alternative cache hierarchy.

Paper: with L2 = 1 MB and LLC = 1.5 MB/core (Skylake-like sizes) and *no
retuning*, Bandit still leads: +9 % over Stride, +1.5 % over Bingo, +4.9 %
over MLOP, +0.2 % over Pythia. We check the same shape as Figure 8 on the
alternative hierarchy.
"""

from conftest import scaled

from repro.experiments.figures import fig11_alt_hierarchy
from repro.experiments.reporting import format_table


def test_fig11_alt_hierarchy():
    result = fig11_alt_hierarchy(trace_length=scaled(10_000))
    names = ["stride", "bingo", "mlop", "pythia", "bandit"]
    rows = [
        [suite] + [f"{result[suite][name]:.3f}" for name in names]
        for suite in result
    ]
    print()
    print(format_table(
        ["suite"] + names, rows,
        title="Figure 11: alt hierarchy (L2=1MB, LLC=1.5MB/core)",
    ))
    overall = result["all"]
    # Same shape as Figure 8, with no retuning for the new hierarchy.
    assert overall["bandit"] >= overall["bingo"]
    assert overall["bandit"] >= overall["mlop"]
    assert overall["bandit"] >= overall["pythia"] * 0.99
    assert overall["bandit"] >= overall["stride"] * 0.97
