"""Figure 2: temporal homogeneity of Pythia's action selections.

Paper: across SPEC traces, the most-selected Pythia action accounts for ~60 %
of selections and the second for ~15 % — 3 % of the action space covers 75 %
of decisions. We check the shape: a small number of actions dominates, and
the dominant action differs across applications.
"""

from conftest import scaled

from repro.experiments.figures import fig02_pythia_homogeneity
from repro.experiments.reporting import format_table


def test_fig02_pythia_homogeneity():
    result = fig02_pythia_homogeneity(trace_length=scaled(15_000))
    rows = [
        (name, f"{top1:.2f}", f"{top2:.2f}")
        for name, (top1, top2) in result.items()
    ]
    print()
    print(format_table(["workload", "top1", "top2"], rows,
                       title="Figure 2: top-2 Pythia action frequency"))
    top1_avg, top2_avg = result["average"]
    # Shape: the top action dominates well beyond uniform (1/64 ≈ 1.6 %).
    assert top1_avg > 0.15
    assert top1_avg >= top2_avg
    # Top-2 actions (3 % of the space) cover a large share of selections.
    assert top1_avg + top2_avg > 0.3
