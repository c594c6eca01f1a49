"""Figure 12: multi-level (L1 + L2) prefetcher combinations.

Paper (gmean over no-prefetching): Stride_Stride +16 %, IPCP +24.5 %,
Stride_Pythia +24.8 %, Stride_Bandit +24.5 % — Bandit at L2 with a simple
stride at L1 matches the sophisticated multi-level designs. We check:
Stride_Bandit beats Stride_Stride and lands within a few percent of the
best combination.
"""

from conftest import scaled

from repro.experiments.figures import fig12_multilevel
from repro.experiments.reporting import format_table
from repro.workloads.suites import tune_specs


def test_fig12_multilevel():
    result = fig12_multilevel(
        trace_length=scaled(10_000),
        workloads=tune_specs()[: scaled(8)],
    )
    rows = [(name, f"{value:.3f}") for name, value in result.items()]
    print()
    print(format_table(
        ["configuration", "gmean vs no-prefetch"], rows,
        title="Figure 12: multi-level prefetcher combinations",
    ))
    # Stride_Bandit matches the sophisticated multi-level designs.
    assert result["stride_bandit"] >= result["ipcp"] * 0.98
    assert result["stride_bandit"] >= result["stride_pythia"] * 0.98
    best = max(result.values())
    assert result["stride_bandit"] >= best * 0.95
