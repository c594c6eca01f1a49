"""Figure 10: Pythia vs Bandit across available DRAM bandwidth.

Paper: Bandit matches Pythia at every bandwidth point and beats it by 2.5 %
at the most constrained point (150 MTPS) — without using any bandwidth
information in its reward, because aggressive arms simply stop paying off in
IPC. We check: Bandit ≥ Pythia at 150 MTPS, and both stay within a sane band
elsewhere.
"""

from conftest import scaled

from repro.experiments.figures import fig10_bandwidth_sweep
from repro.experiments.reporting import format_table
from repro.workloads.suites import tune_specs


def test_fig10_bandwidth_sweep():
    result = fig10_bandwidth_sweep(
        trace_length=scaled(10_000),
        workloads=tune_specs()[: scaled(8)],
    )
    rows = [
        (f"{int(mtps)} MTPS", f"{values['pythia']:.3f}",
         f"{values['bandit']:.3f}")
        for mtps, values in sorted(result.items())
    ]
    print()
    print(format_table(
        ["bandwidth", "pythia", "bandit"], rows,
        title="Figure 10: gmean IPC normalized to no-prefetching",
    ))
    # The headline crossover: Bandit ≥ Pythia when bandwidth is scarce.
    constrained = result[min(result)]
    assert constrained["bandit"] >= constrained["pythia"] * 0.99
    # At the constrained point neither should *hurt* much vs no-prefetch.
    assert constrained["bandit"] > 0.9
    # More bandwidth never makes the bandit's normalized IPC collapse.
    for values in result.values():
        assert values["bandit"] > 0.9
