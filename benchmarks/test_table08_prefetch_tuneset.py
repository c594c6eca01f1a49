"""Table 8: min/max/gmean IPC as % of the best static arm (prefetch tune set).

Paper: DUCB gmean 99.1 > UCB 98.8 > Pythia 98.4 > ε-Greedy 97.3 > Single
96.5 > Periodic 94.1; DUCB has the best min (95.0). We check the ordering
shape: DUCB/UCB lead, DUCB's worst case beats Single's, and every bandit has
max near or above the oracle.
"""

from conftest import scaled

from repro.experiments.figures import table08_prefetch_tuneset
from repro.experiments.reporting import format_summary_table
from repro.workloads.suites import tune_specs


def test_table08_prefetch_tuneset():
    workloads = tune_specs()[: scaled(8)]
    result = table08_prefetch_tuneset(
        trace_length=scaled(12_000),
        workloads=workloads,
    )
    print()
    print(format_summary_table(
        result, title="Table 8: % of best-static-arm IPC (prefetching)"
    ))
    # Shape checks matching the paper's ordering claims.
    assert result["DUCB"].gmean >= result["eGreedy"].gmean - 0.5
    assert result["DUCB"].gmean >= result["Periodic"].gmean - 0.5
    assert result["UCB"].gmean >= result["eGreedy"].gmean - 0.5
    # DUCB's worst case is better than Single's one-shot worst case.
    assert result["DUCB"].minimum >= result["Single"].minimum - 1.0
    # Every algorithm's best case approaches the oracle.
    for summary in result.values():
        assert summary.maximum > 85.0
