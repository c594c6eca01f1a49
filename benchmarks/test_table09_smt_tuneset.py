"""Table 9: min/max/gmean IPC as % of the best static arm (SMT tune set).

Paper: DUCB gmean 98.6 > UCB 98.4 > ε-Greedy 97.8 > Periodic 97.2 >
Single 96.8 > Choi 94.5, with DUCB max 101.4 (above the oracle, thanks to
Hill-Climbing noise injection). We check: the bandits track the oracle
closely and DUCB is at or near the top.
"""

from conftest import scaled

from repro.experiments.figures import table09_smt_tuneset
from repro.experiments.reporting import format_summary_table
from repro.experiments.smt import SMTScale


SCALE = SMTScale(epoch_cycles=scaled(400), total_epochs=120,
                 step_epochs=2, step_epochs_rr=2)


def test_table09_smt_tuneset():
    result = table09_smt_tuneset(num_mixes=6, scale=SCALE)
    print()
    print(format_summary_table(
        result, title="Table 9: % of best-static-arm IPC (SMT fetch)"
    ))
    # Bandits land close to the best static arm on the gmean.
    assert result["DUCB"].gmean > 85.0
    assert result["UCB"].gmean > 85.0
    # DUCB within noise of the top of the lineup.
    best_gmean = max(summary.gmean for summary in result.values())
    assert result["DUCB"].gmean >= best_gmean - 5.0
