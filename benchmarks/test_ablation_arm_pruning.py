"""Ablation: SMT arm pruning (64 PG policies → the 6 Table 1 arms, §6.3).

The paper prunes the bandit's arms to 6 because that subset achieves
performance "very close to the best static performance of all 64 possible
fetch PG policies" on the tune set. We verify: the best of the 6 pruned
arms is within a few percent of the best of all 64 policies per mix.
"""

from conftest import scaled

from repro.experiments.reporting import format_table
from repro.experiments.smt import SMTScale, run_smt_static
from repro.smt.pg_policy import ALL_PG_POLICIES, BANDIT_PG_ARMS
from repro.workloads.smt import smt_tune_mixes


SCALE = SMTScale(epoch_cycles=scaled(300), total_epochs=40,
                 step_epochs=2, step_epochs_rr=2)


def run_ablation(num_mixes):
    out = []
    for mix in smt_tune_mixes()[:num_mixes]:
        best_pruned = max(
            run_smt_static(mix, policy, SCALE).ipc
            for policy in BANDIT_PG_ARMS
        )
        best_all = max(
            run_smt_static(mix, policy, SCALE).ipc
            for policy in ALL_PG_POLICIES
        )
        out.append((f"{mix[0].name}-{mix[1].name}", best_pruned, best_all))
    return out


def test_ablation_arm_pruning():
    result = run_ablation(2)
    print()
    print(format_table(
        ["mix", "best of 6 arms", "best of 64 policies", "ratio"],
        [(name, f"{pruned:.3f}", f"{full:.3f}", f"{pruned / full:.3f}")
         for name, pruned, full in result],
        title="Ablation: 64 → 6 arm pruning (§6.3)",
    ))
    for _, pruned, full in result:
        assert pruned >= full * 0.93
