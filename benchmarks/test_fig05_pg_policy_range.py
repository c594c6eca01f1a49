"""Figure 5: best/worst of the 64 fetch PG policies vs Choi per SMT mix.

Paper: different PG policies win in different mixes; picking a bad policy
loses > 40 % vs Choi; the best policy beats Choi on many mixes (by 13–30 %
for lbm mixes). We check the shape: a wide best-to-worst spread, best ≥ Choi,
and per-mix differences in which policy wins.
"""

from conftest import scaled

from repro.experiments.figures import fig05_pg_policy_range
from repro.experiments.reporting import format_table
from repro.experiments.smt import SMTScale


SCALE = SMTScale(epoch_cycles=scaled(300), total_epochs=40,
                 step_epochs=2, step_epochs_rr=2)


def test_fig05_pg_policy_range():
    result = fig05_pg_policy_range(num_mixes=3, scale=SCALE)
    rows = [
        (record["mix"], record["best_policy"],
         f"{record['best_vs_choi']:.2f}", f"{record['worst_vs_choi']:.2f}")
        for record in result
    ]
    print()
    print(format_table(
        ["mix", "best policy", "best/Choi", "worst/Choi"], rows,
        title="Figure 5: PG policy range relative to Choi (IC_1011)",
    ))
    for record in result:
        # The best of 64 policies is at least competitive with Choi...
        assert record["best_vs_choi"] >= 0.97
        # ...and a bad policy choice costs real performance.
        assert record["worst_vs_choi"] < record["best_vs_choi"] - 0.1
