"""Figure 13: Bandit vs the Choi policy over 2-thread SPEC17-like mixes.

Paper: Bandit beats Choi by 2.2 % gmean (and plain ICount by 7 %); it wins
by > 4 % on 36/226 mixes (up to +36 %) and loses by > 4 % on only 6. We
check: gmean ≥ ~parity with Choi, clear wins exist, big wins outnumber big
losses, and Bandit handily beats plain ICount.
"""

from conftest import scaled

from repro.experiments.figures import fig13_smt_bandit_vs_choi
from repro.experiments.reporting import format_table
from repro.experiments.smt import SMTScale


SCALE = SMTScale(epoch_cycles=scaled(500), total_epochs=400,
                 step_epochs=2, step_epochs_rr=2)


def test_fig13_smt_bandit_vs_choi():
    result = fig13_smt_bandit_vs_choi(num_mixes=10, scale=SCALE)
    ratios = result["ratios_sorted"]
    rows = [(index, f"{ratio:.3f}") for index, ratio in enumerate(ratios)]
    print()
    print(format_table(
        ["mix (sorted)", "Bandit IPC / Choi IPC"], rows,
        title="Figure 13: Bandit vs Choi, sorted ascending",
    ))
    print(f"gmean vs Choi:   {result['gmean_vs_choi']:.3f}")
    print(f"gmean vs ICount: {result['gmean_vs_icount']:.3f}")
    # Bandit at or above Choi overall (paper: +2.2 %).
    assert result["gmean_vs_choi"] > 0.99
    # Clear wins exist and outnumber clear losses.
    assert result["wins_over_4pct"] >= 1
    assert result["wins_over_4pct"] >= result["losses_over_4pct"]
    # Bandit far ahead of plain ICount (paper: +7 %).
    assert result["gmean_vs_icount"] > 1.05
