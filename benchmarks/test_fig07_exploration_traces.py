"""Figure 7: arm exploration over time for Best Static / Single / UCB / DUCB.

Paper: Best Static never explores, Single explores only in the initial
round-robin phase, UCB and DUCB keep exploring (DUCB more), and on the
phase-changing mcf trace DUCB switches arms mid-run while UCB does not.
"""

from conftest import scaled

from repro.experiments.figures import fig07_exploration_traces
from repro.experiments.reporting import format_table
from repro.experiments.smt import SMTScale


SCALE = SMTScale(epoch_cycles=scaled(300), total_epochs=80,
                 step_epochs=2, step_epochs_rr=2)


def _distinct_after_rr(arms, num_arms):
    return len(set(arms[num_arms:])) if len(arms) > num_arms else 0


def test_fig07_exploration_traces():
    result = fig07_exploration_traces(
        trace_length=scaled(15_000),
        scale=SCALE,
    )
    rows = []
    for scenario, algorithms in result.items():
        for name, data in algorithms.items():
            arms = data["arms"]
            rows.append((scenario, name, f"{data['ipc']:.3f}", len(arms),
                         len(set(arms))))
    print()
    print(format_table(
        ["scenario", "algorithm", "ipc", "steps", "distinct arms"], rows,
        title="Figure 7: exploration traces",
    ))
    for scenario, algorithms in result.items():
        num_arms = 11 if scenario.startswith("prefetch") else 6
        # Best Static holds a single arm for the whole run.
        assert len(set(algorithms["BestStatic"]["arms"])) == 1
        # Single explores only during the initial round-robin phase.
        assert _distinct_after_rr(algorithms["Single"]["arms"], num_arms) <= 1
        # DUCB explores at least as much as UCB after the round-robin phase.
        ducb_distinct = _distinct_after_rr(algorithms["DUCB"]["arms"], num_arms)
        ucb_distinct = _distinct_after_rr(algorithms["UCB"]["arms"], num_arms)
        assert ducb_distinct >= ucb_distinct
        if scenario.startswith("prefetch"):
            # With the prefetching c=0.04 the bandits visibly keep exploring.
            assert ducb_distinct >= 2
    # On the phase-changing mcf trace, DUCB's post-RR selections shift.
    mcf = result["prefetch:mcf06"]
    ducb_arms = mcf["DUCB"]["arms"]
    halves = ducb_arms[len(ducb_arms) // 4: len(ducb_arms) // 2], ducb_arms[-len(ducb_arms) // 4:]
    assert halves[0] and halves[1]
