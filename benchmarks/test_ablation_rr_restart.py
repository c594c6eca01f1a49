"""Ablation: the §4.3 probabilistic round-robin restart (4-core runs).

The restart gives a core trapped by inter-core interference a chance to
re-evaluate all arms once the system has settled. We run the same 4-core
mix with and without the restart and report total IPC; at reproduction
scale the effect is small, so the assertion only requires the restart not
to hurt materially.
"""

from dataclasses import replace

from conftest import scaled

from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.prefetch import run_multicore_bandit
from repro.experiments.reporting import format_table
from repro.workloads.suites import spec_by_name


def run_ablation(trace_length):
    # A bandwidth-hungry homogeneous mix: maximal inter-core interference.
    spec = spec_by_name("lbm06")
    traces = [spec.trace(trace_length, seed=core) for core in range(4)]
    params = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=60,
                     gamma=0.98)
    with_restart, _ = run_multicore_bandit(
        traces, params=params, seed=0, rr_restart=True
    )
    without_restart, _ = run_multicore_bandit(
        traces, params=params, seed=0, rr_restart=False
    )
    return {"with_restart": with_restart, "without_restart": without_restart}


def test_ablation_rr_restart():
    result = run_ablation(scaled(6_000))
    print()
    print(format_table(
        ["configuration", "4-core total IPC"],
        [(name, f"{value:.3f}") for name, value in result.items()],
        title="Ablation: §4.3 round-robin restart under interference",
    ))
    assert result["with_restart"] > result["without_restart"] * 0.9
