"""Ablation: bandit step length sensitivity (Table 6 sets 1,000 L2 accesses).

Too short a step makes the IPC reward noisy; too long a step starves the
agent of learning opportunities. We sweep the step length on a streaming
trace and report IPC, expecting an interior plateau: the mid steps should
not be materially worse than the extremes.
"""

from dataclasses import replace

from conftest import scaled

from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.prefetch import run_bandit_prefetch
from repro.experiments.reporting import format_table
from repro.workloads.suites import spec_by_name


STEPS = (15, 40, 120, 400)


def run_ablation(trace_length):
    trace = spec_by_name("bwaves06").trace(trace_length, seed=0)
    out = {}
    for step in STEPS:
        params = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=step,
                         gamma=0.98)
        out[step] = run_bandit_prefetch(trace, params=params, seed=0).ipc
    return out


def test_ablation_step_length():
    result = run_ablation(scaled(15_000))
    print()
    print(format_table(
        ["step (L2 accesses)", "IPC"],
        [(step, f"{ipc:.3f}") for step, ipc in result.items()],
        title="Ablation: bandit step length sweep",
    ))
    values = list(result.values())
    mid = max(values[1], values[2])
    assert mid >= max(values) * 0.9
