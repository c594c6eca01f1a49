"""Extension bench: §9 joint action spaces.

§9 proposes spending extra (still tiny) storage on larger action spaces:
one Bandit controlling the L1 and L2 prefetchers together, or jointly
selecting the prefetcher configuration and the cache replacement policy.
We run both joint agents and compare against the L2-only Bandit; the joint
storage is still only 8 B per arm.
"""

from dataclasses import replace

from conftest import scaled

from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.extensions import (
    joint_arm_space,
    prefetch_replacement_arm_space,
    run_joint_l1_l2_bandit,
    run_joint_prefetch_replacement_bandit,
)
from repro.experiments.prefetch import run_bandit_prefetch
from repro.experiments.reporting import format_table
from repro.workloads.suites import spec_by_name


PARAMS = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=50, gamma=0.98)


def run_extension(trace_length):
    trace = spec_by_name("bwaves06").trace(trace_length, seed=0)
    l2_only = run_bandit_prefetch(trace, params=PARAMS, seed=0).ipc
    joint_l1l2, _ = run_joint_l1_l2_bandit(trace, params=PARAMS, seed=0)
    joint_repl, _ = run_joint_prefetch_replacement_bandit(
        trace, params=PARAMS, seed=0
    )
    return {
        "l2_only (11 arms)": l2_only,
        f"joint L1+L2 ({len(joint_arm_space())} arms)": joint_l1l2,
        f"joint pf+repl ({len(prefetch_replacement_arm_space())} arms)":
            joint_repl,
    }


def test_ext_joint_control():
    result = run_extension(scaled(12_000))
    print()
    print(format_table(
        ["agent", "IPC"],
        [(name, f"{value:.3f}") for name, value in result.items()],
        title="Extension (§9): joint action spaces",
    ))
    values = list(result.values())
    l2_only = values[0]
    # The joint L1+L2 agent can only add capability on a streaming trace.
    assert values[1] >= l2_only * 0.9
    # The replacement-aware agent stays competitive.
    assert values[2] >= l2_only * 0.8
