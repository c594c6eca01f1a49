"""Ablation: the §4.3 reward-normalization modification.

Without the ``r_avg`` normalizer, a fixed exploration constant makes the
agent explore far more in low-IPC workloads than in high-IPC ones. We
compare post-round-robin exploration rates on a low-IPC pointer-chasing
trace and a high-IPC streaming trace, with and without normalization.
"""

from dataclasses import replace

from conftest import scaled

from repro.bandit.base import BanditConfig
from repro.bandit.ducb import DUCB
from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.prefetch import run_bandit_prefetch
from repro.experiments.reporting import format_table
from repro.workloads.suites import spec_by_name


PARAMS = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=60)
NUM_ARMS = 11


def _exploration_rate(history):
    """Fraction of post-RR steps that switch away from the previous arm."""
    tail = history[NUM_ARMS:]
    if len(tail) < 2:
        return 0.0
    switches = sum(1 for a, b in zip(tail, tail[1:]) if a != b)
    return switches / (len(tail) - 1)


def run_ablation(trace_length):
    low_ipc = spec_by_name("omnetpp06").trace(trace_length // 2, seed=0)
    high_ipc = spec_by_name("bwaves06").trace(trace_length, seed=0)
    rows = {}
    for normalize in (True, False):
        rates = {}
        for name, trace in (("low-IPC", low_ipc), ("high-IPC", high_ipc)):
            algorithm = DUCB(BanditConfig(
                num_arms=NUM_ARMS, gamma=0.98, exploration_c=0.04, seed=0,
                normalize_rewards=normalize,
            ))
            result = run_bandit_prefetch(trace, algorithm=algorithm,
                                         params=PARAMS)
            rates[name] = _exploration_rate(result.arm_history)
        rows[normalize] = rates
    return rows


def test_ablation_reward_normalization():
    rows = run_ablation(scaled(12_000))
    print()
    print(format_table(
        ["normalized", "low-IPC explore rate", "high-IPC explore rate",
         "imbalance"],
        [
            (str(norm), f"{r['low-IPC']:.3f}", f"{r['high-IPC']:.3f}",
             f"{r['low-IPC'] - r['high-IPC']:+.3f}")
            for norm, r in rows.items()
        ],
        title="Ablation: §4.3 reward normalization",
    ))
    imbalance_norm = rows[True]["low-IPC"] - rows[True]["high-IPC"]
    imbalance_raw = rows[False]["low-IPC"] - rows[False]["high-IPC"]
    # Normalization reduces the cross-benchmark exploration imbalance.
    assert abs(imbalance_norm) <= abs(imbalance_raw) + 0.05
