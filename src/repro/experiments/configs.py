"""The paper's configuration tables as code.

- Table 4 — CPU/cache parameters for the prefetching experiments
  (:data:`BASELINE_HIERARCHY_CONFIG`; the Figure 11 variant is
  :data:`ALT_HIERARCHY_CONFIG`).
- Table 5 — SMT pipeline parameters (:data:`SMT_CONFIG_TABLE5`).
- Table 6 — Bandit hyperparameters for both use cases.
- Table 7 — the 11 prefetching arms (re-exported from the ensemble).

Cycle-scale note: the paper simulates 1 B instructions per trace and 64k-
cycle Hill-Climbing epochs; the Python substrate uses proportionally smaller
defaults (recorded in EXPERIMENTS.md). The *structure* of every experiment —
step lengths measured in L2 accesses or epochs, arm sets, γ/c values — is
taken from Table 6 unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bandit.base import BanditConfig, MABAlgorithm
from repro.bandit.ducb import DUCB
from repro.constants import (
    EPSILON_GREEDY_EPSILON,
    PREFETCH_EXPLORATION_C,
    PREFETCH_GAMMA,
    PREFETCH_NUM_ARMS,
    PREFETCH_STEP_L2_ACCESSES,
    RR_RESTART_PROB_MULTICORE,
    SELECTION_LATENCY_CYCLES,
    SMT_EXPLORATION_C,
    SMT_GAMMA,
    SMT_NUM_ARMS,
)
from repro.core_model.trace_core import CoreConfig
from repro.prefetch.ensemble import TABLE7_ARMS
from repro.smt.hill_climbing import HillClimbingConfig
from repro.smt.pipeline import SMTConfig
from repro.uncore.hierarchy import HierarchyConfig

#: Table 4: Skylake-like core with 256 KB L2 and 2 MB LLC/core.
BASELINE_HIERARCHY_CONFIG = HierarchyConfig(
    l1_size_bytes=32 * 1024,
    l1_ways=8,
    l2_size_bytes=256 * 1024,
    l2_ways=8,
    llc_size_bytes=2 * 1024 * 1024,
    llc_ways=16,
    dram_mtps=2400.0,
    core_frequency_ghz=4.0,
)

#: §7.2.2 alternative hierarchy: L2 = 1 MB, LLC = 1.5 MB per core.
ALT_HIERARCHY_CONFIG = HierarchyConfig(
    l1_size_bytes=32 * 1024,
    l1_ways=8,
    l2_size_bytes=1024 * 1024,
    l2_ways=16,
    llc_size_bytes=1536 * 1024,
    llc_ways=12,
    dram_mtps=2400.0,
    core_frequency_ghz=4.0,
)

#: Table 4 core parameters.
CORE_CONFIG_TABLE4 = CoreConfig(rob_size=256, commit_width=4, dispatch_width=6)

#: Table 5: SMT pipeline parameters.
SMT_CONFIG_TABLE5 = SMTConfig(
    fetch_width=5,
    decode_width=5,
    issue_width=8,
    commit_width=8,
    iq_size=97,
    rob_size=224,
    lq_size=72,
    sq_size=56,
    irf_size=180,
)

#: The 11 prefetching arms of Table 7.
PREFETCH_ARMS = TABLE7_ARMS

#: The comparator prefetchers of Figures 8/9/11/14, in the paper's order.
PREFETCHER_LINEUP = ("stride", "bingo", "mlop", "pythia")

#: Row labels of the Table 8/9 algorithm lineups, in table order.
TABLE8_ALGORITHM_NAMES = ("Single", "Periodic", "eGreedy", "UCB", "DUCB")

#: Bandit steps targeted per trace at reproduction scale. The paper runs
#: thousands of 1,000-L2-access steps over 1 B instructions; our traces are
#: orders of magnitude shorter, so the step length is scaled to preserve the
#: *number* of learning opportunities rather than the absolute step size.
TARGET_BANDIT_STEPS = 200

#: DUCB forgetting factor at reproduction scale. Table 6's γ=0.999 encodes a
#: horizon 1/(1-γ) of ~1,000 steps out of ~30k, a horizon/episode ratio of
#: ~1/30. γ=0.98 encodes ~50 steps out of the ~200 that
#: :data:`TARGET_BANDIT_STEPS` aims for, a ratio of ~1/4 — higher where the
#: 25-access step floor leaves fewer steps. The paper's ratio is not kept.
SCALED_GAMMA = 0.98


@dataclass(frozen=True)
class PrefetchBanditParams:
    """Table 6, data-prefetching column."""

    gamma: float = PREFETCH_GAMMA
    exploration_c: float = PREFETCH_EXPLORATION_C
    num_arms: int = len(TABLE7_ARMS)
    step_l2_accesses: int = PREFETCH_STEP_L2_ACCESSES
    rr_restart_prob_multicore: float = RR_RESTART_PROB_MULTICORE
    selection_latency_cycles: int = SELECTION_LATENCY_CYCLES


PREFETCH_BANDIT_CONFIG = PrefetchBanditParams()


def scaled_prefetch_params(
    l2_demand_accesses: int,
    target_steps: int = TARGET_BANDIT_STEPS,
) -> PrefetchBanditParams:
    """Prefetch bandit params with step and γ scaled to the trace length.

    The step length is derived from a no-prefetch baseline pass so that
    every trace yields roughly ``target_steps`` learning opportunities
    (floor 25 L2 accesses per step to keep reward estimates meaningful).
    """
    from dataclasses import replace as dc_replace

    step = max(25, l2_demand_accesses // target_steps)
    return dc_replace(
        PREFETCH_BANDIT_CONFIG, step_l2_accesses=step, gamma=SCALED_GAMMA
    )


def prefetch_bandit_algorithm(
    seed: int = 0,
    multicore: bool = False,
    params: PrefetchBanditParams = PREFETCH_BANDIT_CONFIG,
) -> DUCB:
    """The Table 6 DUCB instance for the prefetching use case."""
    return DUCB(
        BanditConfig(
            num_arms=params.num_arms,
            gamma=params.gamma,
            exploration_c=params.exploration_c,
            rr_restart_prob=params.rr_restart_prob_multicore if multicore else 0.0,
            seed=seed,
        )
    )


def smt_bandit_algorithm(seed: int = 0, num_arms: int = SMT_NUM_ARMS) -> DUCB:
    """The Table 6 DUCB instance for the SMT use case."""
    return DUCB(BanditConfig(num_arms=num_arms, gamma=SMT_GAMMA,
                             exploration_c=SMT_EXPLORATION_C, seed=seed))


def _algorithm_lineup(
    seed: int,
    num_arms: int,
    exploration_c: float,
    period: int,
    ducb: DUCB,
) -> Dict[str, MABAlgorithm]:
    """The five Table 8/9 rows, fresh, around the use case's ``ducb``.

    The use cases differ only in the arm count, UCB's exploration
    constant, Periodic's period and the DUCB.
    """
    from repro.bandit.epsilon_greedy import EpsilonGreedy
    from repro.bandit.heuristics import Periodic, Single
    from repro.bandit.ucb import UCB

    return {
        "Single": Single(BanditConfig(num_arms=num_arms, seed=seed)),
        "Periodic": Periodic(
            BanditConfig(num_arms=num_arms, seed=seed),
            period=period, buffer_length=4,
        ),
        "eGreedy": EpsilonGreedy(
            BanditConfig(num_arms=num_arms, epsilon=EPSILON_GREEDY_EPSILON,
                         seed=seed)
        ),
        "UCB": UCB(
            BanditConfig(num_arms=num_arms, exploration_c=exploration_c,
                         seed=seed)
        ),
        "DUCB": ducb,
    }


def table8_algorithm_lineup(
    seed: int = 0, gamma: float = PREFETCH_GAMMA
) -> Dict[str, MABAlgorithm]:
    """The §7.1 algorithm lineup of Table 8, keyed by its row labels.

    ``gamma`` is a parameter because reproduction-scale runs shrink the
    DUCB horizon with the episode (see :data:`SCALED_GAMMA`).
    """
    ducb = DUCB(BanditConfig(num_arms=PREFETCH_NUM_ARMS, gamma=gamma,
                             exploration_c=PREFETCH_EXPLORATION_C, seed=seed))
    return _algorithm_lineup(seed, PREFETCH_NUM_ARMS, PREFETCH_EXPLORATION_C,
                             period=40, ducb=ducb)


def smt_algorithm_lineup(seed: int = 0) -> Dict[str, MABAlgorithm]:
    """The Table 9 algorithm lineup (SMT hyperparameters), keyed by row label.

    Fresh algorithm objects per call — bandit state is mutable, so sharing
    instances across runs would leak estimator state between mixes. The
    Periodic buffer/period values follow the SMT episode length the same way
    Table 8's follow the prefetching one.
    """
    return _algorithm_lineup(seed, SMT_NUM_ARMS, SMT_EXPLORATION_C,
                             period=20, ducb=smt_bandit_algorithm(seed))


def scaled_hill_climbing(
    epoch_cycles: int = 1000,
    config: SMTConfig = SMT_CONFIG_TABLE5,
) -> HillClimbingConfig:
    """Hill-Climbing config with a simulation-scaled epoch length.

    The two threads' allowances partition ``config``'s issue queue, the
    one gating compares them with; δ keeps its Table 6 default.
    """
    return HillClimbingConfig(iq_size=config.iq_size, epoch_cycles=epoch_cycles)
