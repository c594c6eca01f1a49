"""§9 future-work extensions, implemented.

The paper sketches several ways to spend a slightly larger storage budget;
this module implements the two that extend the *action space*:

- **Joint L1+L2 control** — one Bandit selects a (L1 stride degree,
  L2 ensemble arm) pair; the action space is the product of the two
  (§9: "use a single Bandit to control multiple ensembles").
- **Joint prefetch + replacement control** — one Bandit selects a
  (L2 ensemble arm, L2 replacement policy) pair, using the replacement
  policies of :mod:`repro.uncore.replacement`.

Both reuse the unmodified DUCB agent: only the arm decoding changes, which
is the reusability argument of the paper in action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bandit.base import BanditConfig, MABAlgorithm
from repro.bandit.ducb import DUCB
from repro.bandit.hardware import PrefetchBanditController
from repro.constants import PREFETCH_EXPLORATION_C
from repro.core_model.trace_core import TraceCore
from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
    PrefetchBanditParams,
)
from repro.prefetch.ensemble import EnsemblePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.uncore.replacement import (
    LRUReplacement,
    PolicyCache,
    ReplacementPolicy,
    SRRIP,
)
from repro.workloads.trace import TraceRecord

#: L1 stride degrees exposed to the joint agent (0 = L1 prefetching off).
JOINT_L1_DEGREES: Tuple[int, ...] = (0, 1, 2)

#: L2 arm subset for joint control (keeps the product space small, as the
#: paper's example "10 L1 × 10 L2" suggests pruning).
JOINT_L2_ARMS: Tuple[int, ...] = (0, 1, 2, 5, 7, 10)


@dataclass(frozen=True)
class JointArm:
    """One action of the joint L1+L2 agent."""

    l1_degree: int
    l2_arm: int

    def label(self) -> str:
        return f"L1stride={self.l1_degree}/L2arm={self.l2_arm}"


def joint_arm_space(
    l1_degrees: Sequence[int] = JOINT_L1_DEGREES,
    l2_arms: Sequence[int] = JOINT_L2_ARMS,
) -> List[JointArm]:
    """The product action space of §9 (|L1| × |L2| arms)."""
    return [JointArm(d, a) for d in l1_degrees for a in l2_arms]


def _run_joint_bandit(
    trace: Sequence[TraceRecord],
    hierarchy: CacheHierarchy,
    algorithm: MABAlgorithm,
    apply: Callable[[int], None],
    params: PrefetchBanditParams,
) -> Tuple[float, List[int]]:
    """Replay ``trace`` with one Bandit stepping a joint action space.

    ``apply(arm)`` reprograms every unit the arm controls. Each selection
    takes effect at its step boundary (selection latency 0).
    """
    core = TraceCore(hierarchy, CORE_CONFIG_TABLE4)
    stats = hierarchy.stats
    controller = PrefetchBanditController(
        algorithm, apply, params.step_l2_accesses, selection_latency_cycles=0
    )
    for record in trace:
        core.execute(record)
        controller.on_record(stats.l2_demand_accesses, core.counters())
    controller.finish(core.counters(), stats.l2_demand_accesses)
    hierarchy.finalize()
    return core.ipc, list(algorithm.selection_history)


def run_joint_l1_l2_bandit(
    trace: Sequence[TraceRecord],
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    params: PrefetchBanditParams = PREFETCH_BANDIT_CONFIG,
    algorithm: Optional[MABAlgorithm] = None,
    seed: int = 0,
) -> Tuple[float, List[int]]:
    """One Bandit jointly reprogramming the L1 stride and the L2 ensemble.

    Models no selection latency: each selection takes effect at its step
    boundary. Returns (IPC, arm history).
    """
    arms = joint_arm_space()
    if algorithm is None:
        algorithm = DUCB(BanditConfig(
            num_arms=len(arms), gamma=0.98,
            exploration_c=PREFETCH_EXPLORATION_C, seed=seed
        ))
    if algorithm.num_arms != len(arms):
        raise ValueError("algorithm arm count must match the joint space")
    l1 = StridePrefetcher(degree=0)
    ensemble = EnsemblePrefetcher()
    hierarchy = CacheHierarchy(
        hierarchy_config, l2_prefetcher=ensemble, l1_prefetcher=l1
    )

    def apply(arm_index: int) -> None:
        arm = arms[arm_index]
        l1.set_degree(arm.l1_degree)
        ensemble.set_arm(arm.l2_arm)

    return _run_joint_bandit(trace, hierarchy, algorithm, apply, params)


# ----------------------------------------------------------- replacement


@dataclass(frozen=True)
class PrefetchReplacementArm:
    """One action of the joint prefetch + replacement agent."""

    l2_arm: int
    replacement: str  # "lru" or "srrip"

    def label(self) -> str:
        return f"L2arm={self.l2_arm}/repl={self.replacement}"


def prefetch_replacement_arm_space(
    l2_arms: Sequence[int] = (0, 1, 5, 10),
    policies: Sequence[str] = ("lru", "srrip"),
) -> List[PrefetchReplacementArm]:
    return [
        PrefetchReplacementArm(arm, policy)
        for arm in l2_arms
        for policy in policies
    ]


class SwitchablePolicyCache(PolicyCache):
    """A PolicyCache whose replacement policy can be reprogrammed."""

    def set_replacement(self, policy: ReplacementPolicy) -> None:
        self.policy = policy


def run_joint_prefetch_replacement_bandit(
    trace: Sequence[TraceRecord],
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    params: PrefetchBanditParams = PREFETCH_BANDIT_CONFIG,
    seed: int = 0,
) -> Tuple[float, List[int]]:
    """One Bandit selecting (L2 ensemble arm, L2 replacement policy).

    Models no selection latency: each selection takes effect at its step
    boundary. Returns (IPC, arm history).
    """
    arms = prefetch_replacement_arm_space()
    algorithm = DUCB(BanditConfig(
        num_arms=len(arms), gamma=0.98,
        exploration_c=PREFETCH_EXPLORATION_C, seed=seed
    ))
    ensemble = EnsemblePrefetcher()
    hierarchy = CacheHierarchy(hierarchy_config, l2_prefetcher=ensemble)
    # Swap the L2 for a policy-switchable cache before any access happens.
    l2 = SwitchablePolicyCache(
        "L2", hierarchy_config.l2_size_bytes, hierarchy_config.l2_ways,
        policy=LRUReplacement(), block_bytes=hierarchy_config.block_bytes,
    )
    hierarchy.l2 = l2
    policies: Dict[str, ReplacementPolicy] = {
        "lru": LRUReplacement(),
        "srrip": SRRIP(),
    }

    def apply(arm_index: int) -> None:
        arm = arms[arm_index]
        ensemble.set_arm(arm.l2_arm)
        l2.set_replacement(policies[arm.replacement])

    return _run_joint_bandit(trace, hierarchy, algorithm, apply, params)
