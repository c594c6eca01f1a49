"""Tests for the §9 joint-control extensions."""

from dataclasses import replace

import pytest

from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.extensions import (
    JOINT_L1_DEGREES,
    JOINT_L2_ARMS,
    JointArm,
    PrefetchReplacementArm,
    joint_arm_space,
    prefetch_replacement_arm_space,
    run_joint_l1_l2_bandit,
    run_joint_prefetch_replacement_bandit,
)
from repro.workloads.suites import spec_by_name
from tests.golden import digest


PARAMS = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=40, gamma=0.98)
TRACE = spec_by_name("bwaves06").trace(5000, seed=1)


class TestArmSpaces:
    def test_joint_space_is_product(self):
        space = joint_arm_space()
        assert len(space) == len(JOINT_L1_DEGREES) * len(JOINT_L2_ARMS)
        assert len(set(space)) == len(space)

    def test_joint_arm_labels(self):
        assert "L1stride=2" in JointArm(2, 5).label()

    def test_replacement_space(self):
        space = prefetch_replacement_arm_space()
        assert len(space) == 8
        assert PrefetchReplacementArm(0, "lru") in space


class TestJointL1L2:
    def test_runs_and_learns(self):
        ipc, history = run_joint_l1_l2_bandit(TRACE, params=PARAMS, seed=0)
        assert ipc > 0
        assert history  # at least the RR phase ran
        assert all(0 <= arm < len(joint_arm_space()) for arm in history)
        assert digest((ipc, history)) == (
            "a307c645ed45d6864b10515f0d4d0d262c57c807ab752ffb58e133868b70b96d"
        )

    def test_algorithm_arm_count_checked(self):
        from repro.bandit.base import BanditConfig
        from repro.bandit.ducb import DUCB

        with pytest.raises(ValueError):
            run_joint_l1_l2_bandit(
                TRACE, params=PARAMS,
                algorithm=DUCB(BanditConfig(num_arms=3)),
            )

    def test_joint_at_least_matches_l2_only_on_stream(self):
        from repro.experiments.prefetch import run_bandit_prefetch

        l2_only = run_bandit_prefetch(TRACE, params=PARAMS, seed=0).ipc
        joint, _ = run_joint_l1_l2_bandit(TRACE, params=PARAMS, seed=0)
        # The joint agent can also enable an L1 stride, so on a stream it
        # should not be materially worse despite the bigger action space.
        assert joint >= l2_only * 0.85


class TestJointReplacement:
    def test_runs_and_learns(self):
        ipc, history = run_joint_prefetch_replacement_bandit(
            TRACE, params=PARAMS, seed=0
        )
        assert ipc > 0
        assert len(history) >= len(prefetch_replacement_arm_space())
        assert digest((ipc, history)) == (
            "098065a62717bb55d80e616d4d5d5f2f15541405232a1cd00466673c6a85c9f5"
        )
