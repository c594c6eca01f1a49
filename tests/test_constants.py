"""Coherence tests for the paper constants (repro.constants).

The module is the single source for Table 6/7 values; these tests pin the
published numbers and check that the consuming dataclasses actually default
to them (so a drive-by edit of a default cannot silently diverge from the
paper).
"""

from repro import constants
from repro.bandit.base import BanditConfig
from repro.experiments.configs import (
    PrefetchBanditParams,
    smt_bandit_algorithm,
)
from repro.prefetch.ensemble import TABLE7_ARMS, EnsemblePrefetcher
from repro.smt.bandit_control import SMTBanditConfig
from repro.smt.hill_climbing import HillClimbingConfig


class TestTable6Values:
    """The literal published values (Table 6, MICRO 2023)."""

    def test_prefetch_column(self):
        assert constants.PREFETCH_GAMMA == 0.999
        assert constants.PREFETCH_EXPLORATION_C == 0.04
        assert constants.PREFETCH_STEP_L2_ACCESSES == 1000
        assert constants.NUM_STRIDE_TRACKERS == 64
        assert constants.NUM_STREAM_TRACKERS == 64
        assert constants.SELECTION_LATENCY_CYCLES == 500
        assert constants.RR_RESTART_PROB_MULTICORE == 0.001

    def test_smt_column(self):
        assert constants.SMT_GAMMA == 0.975
        assert constants.SMT_EXPLORATION_C == 0.01
        assert constants.SMT_NUM_ARMS == 6
        assert constants.SMT_STEP_EPOCHS == 2
        assert constants.SMT_STEP_EPOCHS_RR == 32
        assert constants.HILL_CLIMBING_EPOCH_CYCLES == 64_000
        assert constants.HILL_CLIMBING_DELTA_IQ_ENTRIES == 2.0
        assert constants.EPSILON_GREEDY_EPSILON == 0.1


class TestTable7ArmTable:
    def test_eleven_arms(self):
        assert len(constants.TABLE7_ARM_TABLE) == 11
        assert constants.PREFETCH_NUM_ARMS == 11

    def test_ensemble_is_built_from_the_table(self):
        assert len(TABLE7_ARMS) == len(constants.TABLE7_ARM_TABLE)
        for spec, (next_line, stride, stream) in zip(
            TABLE7_ARMS, constants.TABLE7_ARM_TABLE
        ):
            assert spec.next_line == next_line
            assert spec.stride_degree == stride
            assert spec.stream_degree == stream

    def test_arm_1_is_all_off(self):
        # Table 7's arm 1 disables every component prefetcher.
        assert constants.TABLE7_ARM_TABLE[1] == (False, 0, 0)


class TestDataclassDefaultsMatchRegistry:
    def test_bandit_config(self):
        config = BanditConfig(num_arms=2)
        assert config.gamma == constants.PREFETCH_GAMMA
        assert config.exploration_c == constants.PREFETCH_EXPLORATION_C
        assert config.epsilon == constants.EPSILON_GREEDY_EPSILON

    def test_prefetch_params(self):
        params = PrefetchBanditParams()
        assert params.gamma == constants.PREFETCH_GAMMA
        assert params.exploration_c == constants.PREFETCH_EXPLORATION_C
        assert params.num_arms == constants.PREFETCH_NUM_ARMS
        assert params.step_l2_accesses == constants.PREFETCH_STEP_L2_ACCESSES
        assert (
            params.rr_restart_prob_multicore
            == constants.RR_RESTART_PROB_MULTICORE
        )
        assert (
            params.selection_latency_cycles
            == constants.SELECTION_LATENCY_CYCLES
        )

    def test_ensemble_trackers(self):
        ensemble = EnsemblePrefetcher()
        assert ensemble.stride.num_trackers == constants.NUM_STRIDE_TRACKERS
        assert ensemble.stream.num_trackers == constants.NUM_STREAM_TRACKERS

    def test_smt_params(self):
        config = smt_bandit_algorithm().config
        assert config.gamma == constants.SMT_GAMMA
        assert config.exploration_c == constants.SMT_EXPLORATION_C
        assert config.num_arms == constants.SMT_NUM_ARMS

    def test_smt_bandit_config(self):
        config = SMTBanditConfig()
        assert config.step_epochs == constants.SMT_STEP_EPOCHS
        assert config.step_epochs_rr == constants.SMT_STEP_EPOCHS_RR

    def test_hill_climbing_config(self):
        config = HillClimbingConfig()
        assert config.delta == constants.HILL_CLIMBING_DELTA_IQ_ENTRIES
        assert config.epoch_cycles == constants.HILL_CLIMBING_EPOCH_CYCLES
