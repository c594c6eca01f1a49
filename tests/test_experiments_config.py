"""Tests for the experiment configuration tables (Tables 4/5/6/7)."""

from repro.constants import NUM_STREAM_TRACKERS
from repro.experiments.configs import (
    ALT_HIERARCHY_CONFIG,
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_ARMS,
    PREFETCH_BANDIT_CONFIG,
    SMT_BANDIT_TABLE6,
    SMT_CONFIG_TABLE5,
    prefetch_bandit_algorithm,
    scaled_hill_climbing,
)
from repro.prefetch.ensemble import TABLE7_ARMS


class TestTable4:
    def test_cache_sizes(self):
        assert BASELINE_HIERARCHY_CONFIG.l1_size_bytes == 32 * 1024
        assert BASELINE_HIERARCHY_CONFIG.l2_size_bytes == 256 * 1024
        assert BASELINE_HIERARCHY_CONFIG.llc_size_bytes == 2 * 1024 * 1024

    def test_core_params(self):
        assert CORE_CONFIG_TABLE4.rob_size == 256
        assert CORE_CONFIG_TABLE4.commit_width == 4
        assert CORE_CONFIG_TABLE4.dispatch_width == 6

    def test_baseline_bandwidth(self):
        assert BASELINE_HIERARCHY_CONFIG.dram_mtps == 2400.0
        assert BASELINE_HIERARCHY_CONFIG.core_frequency_ghz == 4.0

    def test_alt_hierarchy_sizes(self):
        """§7.2.2: L2 = 1 MB, LLC = 1.5 MB/core."""
        assert ALT_HIERARCHY_CONFIG.l2_size_bytes == 1024 * 1024
        assert ALT_HIERARCHY_CONFIG.llc_size_bytes == 1536 * 1024


class TestTable5:
    def test_smt_structures(self):
        assert SMT_CONFIG_TABLE5.iq_size == 97
        assert SMT_CONFIG_TABLE5.rob_size == 224
        assert SMT_CONFIG_TABLE5.lq_size == 72
        assert SMT_CONFIG_TABLE5.sq_size == 56
        assert SMT_CONFIG_TABLE5.irf_size == 180

    def test_smt_widths(self):
        assert SMT_CONFIG_TABLE5.issue_width == 8
        assert SMT_CONFIG_TABLE5.commit_width == 8


class TestTable6:
    def test_prefetch_column(self):
        assert PREFETCH_BANDIT_CONFIG.gamma == 0.999
        assert PREFETCH_BANDIT_CONFIG.exploration_c == 0.04
        assert PREFETCH_BANDIT_CONFIG.num_arms == 11
        assert PREFETCH_BANDIT_CONFIG.step_l2_accesses == 1000
        assert NUM_STREAM_TRACKERS == 64
        assert PREFETCH_BANDIT_CONFIG.rr_restart_prob_multicore == 0.001

    def test_smt_column(self):
        assert SMT_BANDIT_TABLE6.gamma == 0.975
        assert SMT_BANDIT_TABLE6.exploration_c == 0.01
        assert SMT_BANDIT_TABLE6.num_arms == 6
        assert SMT_BANDIT_TABLE6.step_epochs == 2
        assert SMT_BANDIT_TABLE6.step_epochs_rr == 32
        assert SMT_BANDIT_TABLE6.epoch_cycles == 64_000
        assert SMT_BANDIT_TABLE6.delta_iq_entries == 2.0

    def test_algorithm_factory_single_core(self):
        algorithm = prefetch_bandit_algorithm(seed=3)
        assert algorithm.config.num_arms == 11
        assert algorithm.config.rr_restart_prob == 0.0

    def test_algorithm_factory_multicore_enables_restart(self):
        algorithm = prefetch_bandit_algorithm(seed=3, multicore=True)
        assert algorithm.config.rr_restart_prob == 0.001

    def test_scaled_hill_climbing(self):
        config = scaled_hill_climbing(epoch_cycles=500)
        assert config.epoch_cycles == 500
        assert config.iq_size == 97
        assert config.delta == 2.0


class TestTable7:
    def test_exported_arms_are_ensemble_arms(self):
        assert PREFETCH_ARMS is TABLE7_ARMS
        assert len(PREFETCH_ARMS) == 11
