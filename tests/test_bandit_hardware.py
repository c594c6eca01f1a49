"""Tests for the Micro-Armed Bandit hardware model and reward path (§5)."""

import pytest

from repro.bandit.base import BanditConfig
from repro.bandit.ducb import DUCB
from repro.bandit.hardware import (
    BYTES_PER_ARM,
    BanditHardwareModel,
    MicroArmedBandit,
    PrefetchBanditController,
)
from repro.bandit.rewards import IPCReward, PerformanceCounters


class TestIPCReward:
    def test_step_ipc(self):
        reward = IPCReward()
        reward.reset(PerformanceCounters(0, 0))
        counters = PerformanceCounters(committed_instructions=400, cycles=100)
        assert reward.step_reward(counters) == pytest.approx(4.0)

    def test_differencing_across_steps(self):
        reward = IPCReward()
        reward.reset(PerformanceCounters(0, 0))
        reward.step_reward(PerformanceCounters(400, 100))
        second = reward.step_reward(PerformanceCounters(500, 300))
        assert second == pytest.approx(100 / 200)

    def test_zero_cycle_step(self):
        reward = IPCReward()
        reward.reset(PerformanceCounters(10, 10))
        assert reward.step_reward(PerformanceCounters(10, 10)) == 0.0

    def test_non_monotonic_counters_rejected(self):
        reward = IPCReward()
        reward.reset(PerformanceCounters(100, 100))
        with pytest.raises(ValueError):
            reward.step_reward(PerformanceCounters(50, 200))


class TestHardwareModel:
    def test_storage_matches_paper(self):
        """§5.4: 11 arms → < 100 bytes, 8 B per arm."""
        model = BanditHardwareModel(num_arms=11)
        assert model.storage_bytes() == 88
        assert model.storage_bytes() < 100
        assert BYTES_PER_ARM == 8

    def test_storage_scales_linearly(self):
        assert BanditHardwareModel(22).storage_bytes() == (
            2 * BanditHardwareModel(11).storage_bytes()
        )

    def test_naive_latency_under_500_cycles(self):
        """§5.4: sequential potentials for 11 arms ≈ under 500 cycles."""
        model = BanditHardwareModel(num_arms=11)
        assert model.naive_selection_latency() <= 540
        assert model.naive_selection_latency() >= 300

    def test_advanced_latency_about_50_cycles(self):
        model = BanditHardwareModel(num_arms=11)
        assert 40 <= model.advanced_selection_latency() <= 80

    def test_advanced_much_cheaper_than_naive(self):
        model = BanditHardwareModel(num_arms=11)
        assert model.advanced_selection_latency() < model.naive_selection_latency() / 5


class TestMicroArmedBandit:
    def make(self, latency=500):
        algorithm = DUCB(BanditConfig(num_arms=3, seed=0))
        return MicroArmedBandit(algorithm, selection_latency_cycles=latency)

    def test_step_protocol(self):
        bandit = self.make()
        bandit.reset_counters(PerformanceCounters(0, 0))
        arm = bandit.begin_step(0.0)
        assert 0 <= arm < 3
        reward = bandit.end_step(PerformanceCounters(100, 100))
        assert reward == pytest.approx(1.0)
        assert bandit.steps_completed == 1

    def test_selection_latency_defers_arm(self):
        bandit = self.make(latency=500)
        bandit.reset_counters(PerformanceCounters(0, 0))
        first = bandit.begin_step(0.0)
        bandit.end_step(PerformanceCounters(10, 1000))
        second = bandit.begin_step(1000.0)
        # Until the selection completes, the previous arm stays active.
        assert bandit.active_arm(1200.0) == first
        assert bandit.active_arm(1500.0) == second

    def test_active_arm_before_begin_raises(self):
        bandit = self.make()
        with pytest.raises(RuntimeError):
            bandit.active_arm(0.0)

    def test_storage_exposed(self):
        assert self.make().storage_bytes() == 3 * BYTES_PER_ARM

    def test_round_robin_phase_visible(self):
        bandit = self.make()
        bandit.reset_counters(PerformanceCounters(0, 0))
        assert bandit.in_round_robin_phase
        for step in range(3):
            bandit.begin_step(float(step))
            bandit.end_step(PerformanceCounters(step * 10 + 10, step * 10 + 10))
        assert not bandit.in_round_robin_phase


class TestFlushStep:
    def make(self):
        algorithm = DUCB(BanditConfig(num_arms=3, seed=0))
        return MicroArmedBandit(algorithm, selection_latency_cycles=0), algorithm

    def test_flush_trains_on_trailing_partial_step(self):
        bandit, algorithm = self.make()
        bandit.reset_counters(PerformanceCounters(0, 0))
        bandit.begin_step(0.0)
        bandit.end_step(PerformanceCounters(100, 100))
        bandit.begin_step(100.0)
        # Episode ends mid-step: the selection must still earn its reward.
        reward = bandit.flush_step(PerformanceCounters(150, 200))
        assert reward == pytest.approx(0.5)
        assert bandit.steps_completed == 2
        assert len(algorithm.selection_history) == 2

    def test_flush_retracts_zero_cycle_step(self):
        bandit, algorithm = self.make()
        bandit.reset_counters(PerformanceCounters(0, 0))
        bandit.begin_step(0.0)
        bandit.end_step(PerformanceCounters(100, 100))
        bandit.begin_step(100.0)
        # The trailing step covered zero cycles: no defined IPC, so the
        # pending selection is cancelled rather than trained on garbage.
        assert bandit.flush_step(PerformanceCounters(100, 100)) is None
        assert bandit.steps_completed == 1
        assert len(algorithm.selection_history) == 1

    def test_flush_before_any_step_is_noop(self):
        bandit, _ = self.make()
        bandit.reset_counters(PerformanceCounters(0, 0))
        assert bandit.flush_step(PerformanceCounters(0, 0)) is None

    def test_flush_is_idempotent(self):
        bandit, _ = self.make()
        bandit.reset_counters(PerformanceCounters(0, 0))
        bandit.begin_step(0.0)
        assert bandit.flush_step(PerformanceCounters(50, 50)) is not None
        assert bandit.flush_step(PerformanceCounters(50, 50)) is None
        assert bandit.steps_completed == 1

    def test_fresh_selection_accepted_after_flush(self):
        """The agent must be reusable after either flush outcome."""
        for trailing in (PerformanceCounters(150, 200),   # trained
                         PerformanceCounters(100, 100)):  # retracted
            bandit, algorithm = self.make()
            bandit.reset_counters(PerformanceCounters(0, 0))
            bandit.begin_step(0.0)
            bandit.end_step(PerformanceCounters(100, 100))
            bandit.begin_step(100.0)
            bandit.flush_step(trailing)
            arm = algorithm.select_arm()
            assert 0 <= arm < 3
            algorithm.observe(1.0)


class TestPrefetchBanditController:
    @pytest.mark.parametrize("latency", [500, 0])
    def test_step_contract(self, latency):
        algorithm = DUCB(BanditConfig(num_arms=3, seed=0))
        applied = []
        log = []
        controller = PrefetchBanditController(
            algorithm, applied.append, step_l2_accesses=10,
            selection_latency_cycles=latency, step_log=log,
        )
        first = controller.pending
        assert applied == [first]
        inf = float("inf")
        # Below the step boundary a call is a no-op until access 10.
        assert controller.on_record(9, PerformanceCounters(50, 100.0)) == (
            10, inf
        )
        # Boundary at cycle 200: the step trains and a new arm is selected.
        limits = controller.on_record(10, PerformanceCounters(100, 200.0))
        second = controller.pending
        assert second != first  # round-robin phase
        assert controller.arm_trace == [(0.0, first), (200.0, second)]
        if latency:
            # The previous arm keeps running until cycle 200 + 500.
            assert limits == (20, 700.0)
            assert applied == [first]
            assert controller.on_record(
                12, PerformanceCounters(110, 699.0)
            ) == (20, 700.0)
            assert applied == [first]
            assert controller.on_record(
                12, PerformanceCounters(120, 700.0)
            ) == (20, inf)
        else:
            # A zero latency applies the selection at the boundary itself.
            assert limits == (20, inf)
        assert applied == [first, second]
        # A boundary on the last record opens a step that covers zero
        # cycles: finish() retracts its selection instead of training.
        controller.on_record(20, PerformanceCounters(130, 800.0))
        assert len(algorithm.selection_history) == 3
        controller.finish(PerformanceCounters(130, 800.0), 20)
        assert algorithm.selection_history == [first, second]
        assert [record.l2_demand_accesses for record in log] == [
            0, 10, 20, 20
        ]
