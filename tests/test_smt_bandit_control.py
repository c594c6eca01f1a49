"""Tests for Bandit control of the SMT fetch PG policy (§5.3)."""

import pytest

from repro.bandit.base import BanditConfig, MABAlgorithm
from repro.bandit.ducb import DUCB
from repro.bandit.heuristics import FixedArm
from repro.experiments.configs import smt_bandit_algorithm
from repro.smt.bandit_control import (
    BanditFetchController,
    SMTBanditConfig,
    run_static_policy,
)
from repro.smt.hill_climbing import HillClimbingConfig
from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY
from repro.smt.pipeline import SMTPipeline
from repro.workloads.smt import thread_profile


GCC = thread_profile("gcc")
LBM = thread_profile("lbm")

FAST_HC = HillClimbingConfig(epoch_cycles=200)
FAST_CONFIG = SMTBanditConfig(step_epochs=1, step_epochs_rr=2,
                              hill_climbing=FAST_HC)


def make_controller(algorithm=None, config=FAST_CONFIG):
    pipeline = SMTPipeline([GCC, LBM], BANDIT_PG_ARMS[0], seed=2)
    if algorithm is None:
        algorithm = smt_bandit_algorithm(0)
    return BanditFetchController(pipeline, algorithm, config=config)


class TestController:
    def test_round_robin_covers_all_arms(self):
        controller = make_controller()
        controller.run_steps(len(BANDIT_PG_ARMS))
        assert sorted(controller.algorithm.selection_history) == list(range(6))

    def test_rr_steps_are_longer(self):
        config = SMTBanditConfig(step_epochs=1, step_epochs_rr=4,
                                 hill_climbing=FAST_HC)
        controller = make_controller(config=config)
        pipeline = controller.pipeline
        controller.run_one_step()
        rr_cycles = pipeline.cycle
        assert rr_cycles == 4 * FAST_HC.epoch_cycles

    def test_main_loop_steps_shorter(self):
        controller = make_controller()
        controller.run_steps(len(BANDIT_PG_ARMS))  # finish RR
        start = controller.pipeline.cycle
        controller.run_one_step()
        assert controller.pipeline.cycle - start == FAST_HC.epoch_cycles

    def test_rewards_fed_to_algorithm(self):
        algorithm = DUCB(BanditConfig(num_arms=6, seed=1))
        controller = make_controller(algorithm=algorithm)
        controller.run_steps(8)
        assert all(count >= 0 for count in algorithm.selection_counts())
        assert algorithm.n_total > 0

    def test_arm_count_mismatch_rejected(self):
        algorithm = DUCB(BanditConfig(num_arms=3))
        with pytest.raises(ValueError):
            make_controller(algorithm=algorithm)

    def test_hc_state_saved_and_restored_per_arm(self):
        controller = make_controller()
        controller.run_steps(6)
        # After the sweep, each visited arm left a saved HC state (the last
        # arm's state is still live in the controller).
        assert len(controller._saved_hc_state) >= 5

    def test_policy_applied_to_pipeline(self):
        controller = make_controller()
        controller.run_one_step()
        applied = controller.algorithm.selection_history[0]
        assert controller.pipeline.policy == BANDIT_PG_ARMS[applied]

    def test_overall_ipc_positive(self):
        controller = make_controller()
        ipc = controller.run_steps(10)
        assert ipc > 0.1


class EagerPhaseExit(MABAlgorithm):
    """Stub that ends its round-robin phase *inside* ``select_arm``.

    The base class flips the phase in ``observe``; an algorithm is free to
    flip it earlier, which is exactly the case the controller's
    read-phase-before-select ordering protects (the last RR step must still
    run the long step).
    """

    def select_arm(self) -> int:
        arm = super().select_arm()
        if not self._rr_queue:
            self._in_initial_phase = False
        return arm

    def _next_arm(self) -> int:
        return 0

    def _upd_sels(self, arm: int) -> None:
        self.arms[arm].selections += 1.0
        self.n_total += 1.0

    def _upd_rew(self, arm: int, r_step: float) -> None:
        entry = self.arms[arm]
        entry.reward += (r_step - entry.reward) / entry.selections


class RecordingFixedArm(FixedArm):
    """FixedArm that keeps every reward it observes."""

    def __init__(self, config: BanditConfig, arm: int) -> None:
        super().__init__(config, arm)
        self.rewards = []

    def observe(self, r_step: float) -> None:
        self.rewards.append(r_step)
        super().observe(r_step)


class TestStepAccounting:
    def test_every_rr_step_runs_long(self):
        """All ``len(arms)`` round-robin steps run ``step_epochs_rr`` epochs.

        Regression test: the phase flag must be read before ``select_arm()``
        — an algorithm may end the phase during selection of the last RR arm,
        and reading the flag afterwards would shortchange that arm's initial
        estimate by running the short main-loop step.
        """
        algorithm = EagerPhaseExit(BanditConfig(num_arms=6, seed=0))
        controller = make_controller(algorithm=algorithm)
        pipeline = controller.pipeline
        step_cycles = []
        for _ in range(6):
            before = pipeline.cycle
            controller.run_one_step()
            step_cycles.append(pipeline.cycle - before)
        rr_cycles = FAST_CONFIG.step_epochs_rr * FAST_HC.epoch_cycles
        assert step_cycles == [rr_cycles] * 6
        # The very next step is a main-loop step.
        before = pipeline.cycle
        controller.run_one_step()
        assert pipeline.cycle - before == FAST_CONFIG.step_epochs * FAST_HC.epoch_cycles

    def test_epoch_budget_flushes_trailing_epochs(self):
        """A remainder shorter than a step still runs (no dropped epochs)."""
        controller = make_controller()
        total = 13  # 6 RR steps x 2 + 1 = 13: the last step is 1 epoch long.
        ipc = controller.run_epoch_budget(total)
        assert controller.pipeline.cycle == total * FAST_HC.epoch_cycles
        assert ipc > 0.1

    def test_epoch_budget_exact_for_rr_less_algorithm(self):
        """FixedArm never round-robins; the budget must still be exact.

        Regression test: deriving the step count from the arm count assumed
        every algorithm starts with a full round-robin sweep.
        """
        algorithm = FixedArm(BanditConfig(num_arms=6, seed=0), arm=3)
        controller = make_controller(algorithm=algorithm)
        controller.run_epoch_budget(9)
        assert controller.pipeline.cycle == 9 * FAST_HC.epoch_cycles
        assert set(controller.algorithm.selection_history) == {3}

    def test_epoch_budget_reward_normalized_by_actual_epochs(self):
        """Each step's reward is exactly its Δcommitted / Δcycles, the
        short final step's included."""
        algorithm = RecordingFixedArm(BanditConfig(num_arms=6, seed=0), arm=0)
        config = SMTBanditConfig(step_epochs=2, step_epochs_rr=2,
                                 hill_climbing=FAST_HC)
        log = []
        controller = BanditFetchController(
            SMTPipeline([GCC, LBM], BANDIT_PG_ARMS[0], seed=2),
            algorithm, config=config, epoch_log=log,
        )
        controller.run_epoch_budget(5)  # steps of 2, 2 and 1 epochs
        epoch_ends = [
            (record.committed0 + record.committed1, record.cycles)
            for record in log if record.reward_estimates is None
        ]
        assert len(epoch_ends) == 5
        bounds = [(0, 0.0)] + [epoch_ends[i] for i in (1, 3, 4)]
        assert algorithm.rewards == [
            (committed - prev_committed) / (cycles - prev_cycles)
            for (prev_committed, prev_cycles), (committed, cycles)
            in zip(bounds, bounds[1:])
        ]


class TestHillClimbingSaveRestore:
    def test_revisited_arm_resumes_saved_state(self):
        controller = make_controller()
        controller._apply_arm(0)
        hc = controller.hill_climbing
        hc.end_epoch(1.0)  # advance arm 0's HC state off the initial point
        state_before_switch = hc.state()
        controller._apply_arm(1)
        assert controller._saved_hc_state[0] == state_before_switch
        controller._apply_arm(0)
        assert controller.hill_climbing.state() == state_before_switch

    def test_back_to_back_same_arm_keeps_live_state(self):
        controller = make_controller()
        controller._apply_arm(2)
        live = controller.hill_climbing
        live.end_epoch(1.5)
        controller._apply_arm(2)
        assert controller.hill_climbing is live
        assert 2 not in controller._saved_hc_state

    def test_unseen_arm_gets_fresh_state(self):
        controller = make_controller()
        controller._apply_arm(0)
        controller.hill_climbing.end_epoch(2.0)
        controller._apply_arm(4)
        fresh = controller.hill_climbing
        assert fresh.state() == (FAST_HC.iq_size / 2.0, 0, (None, None, None))

    def test_states_keyed_per_arm_across_sweep(self):
        controller = make_controller()
        ipcs = iter([1.0, 1.2, 0.8, 1.1, 0.9, 1.3])
        for arm in range(6):
            controller._apply_arm(arm)
            controller.hill_climbing.end_epoch(next(ipcs))
        # Arms 0-4 are saved; arm 5 is live. Each saved state advanced one
        # epoch, so trial_index is 1 everywhere.
        assert sorted(controller._saved_hc_state) == [0, 1, 2, 3, 4]
        for arm, (base, trial_index, scores) in controller._saved_hc_state.items():
            assert trial_index == 1
            assert scores[0] is not None


class TestStaticRunner:
    def test_static_policy_runs_hill_climbing(self):
        pipeline = SMTPipeline([GCC, LBM], CHOI_POLICY, seed=2)
        ipc = run_static_policy(pipeline, CHOI_POLICY, epochs=10,
                                hc_config=FAST_HC)
        assert ipc > 0.1
        assert pipeline.cycle == 10 * FAST_HC.epoch_cycles

    def test_zero_epochs(self):
        pipeline = SMTPipeline([GCC, LBM], CHOI_POLICY, seed=2)
        assert run_static_policy(pipeline, CHOI_POLICY, epochs=0,
                                 hc_config=FAST_HC) == 0.0
