"""Tests for the fused SMT cycle kernel and its dual-path sanitizer.

The kernel (:mod:`repro.core_model.smt_kernel`) must be *bit-identical* to
the per-object :class:`~repro.smt.pipeline.SMTPipeline` loop — same floats,
same RNG draw order, same epoch boundaries. These tests pin that contract
plus the dispatch rules (env kill-switch, subclass fallback), the hand-off
of one pipeline between the two paths, the kernel's jumps over quiescent
cycles, and the sanitizer plumbing that checks the two paths against each
other.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core_model import smt_kernel
from repro.core_model.sanitizer import (
    SanitizeDivergence,
    SMTStepRecord,
    compare_step_logs,
)
from repro.core_model.smt_kernel import (
    KERNEL_ENV,
    kernel_eligible,
    kernel_enabled,
)
from repro.experiments.configs import scaled_hill_climbing, smt_bandit_algorithm
from repro.experiments.smt import SMTScale, run_smt_bandit, run_smt_static
from repro.smt.bandit_control import (
    BanditFetchController,
    SMTBanditConfig,
    run_epochs,
)
from repro.smt.hill_climbing import HillClimbing
from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY, ICOUNT_POLICY
from repro.smt.pipeline import SMTConfig, SMTPipeline
from repro.workloads.smt import thread_profile
from tests.uop_reference import read_uops

GCC = thread_profile("gcc")
LBM = thread_profile("lbm")
MIX = (GCC, LBM)

#: Small runs of 6,000 cycles. They pass the completion prune at cycle
#: 4,096, but these tests compare results, which a missed prune leaves
#: alone; ``TestJump`` compares the state a prune changes.
SCALE = SMTScale(epoch_cycles=300, total_epochs=20)


class TestDispatch:
    def test_kernel_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert kernel_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF"])
    def test_env_kill_switch(self, monkeypatch, value):
        monkeypatch.setenv(KERNEL_ENV, value)
        assert not kernel_enabled()

    def test_subclass_falls_back_to_object_path(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)

        class InstrumentedPipeline(SMTPipeline):
            pass

        plain = SMTPipeline(list(MIX), CHOI_POLICY, seed=0)
        subclassed = InstrumentedPipeline(list(MIX), CHOI_POLICY, seed=0)
        assert kernel_eligible(plain)
        assert not kernel_eligible(subclassed)

    def test_env_off_disables_eligibility(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "0")
        pipeline = SMTPipeline(list(MIX), CHOI_POLICY, seed=0)
        assert not kernel_eligible(pipeline)


class TestEquivalence:
    @pytest.mark.parametrize("policy", [CHOI_POLICY, ICOUNT_POLICY,
                                        BANDIT_PG_ARMS[2], BANDIT_PG_ARMS[5]])
    def test_static_bit_identical(self, policy):
        kernel = run_smt_static(MIX, policy, SCALE, use_kernel=True)
        objct = run_smt_static(MIX, policy, SCALE, use_kernel=False)
        assert kernel.ipc == objct.ipc
        assert kernel.per_thread == objct.per_thread
        assert kernel.rename == objct.rename

    def test_bandit_bit_identical(self):
        kernel = run_smt_bandit(MIX, SCALE, use_kernel=True)
        objct = run_smt_bandit(MIX, SCALE, use_kernel=False)
        assert kernel.ipc == objct.ipc
        assert kernel.per_thread == objct.per_thread
        assert kernel.rename == objct.rename
        assert kernel.arm_history == objct.arm_history

    def test_epoch_logs_bit_identical(self):
        logs = {True: [], False: []}
        for use_kernel, log in logs.items():
            controller = BanditFetchController(
                SMTPipeline(list(MIX), BANDIT_PG_ARMS[0], seed=0),
                smt_bandit_algorithm(0),
                config=SMTBanditConfig(
                    step_epochs=SCALE.step_epochs,
                    step_epochs_rr=SCALE.step_epochs_rr,
                    hill_climbing=scaled_hill_climbing(SCALE.epoch_cycles),
                ),
                use_kernel=use_kernel,
                epoch_log=log,
            )
            controller.run_epoch_budget(SCALE.total_epochs)
        # One record per epoch plus one per bandit step.
        assert len(logs[True]) > SCALE.total_epochs
        compare_step_logs(logs[True], logs[False], context="test")

    def test_different_seeds_diverge(self):
        # Sanity: the equality above is meaningful, not vacuous.
        a = run_smt_static(MIX, CHOI_POLICY, SCALE, seed=0, use_kernel=True)
        b = run_smt_static(MIX, CHOI_POLICY, SCALE, seed=7, use_kernel=True)
        assert a.ipc != b.ipc


#: A pointer-chasing thread beside a DRAM-bound one, issuing one or two
#: uops a cycle: the IQ fills with entries waiting on loads, so epoch
#: boundaries find consumers sharing a producer and entries naming one
#: producer twice (``TestHandOff`` asserts that both occur).
HAND_OFF_MIX = (thread_profile("mcf"), LBM)
HAND_OFF_EPOCHS = 6
HAND_OFF_EPOCH_CYCLES = 100
HAND_OFF_SPLITS = (1, 2, 3, 5)


def _hand_off_pipeline(config):
    """A fresh pipeline on ``HAND_OFF_MIX`` and its Hill-Climbing state."""
    pipeline = SMTPipeline(list(HAND_OFF_MIX), CHOI_POLICY, config, seed=3)
    hill_climbing = HillClimbing(
        scaled_hill_climbing(HAND_OFF_EPOCH_CYCLES, config=config)
    )
    return pipeline, hill_climbing


def _wake_shapes(pipeline):
    """Does the IQ hold an entry naming one unissued producer twice, and
    an unissued producer with two or more waiting consumers?"""
    named_twice = False
    consumers = Counter()
    for ti, _, dep1, dep2, _ in pipeline._iq:
        thread = pipeline.threads[ti]
        unissued = [
            dep for dep in (dep1, dep2)
            if dep > thread.committed_seq and dep not in thread.completion
        ]
        if len(unissued) == 2 and dep1 == dep2:
            named_twice = True
        consumers.update((ti, dep) for dep in dict.fromkeys(unissued))
    return named_twice, max(consumers.values(), default=0) >= 2


def _pipeline_state(pipeline, hill_climbing):
    """Everything a later cycle can read: each thread's position in its
    shared uop buffer, and the buffer's contents from there."""
    threads = [
        dict(
            completion=thread.completion,
            rob=list(thread.rob),
            fetchq=list(thread.fetchq),
            occupancies=(thread.iq_occ, thread.rob_occ, thread.lq_occ,
                         thread.sq_occ, thread.irf_occ,
                         thread.branches_in_rob),
            committed=thread.committed,
            committed_seq=thread.committed_seq,
            blocked_seq=thread.blocked_seq,
            next_seq=thread.next_seq,
            next_uops=read_uops(thread.uops, thread.next_seq - 1, 32),
        )
        for thread in pipeline.threads
    ]
    return dict(
        iq=[list(entry) for entry in pipeline._iq],
        threads=threads,
        rename_activity=dataclasses.asdict(pipeline.rename_activity),
        cycle=pipeline.cycle,
        rr_counter=pipeline._rr_counter,
        mem_rng=pipeline._mem_rng.getstate(),
        sq_releases=list(pipeline._sq_releases),
        allowances=pipeline.allowances,
        hill_climbing=hill_climbing.state(),
    )


class TestHandOff:
    """A pipeline handed between the paths mid-run matches the object path.

    The kernel rebuilds its wake-up state from ``pipeline._iq`` on entry
    and writes the IQ back on exit; the equivalence tests above compare run
    results only, so a slip in either direction could hide behind them.
    """

    @pytest.mark.parametrize("issue_width", [1, 2])
    @pytest.mark.parametrize("kernel_first", [True, False])
    def test_hand_off_matches_object_path(self, issue_width, kernel_first):
        config = SMTConfig(issue_width=issue_width)
        pipeline, hill_climbing = _hand_off_pipeline(config)
        run_epochs(pipeline, hill_climbing, HAND_OFF_EPOCHS,
                   HAND_OFF_EPOCH_CYCLES, use_kernel=False)
        reference = _pipeline_state(pipeline, hill_climbing)
        shapes = []
        for split in HAND_OFF_SPLITS:
            pipeline, hill_climbing = _hand_off_pipeline(config)
            run_epochs(pipeline, hill_climbing, split, HAND_OFF_EPOCH_CYCLES,
                       use_kernel=kernel_first)
            shapes.append(_wake_shapes(pipeline))
            run_epochs(pipeline, hill_climbing, HAND_OFF_EPOCHS - split,
                       HAND_OFF_EPOCH_CYCLES, use_kernel=not kernel_first)
            assert _pipeline_state(pipeline, hill_climbing) == reference, split
        # The hand-offs above crossed the wake-up lists' two harder shapes.
        assert any(named_twice for named_twice, _ in shapes)
        assert any(shared for _, shared in shapes)


#: 17 epochs of 512 cycles, 8,704 cycles in all: past the completion
#: prunes at cycles 4,096 and 8,192.
PRUNE_EPOCHS = 17
PRUNE_EPOCH_CYCLES = 512


class TestJump:
    """The kernel's jumps over quiescent cycles leave the object path's state.

    A jump must stop before every cycle that can change the pipeline, the
    completion prunes included. A skipped prune changes no result, so only
    a whole-state comparison past the prunes can see one.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("policy", [CHOI_POLICY, ICOUNT_POLICY],
                             ids=["choi", "icount"])
    def test_state_across_prunes_matches_object_path(self, monkeypatch,
                                                       policy, seed):
        spans = []
        next_event = smt_kernel._next_event

        def recording_next_event(cycle, *args):
            wake = next_event(cycle, *args)
            spans.append(wake - cycle)
            return wake

        monkeypatch.setattr(smt_kernel, "_next_event", recording_next_event)
        states = []
        for use_kernel in (True, False):
            pipeline = SMTPipeline(list(HAND_OFF_MIX), policy, seed=seed)
            hill_climbing = HillClimbing(
                scaled_hill_climbing(PRUNE_EPOCH_CYCLES)
            )
            run_epochs(pipeline, hill_climbing, PRUNE_EPOCHS,
                       PRUNE_EPOCH_CYCLES, use_kernel=use_kernel)
            states.append(_pipeline_state(pipeline, hill_climbing))
        assert max(spans) > 1, "the kernel never jumped"
        assert states[0] == states[1]


class TestSanitizer:
    def test_sanitized_static_run_passes(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        plain = run_smt_static(MIX, CHOI_POLICY, SCALE)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = run_smt_static(MIX, CHOI_POLICY, SCALE)
        assert sanitized == plain

    def test_sanitized_bandit_run_passes(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        plain = run_smt_bandit(MIX, SCALE)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = run_smt_bandit(MIX, SCALE)
        assert sanitized == plain

    def test_compare_step_logs_reports_field(self):
        a = SMTStepRecord(step=0, committed0=10, committed1=9, cycles=200.0,
                          ipc=0.095)
        b = SMTStepRecord(step=0, committed0=10, committed1=8, cycles=200.0,
                          ipc=0.095)
        with pytest.raises(SanitizeDivergence) as excinfo:
            compare_step_logs([a], [b], context="test")
        assert "committed1" in str(excinfo.value)

    def test_compare_step_logs_reports_estimator_state(self):
        a = SMTStepRecord(step=0, committed0=1, committed1=1, cycles=1.0,
                          ipc=2.0, arm=3, reward_estimates=(0.5, 0.25))
        b = SMTStepRecord(step=0, committed0=1, committed1=1, cycles=1.0,
                          ipc=2.0, arm=3, reward_estimates=(0.5, 0.125))
        with pytest.raises(SanitizeDivergence) as excinfo:
            compare_step_logs([a], [b], context="test")
        assert "reward_estimates" in str(excinfo.value)

    def test_compare_step_logs_length_mismatch(self):
        record = SMTStepRecord(step=0, committed0=1, committed1=1,
                               cycles=1.0, ipc=2.0)
        with pytest.raises(SanitizeDivergence):
            compare_step_logs([record], [], context="test")
