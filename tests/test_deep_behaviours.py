"""Deeper behavioural tests across substrates: writebacks, gating effects,
mispredict redirects, gap scaling, and step scaling."""

from unittest import mock

from repro.experiments.configs import scaled_prefetch_params
from repro.smt.pg_policy import CHOI_POLICY, PGPolicy
from repro.smt.pipeline import SMTPipeline
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.workloads.smt import thread_profile
from repro.workloads.suites import spec_by_name
from repro.workloads.trace import BLOCK_BYTES


TINY = HierarchyConfig(
    l1_size_bytes=2 * 64 * 2, l1_ways=2,
    l2_size_bytes=2 * 64 * 2, l2_ways=2,
    llc_size_bytes=4 * 64 * 2, llc_ways=4,
)


def addr(block):
    return block * BLOCK_BYTES


class TestWritebackChain:
    def test_dirty_evictions_reach_dram(self):
        """Dirty lines pushed down L1→L2→LLC→DRAM consume bandwidth."""
        hierarchy = CacheHierarchy(TINY)
        dram = hierarchy.dram
        with mock.patch.object(dram, "writeback",
                               wraps=dram.writeback) as writeback:
            # Write many distinct blocks mapping across the tiny hierarchy.
            for block in range(60):
                hierarchy.store(0x1, addr(block), float(block * 10))
            hierarchy.finalize()
        assert hierarchy.stats.writebacks > 0
        assert writeback.call_count == hierarchy.stats.writebacks

    def test_clean_evictions_silent(self):
        hierarchy = CacheHierarchy(TINY)
        for block in range(60):
            hierarchy.load(0x1, addr(block), float(block * 10))
        hierarchy.finalize()
        assert hierarchy.stats.writebacks == 0


class TestGapScaling:
    def test_gap_scale_lengthens_instruction_stream(self):
        spec = spec_by_name("bwaves06")
        normal = spec.trace(500, seed=1)
        scaled = spec.trace(500, seed=1, gap_scale=3.0)
        normal_insts = sum(record.inst_gap for record in normal)
        scaled_insts = sum(record.inst_gap for record in scaled)
        assert scaled_insts > 2 * normal_insts

    def test_gap_scale_preserves_addresses(self):
        spec = spec_by_name("milc06")
        normal = spec.trace(300, seed=1)
        scaled = spec.trace(300, seed=1, gap_scale=2.0)
        # Address sequences depend on the same seeded pattern state; the
        # block population stays comparable even if draws interleave.
        assert {r.address >> 28 for r in normal} == {
            r.address >> 28 for r in scaled
        }


class TestStepScaling:
    def test_scaled_params_targets_step_count(self):
        params = scaled_prefetch_params(10_000)
        assert params.step_l2_accesses == 10_000 // 200

    def test_floor_applies(self):
        params = scaled_prefetch_params(100)
        assert params.step_l2_accesses == 25

    def test_table6_constants_otherwise_kept(self):
        params = scaled_prefetch_params(10_000)
        assert params.exploration_c == 0.04
        assert params.num_arms == 11


class TestMispredictRedirect:
    def test_mispredict_blocks_fetch_until_resolution(self):
        """A thread with 100 % mispredicting branches fetches in bursts."""
        from dataclasses import replace as dc_replace

        branchy = dc_replace(
            thread_profile("gcc"), name="branchy",
            branch_fraction=0.4, branch_mispredict_rate=1.0,
        )
        clean = dc_replace(
            thread_profile("gcc"), name="clean",
            branch_mispredict_rate=0.0,
        )
        bad = SMTPipeline([branchy, branchy], CHOI_POLICY, seed=1)
        good = SMTPipeline([clean, clean], CHOI_POLICY, seed=1)
        assert good.run(5000) > bad.run(5000) * 1.3


class TestGatingEffects:
    def test_gated_thread_uses_fewer_entries(self):
        """Gating with a tiny allowance starves one thread's occupancy."""
        pipeline = SMTPipeline(
            [thread_profile("bwaves"), thread_profile("bwaves")],
            PGPolicy.from_mnemonic("IC_1111"), seed=2,
        )
        pipeline.set_allowances((8.0, 89.0))
        occupancy_samples = [0, 0]
        for _ in range(3000):
            pipeline.step()
            occupancy_samples[0] += pipeline.threads[0].rob_occ
            occupancy_samples[1] += pipeline.threads[1].rob_occ
        assert occupancy_samples[1] > occupancy_samples[0]

    def test_ungated_policy_ignores_allowances(self):
        pipeline = SMTPipeline(
            [thread_profile("x264"), thread_profile("x264")],
            PGPolicy.from_mnemonic("IC_0000"), seed=2,
        )
        pipeline.set_allowances((8.0, 89.0))
        pipeline.run(3000)
        committed = pipeline.per_thread_committed()
        # Without gating, a symmetric mix stays roughly balanced even with
        # skewed allowances.
        assert min(committed) > 0.5 * max(committed)
