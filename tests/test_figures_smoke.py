"""Tiny-scale smoke and golden-output tests for every figure/table entry point.

The benchmark harness runs these at reproduction scale; here each function
must produce a structurally sound result on minimal inputs *and* reproduce
its pinned digest (:mod:`tests.golden`), so a refactor that moves any
number in the experiment layer fails ``pytest tests/``.
"""

import pytest

import repro.experiments.figures as figures
from repro.core_model.lane_kernel import LANE_KERNEL_ENV
from repro.experiments.smt import SMTScale
from repro.workloads.suites import tune_specs
from tests.golden import digest


TINY_SMT = SMTScale(epoch_cycles=150, total_epochs=16, step_epochs=1,
                    step_epochs_rr=1)
TINY_TRACE = 2500
TINY_WORKLOADS = tune_specs()[:2]


class TestPrefetchFigures:
    def test_fig02(self):
        result = figures.fig02_pythia_homogeneity(
            trace_length=TINY_TRACE, workloads=["bwaves06", "gcc06"]
        )
        assert set(result) == {"bwaves06", "gcc06", "average"}
        for top1, top2 in result.values():
            assert 0.0 <= top2 <= top1 <= 1.0
        assert digest(result) == (
            "70a9d44c7c025dceb8c1a4b8b8d5d58971fe43b14b14ce78c57241e2ff3f4ecf"
        )

    def test_table08(self):
        result = figures.table08_prefetch_tuneset(
            trace_length=TINY_TRACE, workloads=TINY_WORKLOADS
        )
        assert set(result) == {
            "Pythia", "Single", "Periodic", "eGreedy", "UCB", "DUCB"
        }
        for summary in result.values():
            assert summary.minimum <= summary.gmean <= summary.maximum
        assert digest(result) == (
            "d1d455c0978767ce4de318d40690be7ba46e89aca5136bae63868ae1eb086301"
        )

    def test_fig08_structure(self):
        result = figures.fig08_singlecore(
            trace_length=TINY_TRACE, suites=["CloudSuite"]
        )
        assert "all" in result and "CloudSuite" in result
        for values in result.values():
            assert set(values) == {"stride", "bingo", "mlop", "pythia",
                                   "bandit"}
            for value in values.values():
                assert value > 0
        assert digest(result) == (
            "d55ed064c34c7ee22bf71fa0e4fbb5cd1624e6081ff7c45ed4512292156acac5"
        )

    @pytest.mark.parametrize("mode", ["dict", "array", "scalar"])
    def test_fig08_replication_sweep_golden(self, mode, monkeypatch):
        # 11 arm lanes + 19 bandit lanes per trace; every lane backend
        # must reproduce the one pin.
        monkeypatch.setenv(LANE_KERNEL_ENV, mode)
        result = figures.fig08_replication_sweep(
            trace_length=TINY_TRACE, replicates=19, workloads=TINY_WORKLOADS
        )
        assert set(result) == {spec.name for spec in TINY_WORKLOADS} | {"all"}
        assert digest(result) == (
            "b67ce972f40ced725696f1d1b6b9b8f347a53b2328db9e5ae0baa81840ea3ac2"
        )

    def test_fig09_structure(self):
        result = figures.fig09_breakdown(
            trace_length=TINY_TRACE, workloads=TINY_WORKLOADS
        )
        assert "bandit" in result and "bandit_ideal" in result
        for metrics in result.values():
            assert set(metrics) == {"llc_misses", "timely", "late", "wrong"}
        assert digest(result) == (
            "b195cb818886287e1b8af160cf9515d3b34796a7b8b3a9f708ec063033e597c5"
        )

    def test_fig10_structure(self):
        result = figures.fig10_bandwidth_sweep(
            trace_length=TINY_TRACE,
            mtps_values=(600.0, 2400.0),
            workloads=TINY_WORKLOADS,
        )
        assert set(result) == {600.0, 2400.0}
        for values in result.values():
            assert values["pythia"] > 0 and values["bandit"] > 0
        assert digest(result) == (
            "6262c2345bf5f3f2deaf58370dd2b27bab67b1dd6e1d87864f1c9d8d318ab009"
        )

    def test_fig11_uses_alt_hierarchy(self):
        result = figures.fig11_alt_hierarchy(
            trace_length=TINY_TRACE, suites=["CloudSuite"]
        )
        assert "all" in result
        # At this trace length neither hierarchy fills its L2, so the pin
        # equals fig08's.
        assert digest(result) == (
            "d55ed064c34c7ee22bf71fa0e4fbb5cd1624e6081ff7c45ed4512292156acac5"
        )

    def test_fig12_structure(self):
        result = figures.fig12_multilevel(
            trace_length=TINY_TRACE, workloads=TINY_WORKLOADS
        )
        assert set(result) == {
            "stride_stride", "ipcp", "stride_pythia", "stride_bandit"
        }
        assert digest(result) == (
            "9bbbd709f67f423a91d28408f62c403f18c0a16b7faaabd8b60d191868a0ddbf"
        )

    def test_fig14_structure(self):
        result = figures.fig14_fourcore(trace_length=1500, max_mixes=1)
        assert set(result) == {"stride", "bingo", "mlop", "pythia", "bandit"}
        assert digest(result) == (
            "5572002d942d5eaea8a0402ea04f0d5b8ea93646365422c7535b861c9a9cc2d8"
        )


class TestSMTFigures:
    def test_fig05_structure(self):
        from repro.smt.pg_policy import BANDIT_PG_ARMS

        result = figures.fig05_pg_policy_range(
            num_mixes=1, scale=TINY_SMT, policies=BANDIT_PG_ARMS
        )
        assert len(result) == 1
        record = result[0]
        assert record["worst_vs_choi"] <= record["best_vs_choi"]
        assert digest(result) == (
            "9d149ac77bc82327a652d57153724289f3015f755097fb67ec5a2aa0caad2596"
        )

    def test_table09_structure(self):
        result = figures.table09_smt_tuneset(num_mixes=2, scale=TINY_SMT)
        assert "Choi" in result and "DUCB" in result
        assert digest(result) == (
            "6ec5c727875f931a3c9457e5aedf0c1daebaf92bc86022af273921b1dc7d0701"
        )

    def test_fig13_structure(self):
        result = figures.fig13_smt_bandit_vs_choi(num_mixes=2, scale=TINY_SMT)
        assert len(result["ratios_sorted"]) == 2
        assert result["gmean_vs_choi"] > 0
        assert digest(result) == (
            "5c7d410544ac2f22f9043c23c45d9fb98ac1e258c9a4afaffecd52123a3ee8f6"
        )

    def test_fig15_structure(self):
        result = figures.fig15_rename_activity(num_mixes=1, scale=TINY_SMT)
        for metrics in result.values():
            total = metrics["stalled_any"] + metrics["idle"] + metrics["running"]
            assert total == pytest.approx(1.0, abs=1e-6)
        assert digest(result) == (
            "8dcc6878ac9ecc1c4757f686390d0710f5b76977a129c15d81fb6e69463c1667"
        )

    def test_fig07_structure(self):
        result = figures.fig07_exploration_traces(
            trace_length=TINY_TRACE,
            prefetch_workloads=("bwaves06",),
            smt_mixes=(("gcc", "lbm"),),
            scale=TINY_SMT,
        )
        assert set(result) == {"prefetch:bwaves06", "smt:gcc-lbm"}
        for scenario in result.values():
            assert set(scenario) == {"BestStatic", "Single", "UCB", "DUCB"}
        assert digest(result) == (
            "00d164c918382ae2be8bb8fb446b2e135d7032e7f6da278381c63676be6f36c4"
        )


class TestSec65:
    def test_structure(self):
        result = figures.sec65_area_power()
        assert result["storage_bytes"] == 88
        assert result["area_fraction_of_icelake"] < 1.0
        assert digest(result) == (
            "28bfecc4fd6fd72023f04c94bfe7509a41f0e5444642f6314a4a4536a6b721ed"
        )
