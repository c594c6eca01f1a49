"""Tiny-scale smoke and golden-output tests for every figure/table entry point.

The benchmark harness runs these at reproduction scale; here each function
must produce a structurally sound result on minimal inputs *and* reproduce
its pinned digest (:mod:`tests.golden`, keyed by ``CACHE_SCHEMA_VERSION``),
so a refactor that moves any number in the experiment layer fails
``pytest tests/``.

Every figure that replays through the task runner renders under a fresh
cached execution context and also pins its task list: the digest of the
``(label, cache key)`` pairs in submission order. A refactor of a figure's
fan-out that renames, reorders, adds or drops a task, or changes any input
a cache key encodes, fails here even when the numbers happen to hold.
"""

import pytest

import repro.experiments.figures as figures
from repro.core_model.lane_kernel import LANE_KERNEL_ENV
from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    ExecutionContext,
    ResultCache,
    use_context,
)
from repro.experiments.smt import SMTScale
from repro.workloads.suites import tune_specs
from tests.golden import GOLDEN_DIGESTS, assert_golden, digest


TINY_SMT = SMTScale(epoch_cycles=150, total_epochs=16, step_epochs=1,
                    step_epochs_rr=1)
TINY_TRACE = 2500
TINY_WORKLOADS = tune_specs()[:2]


@pytest.fixture
def context(tmp_path):
    """A fresh execution context with an empty on-disk result cache."""
    context = ExecutionContext(cache=ResultCache(tmp_path / "cache"))
    with use_context(context):
        yield context


def task_list(context) -> str:
    """Digest of the run's ``(label, cache key)`` list in submission order."""
    return digest([[record.label, record.key]
                   for record in context.telemetry.tasks])


class TestPrefetchFigures:
    def test_fig02(self):
        result = figures.fig02_pythia_homogeneity(
            trace_length=TINY_TRACE, workloads=["bwaves06", "gcc06"]
        )
        assert set(result) == {"bwaves06", "gcc06", "average"}
        for top1, top2 in result.values():
            assert 0.0 <= top2 <= top1 <= 1.0
        assert_golden("fig02", result)

    def test_table08(self, context):
        result = figures.table08_prefetch_tuneset(
            trace_length=TINY_TRACE, workloads=TINY_WORKLOADS
        )
        assert set(result) == {
            "Pythia", "Single", "Periodic", "eGreedy", "UCB", "DUCB"
        }
        for summary in result.values():
            assert summary.minimum <= summary.gmean <= summary.maximum
        assert_golden("table08", result)
        assert task_list(context) == (
            "a7a21b163bc9f688333d8aebf197bdd4dad61495f770abb042a58bac061dd39c"
        )

    def test_fig08_structure(self, context):
        result = figures.fig08_singlecore(
            trace_length=TINY_TRACE, suites=["CloudSuite"]
        )
        assert "all" in result and "CloudSuite" in result
        for values in result.values():
            assert set(values) == {"stride", "bingo", "mlop", "pythia",
                                   "bandit"}
            for value in values.values():
                assert value > 0
        assert_golden("fig08", result)
        assert task_list(context) == (
            "cb7250ee6c5e96eb176f4ee63534fedaa1d6059685de61c57c5dc1f6e5420501"
        )

    @pytest.mark.parametrize("mode", ["dict", "scalar"])
    def test_fig08_replication_sweep_golden(self, context, mode, monkeypatch):
        # 11 arm lanes + 19 bandit lanes per trace: the batched kernel
        # replays 12 distinct lanes and the scalar path all 30, and both
        # must reproduce the one pin.
        monkeypatch.setenv(LANE_KERNEL_ENV, mode)
        result = figures.fig08_replication_sweep(
            trace_length=TINY_TRACE, replicates=19, workloads=TINY_WORKLOADS
        )
        assert set(result) == {spec.name for spec in TINY_WORKLOADS} | {"all"}
        assert_golden("fig08rep", result)
        assert task_list(context) == (
            "ce7fc67a1af5aaddc3bdeac5ed1494058970f33073751e73f737985ae003076d"
        )

    def test_fig09_structure(self, context):
        result = figures.fig09_breakdown(
            trace_length=TINY_TRACE, workloads=TINY_WORKLOADS
        )
        assert "bandit" in result and "bandit_ideal" in result
        for metrics in result.values():
            assert set(metrics) == {"llc_misses", "timely", "late", "wrong"}
        assert_golden("fig09", result)
        assert task_list(context) == (
            "4bb88898ca913029094f3f07b6a91c42702d9fff726eaa2b158ff3c666880f84"
        )

    def test_fig10_structure(self, context):
        result = figures.fig10_bandwidth_sweep(
            trace_length=TINY_TRACE,
            mtps_values=(600.0, 2400.0),
            workloads=TINY_WORKLOADS,
        )
        assert set(result) == {600.0, 2400.0}
        for values in result.values():
            assert values["pythia"] > 0 and values["bandit"] > 0
        assert_golden("fig10", result)
        assert task_list(context) == (
            "8f679565cd4945cdc5db7f2ce1e0c52c7f6ada83137a1fb180a7a622cc0413a9"
        )

    @pytest.mark.parametrize("mode", ["dict", "scalar"])
    def test_fig10_replication_sweep_golden(self, context, mode, monkeypatch):
        # 11 arm lanes + 3 bandit lanes per trace and bandwidth point.
        monkeypatch.setenv(LANE_KERNEL_ENV, mode)
        result = figures.fig10_replication_sweep(
            trace_length=TINY_TRACE,
            mtps_values=(600.0, 2400.0),
            replicates=3,
            workloads=TINY_WORKLOADS,
        )
        assert set(result) == {600.0, 2400.0}
        for point in result.values():
            assert set(point) == {"best_static_gmean", "bandit_gmean",
                                  "bandit_min", "bandit_max"}
            assert point["bandit_min"] <= point["bandit_max"]
        assert_golden("fig10rep", result)
        assert task_list(context) == (
            "683f139874c76c19125111b15fc4ab8c755e9081239513461fa302327b961372"
        )

    def test_fig11_uses_alt_hierarchy(self, context):
        result = figures.fig11_alt_hierarchy(
            trace_length=TINY_TRACE, suites=["CloudSuite"]
        )
        assert "all" in result
        assert_golden("fig11", result)
        assert task_list(context) == (
            "c7a0eb4aab8b646ae304895483b85d7c9bbd55286dbf798c0724e14fb3f7668e"
        )

    def test_fig12_structure(self, context):
        result = figures.fig12_multilevel(
            trace_length=TINY_TRACE, workloads=TINY_WORKLOADS
        )
        assert set(result) == {
            "stride_stride", "ipcp", "stride_pythia", "stride_bandit"
        }
        assert_golden("fig12", result)
        assert task_list(context) == (
            "710b7846179fc9f514125dc518078b2700598f6d3f71919a18f92c1ee4cf5776"
        )

    def test_fig14_structure(self, context):
        result = figures.fig14_fourcore(trace_length=1500, max_mixes=1)
        assert set(result) == {"stride", "bingo", "mlop", "pythia", "bandit"}
        assert_golden("fig14", result)
        assert task_list(context) == (
            "de7007ea7be8118570f39a021c3c4652486e910a590db42f20df07093a6313c9"
        )


class TestSMTFigures:
    def test_fig05_structure(self, context):
        from repro.smt.pg_policy import BANDIT_PG_ARMS

        result = figures.fig05_pg_policy_range(
            num_mixes=1, scale=TINY_SMT, policies=BANDIT_PG_ARMS
        )
        assert len(result) == 1
        record = result[0]
        assert record["worst_vs_choi"] <= record["best_vs_choi"]
        assert_golden("fig05", result)
        assert task_list(context) == (
            "c8e8fe583e227a3fb8024298086cff2606b2948d5241689d718814c100b03c60"
        )

    def test_table09_structure(self, context):
        result = figures.table09_smt_tuneset(num_mixes=2, scale=TINY_SMT)
        assert "Choi" in result and "DUCB" in result
        assert_golden("table09", result)
        assert task_list(context) == (
            "44d66af8f4e87fda8fd9c66aa2d273706b872e149d1b951ea642e015b13490d2"
        )

    def test_fig13_structure(self, context):
        result = figures.fig13_smt_bandit_vs_choi(num_mixes=2, scale=TINY_SMT)
        assert len(result["ratios_sorted"]) == 2
        assert result["gmean_vs_choi"] > 0
        assert_golden("fig13", result)
        assert task_list(context) == (
            "edb386575a4f18d8371453283bedb57f99ab3e1992dc7bda6a221cdd37f1dc6b"
        )

    def test_fig15_structure(self, context):
        result = figures.fig15_rename_activity(num_mixes=1, scale=TINY_SMT)
        for metrics in result.values():
            total = metrics["stalled_any"] + metrics["idle"] + metrics["running"]
            assert total == pytest.approx(1.0, abs=1e-6)
        assert_golden("fig15", result)
        assert task_list(context) == (
            "5cbbac9e58b10557b8ce0518513f8e1ff0c09614dc47aaa3b67835424f9b39c7"
        )

    def test_fig07_structure(self, context):
        kwargs = dict(
            trace_length=TINY_TRACE,
            prefetch_workloads=("bwaves06",),
            smt_mixes=(("gcc", "lbm"),),
            scale=TINY_SMT,
        )
        result = figures.fig07_exploration_traces(**kwargs)
        assert set(result) == {"prefetch:bwaves06", "smt:gcc-lbm"}
        for scenario in result.values():
            assert set(scenario) == {"BestStatic", "Single", "UCB", "DUCB"}
        assert_golden("fig07", result)
        # 1 baseline + 11 arms + 3 bandits, then 6 PG arms + 3 bandits.
        assert len(context.telemetry.tasks) == 24
        assert task_list(context) == (
            "0fe15588b0e49efe0b9c421953c8f39482da0abb72ef731718dfb8b62e6bf263"
        )
        # Every replay goes through the runner, so a second render under
        # the same cache executes nothing.
        warm = ExecutionContext(cache=context.cache)
        with use_context(warm):
            assert figures.fig07_exploration_traces(**kwargs) == result
        assert warm.telemetry.cache_hits == 24
        assert warm.telemetry.cache_misses == 0


class TestSec65:
    def test_structure(self):
        result = figures.sec65_area_power()
        assert result["storage_bytes"] == 88
        assert result["area_fraction_of_icelake"] < 1.0
        assert_golden("sec65", result)


class TestGoldenTable:
    """The pins above are read from one table keyed by cache version."""

    def test_current_version_is_pinned(self):
        assert CACHE_SCHEMA_VERSION in GOLDEN_DIGESTS

    def test_moved_digest_asks_for_a_version_bump(self):
        with pytest.raises(AssertionError) as excinfo:
            assert_golden("fig02", {"moved": 1.0})
        message = str(excinfo.value)
        assert "'fig02'" in message
        assert GOLDEN_DIGESTS[CACHE_SCHEMA_VERSION]["fig02"] in message
        assert digest({"moved": 1.0}) in message
        assert ("bump CACHE_SCHEMA_VERSION in experiments/runner.py and pin "
                "the new digest under the new version") in message

    def test_unpinned_name_fails(self):
        with pytest.raises(AssertionError, match="no golden digest 'nosuch'"):
            assert_golden("nosuch", {})
