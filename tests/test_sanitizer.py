"""Tests for the runtime equivalence sanitizer (REPRO_SANITIZE).

Under the sanitizer every runner call goes through ``run_checked``, which
runs the fast path and its reference on fresh stacks and must (a) pass
silently when they agree, without changing any result, and (b) abort with
a first-divergence report (step, field, both values) when they do not.
The divergence cases perturb the fused replay kernel only, so the object
path stays the reference.
"""

import gc
from dataclasses import dataclass

import pytest

import repro.core_model.trace_core as trace_core_module
from repro.core_model.sanitizer import (
    SANITIZE_ENV,
    SanitizeDivergence,
    StepRecord,
    compare_step_logs,
    run_checked,
    sanitize_enabled,
)
from repro.core_model.smt_kernel import KERNEL_ENV
from repro.experiments.configs import scaled_prefetch_params
from repro.experiments.prefetch import (
    run_bandit_prefetch,
    run_fixed_arm,
    run_fixed_prefetcher,
)
from repro.experiments.runner import bandit_prefetch_task, smt_bandit_task
from repro.experiments.smt import SMTScale
from repro.workloads.compiled import CompiledTrace
from repro.workloads.suites import tune_specs

TRACE_LENGTH = 4000


@pytest.fixture(scope="module")
def compiled_trace():
    spec = tune_specs()[0]
    return CompiledTrace.from_records(spec.trace(TRACE_LENGTH, seed=0))


@pytest.fixture
def sanitize_env(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")


def perturb_kernel(monkeypatch):
    """Make the fused kernel see one extra instruction in the first gap."""
    real_kernel = trace_core_module.run_replay_kernel

    def skewed(core, pcs, blocks, all_flags, gaps, record_hook=None):
        gaps = [gaps[0] + 1, *gaps[1:]]
        return real_kernel(core, pcs, blocks, all_flags, gaps, record_hook)

    monkeypatch.setattr(trace_core_module, "run_replay_kernel", skewed)


class TestEnablement:
    def test_env_parsing(self, monkeypatch):
        for value in ("", "0", "false", "no", "off"):
            monkeypatch.setenv(SANITIZE_ENV, value)
            assert not sanitize_enabled()
        for value in ("1", "true", "yes", "on"):
            monkeypatch.setenv(SANITIZE_ENV, value)
            assert sanitize_enabled()
        monkeypatch.delenv(SANITIZE_ENV)
        assert not sanitize_enabled()


class TestCompareStepLogs:
    LOG = [
        StepRecord(step=1, instructions=10, cycles=5.0, ipc=2.0,
                   l2_demand_accesses=3),
        StepRecord(step=2, instructions=20, cycles=10.0, ipc=2.0,
                   l2_demand_accesses=7, arm=4,
                   reward_estimates=(0.5, 0.25)),
    ]

    def test_equal_logs_pass(self):
        compare_step_logs(list(self.LOG), list(self.LOG), "unit")

    def test_first_divergence_is_reported(self):
        skewed = [
            self.LOG[0],
            StepRecord(step=2, instructions=21, cycles=10.0, ipc=2.0,
                       l2_demand_accesses=7, arm=5,
                       reward_estimates=(0.5, 0.25)),
        ]
        with pytest.raises(SanitizeDivergence) as info:
            compare_step_logs(list(self.LOG), skewed, "unit")
        error = info.value
        # instructions differs before arm: the report names the first field.
        assert error.step == 2
        assert error.field_name == "instructions"
        assert error.kernel_value == 20
        assert error.object_value == 21
        assert "step 2" in str(error)
        assert "unit" in str(error)

    def test_length_mismatch_is_divergence(self):
        with pytest.raises(SanitizeDivergence) as info:
            compare_step_logs(list(self.LOG), list(self.LOG[:1]), "unit")
        assert info.value.field_name == "checkpoint count"


class TestCollectorPause:
    """``run_checked`` pauses the cycle collector for the whole call and
    leaves it as it found it: on the plain and the sanitized branch, and
    when ``run`` raises."""

    @dataclass(frozen=True)
    class _Result:
        value: int

    @pytest.fixture(params=[False, True], ids=["plain", "sanitized"])
    def sanitized(self, request, monkeypatch):
        if request.param:
            monkeypatch.setenv(SANITIZE_ENV, "1")
        else:
            monkeypatch.delenv(SANITIZE_ENV, raising=False)
        return request.param

    @pytest.fixture(params=[True, False], ids=["found-on", "found-off"])
    def found_enabled(self, request):
        was_enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_while_run_executes(self, sanitized, found_enabled):
        collector_on = []

        def run(reference, log):
            collector_on.append(gc.isenabled())
            return self._Result(1)

        assert run_checked("unit", True, run) == self._Result(1)
        assert collector_on == [False] * (2 if sanitized else 1)
        assert gc.isenabled() is found_enabled

    def test_restored_when_run_raises(self, sanitized, found_enabled):
        calls = []

        def run(reference, log):
            calls.append(reference)
            # Under the sanitizer the fast run passes, the reference raises.
            if reference or not sanitized:
                raise RuntimeError("run failed")
            return self._Result(1)

        with pytest.raises(RuntimeError, match="run failed"):
            run_checked("unit", True, run)
        assert calls == ([False, True] if sanitized else [False])
        assert gc.isenabled() is found_enabled


class TestHookFreeReplay:
    def test_sanitized_replay_matches_plain(self, compiled_trace,
                                            monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = run_fixed_prefetcher(compiled_trace)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        checked = run_fixed_prefetcher(compiled_trace)
        assert checked == plain

    def test_env_variable_switches_it_on(self, compiled_trace, monkeypatch):
        perturb_kernel(monkeypatch)
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        run_fixed_arm(compiled_trace, 5)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(SanitizeDivergence) as info:
            run_fixed_arm(compiled_trace, 5)
        assert info.value.context == "run_fixed_arm"

    def test_perturbed_kernel_reports_first_divergence(self, compiled_trace,
                                                       sanitize_env,
                                                       monkeypatch):
        perturb_kernel(monkeypatch)
        with pytest.raises(SanitizeDivergence) as info:
            run_fixed_prefetcher(compiled_trace)
        error = info.value
        assert error.field_name == "instructions"
        assert error.kernel_value == error.object_value + 1


class TestExperimentRunners:
    def test_sanitized_bandit_run_is_bit_identical(self, compiled_trace,
                                                   monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        checked = run_bandit_prefetch(compiled_trace, seed=0)
        monkeypatch.delenv(SANITIZE_ENV)
        plain = run_bandit_prefetch(compiled_trace, seed=0)
        assert checked == plain

    def test_sanitized_bandit_catches_kernel_skew(self, compiled_trace,
                                                  sanitize_env, monkeypatch):
        perturb_kernel(monkeypatch)
        with pytest.raises(SanitizeDivergence) as info:
            run_bandit_prefetch(compiled_trace, seed=0)
        error = info.value
        assert error.context == "run_bandit_prefetch"
        assert error.field_name == "instructions"

    def test_sanitized_bandit_compares_final_stats(self, compiled_trace,
                                                   sanitize_env, monkeypatch):
        """A kernel that miscounts one late prefetch after its last step
        leaves every step record equal; Figure 9 reports that count, so
        the final result must be compared too."""
        real_kernel = trace_core_module.run_replay_kernel

        def one_more_late(core, *args):
            real_kernel(core, *args)
            core.hierarchy.stats.prefetch.late += 1

        monkeypatch.setattr(
            trace_core_module, "run_replay_kernel", one_more_late
        )
        with pytest.raises(SanitizeDivergence) as info:
            run_bandit_prefetch(compiled_trace, seed=0)
        assert info.value.context == "run_bandit_prefetch"
        assert info.value.field_name == "stats.prefetch.late"
        assert info.value.kernel_value == info.value.object_value + 1

    def test_sanitized_fixed_prefetcher_runs(self, compiled_trace,
                                             monkeypatch):
        # Pythia's bandwidth probe closes over the live hierarchy, so each
        # path must build its own stack.
        monkeypatch.setenv(SANITIZE_ENV, "1")
        checked = run_fixed_prefetcher(compiled_trace, "pythia")
        monkeypatch.delenv(SANITIZE_ENV)
        plain = run_fixed_prefetcher(compiled_trace, "pythia")
        assert checked == plain

    def test_sanitized_fixed_arm_runs(self, compiled_trace, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        checked = run_fixed_arm(compiled_trace, 5)
        monkeypatch.delenv(SANITIZE_ENV)
        assert checked == run_fixed_arm(compiled_trace, 5)
        assert checked.arm_history == [5]


class TestAlgorithmLineups:
    """The caller's algorithm drives the fast run, and the reference run
    gets a copy taken before either starts, so it replays from the same
    untrained state; a sanitized run returns what a plain one does."""

    @pytest.mark.parametrize("algorithm_name", ["eGreedy", "Periodic", "DUCB"])
    def test_table08_bandit_task(self, algorithm_name, monkeypatch):
        kwargs = dict(
            spec_name=tune_specs()[1].name,
            trace_length=TRACE_LENGTH,
            params=scaled_prefetch_params(2_000),
            algorithm_name=algorithm_name,
        )
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = bandit_prefetch_task(**kwargs)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert bandit_prefetch_task(**kwargs) == plain
        # The agent chose arms of its own after the 11-arm round robin.
        assert len(plain.arm_history) > 11

    @pytest.mark.parametrize("algorithm_name", ["eGreedy", "UCB"])
    def test_table09_smt_bandit_task(self, algorithm_name, monkeypatch):
        kwargs = dict(
            thread_names=("gcc", "lbm"),
            scale=SMTScale(epoch_cycles=200, total_epochs=30),
            algorithm_name=algorithm_name,
        )
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = smt_bandit_task(**kwargs)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert smt_bandit_task(**kwargs) == plain
        # The agent chose arms of its own after the 6-arm round robin.
        assert len(plain.arm_history) > 6
