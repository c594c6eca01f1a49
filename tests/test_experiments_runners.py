"""Integration tests for the experiment runners (small but end-to-end)."""

import pytest

from repro.bandit.base import BanditConfig
from repro.bandit.ducb import DUCB
from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.prefetch import (
    best_static_arm,
    make_prefetcher,
    run_bandit_prefetch,
    run_fixed_arm,
    run_fixed_prefetcher,
    run_multicore_bandit,
    run_multicore_fixed,
)
from repro.experiments.smt import SMTScale, run_smt_bandit, run_smt_static
from repro.smt.pg_policy import CHOI_POLICY
from repro.workloads.smt import smt_tune_mixes
from repro.workloads.suites import spec_by_name

from dataclasses import replace


TRACE = spec_by_name("bwaves06").trace(6000, seed=1)
POINTER = spec_by_name("omnetpp06").trace(4000, seed=1)
FAST_SCALE = SMTScale(epoch_cycles=200, total_epochs=30, step_epochs=1,
                      step_epochs_rr=1)
SMALL_PARAMS = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=50)


class TestMakePrefetcher:
    @pytest.mark.parametrize(
        "name", ["none", "stride", "mlop", "bingo", "ipcp", "pythia"]
    )
    def test_known_names(self, name):
        prefetcher = make_prefetcher(name)
        if name == "none":
            assert prefetcher is None
        else:
            assert prefetcher is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_prefetcher("magic")


class TestBandwidthProbe:
    class _FakeDram:
        cycles_per_line = 10.0

        def __init__(self, delay):
            self._delay = delay

        def average_queue_delay(self):
            return self._delay

    def probe(self, delay):
        from repro.experiments.prefetch import _make_bandwidth_probe

        holder = [self._FakeDram(delay)]
        return _make_bandwidth_probe(holder)

    def test_high_usage_above_four_line_times(self):
        assert self.probe(41.0)() == 1.0

    def test_low_usage_at_or_below_threshold(self):
        assert self.probe(40.0)() == 0.0
        assert self.probe(0.0)() == 0.0

    def test_empty_holder_reads_low(self):
        from repro.experiments.prefetch import _make_bandwidth_probe

        assert _make_bandwidth_probe([])() == 0.0
        assert _make_bandwidth_probe(None)() == 0.0


class TestSingleCoreRunners:
    def test_fixed_prefetcher_result(self):
        result = run_fixed_prefetcher(TRACE, "stride")
        assert result.ipc > 0
        assert result.instructions > len(TRACE)
        assert result.stats.loads + result.stats.stores == len(TRACE)

    def test_prefetching_beats_none_on_stream(self):
        base = run_fixed_prefetcher(TRACE, "none").ipc
        stride = run_fixed_prefetcher(TRACE, "stride").ipc
        assert stride > base * 1.05

    def test_fixed_arm_runs(self):
        result = run_fixed_arm(TRACE, arm=0)
        assert result.arm_history == [0]
        assert result.ipc > 0

    def test_best_static_arm_orders_arms(self):
        best, per_arm = best_static_arm(TRACE)
        assert best in per_arm
        assert per_arm[best] == max(per_arm.values())
        assert len(per_arm) == 11
        # On a streaming trace, the all-off arm is not the best.
        assert best != 1

    def test_bandit_run_learns_on_stream(self):
        result = run_bandit_prefetch(TRACE, params=SMALL_PARAMS, seed=0)
        assert len(result.arm_history) > 11  # beyond the RR phase
        off_ipc = run_fixed_arm(TRACE, arm=1).ipc
        assert result.ipc > off_ipc

    def test_bandit_avoids_harmful_prefetch_on_pointer_chase(self):
        result = run_bandit_prefetch(POINTER, params=SMALL_PARAMS, seed=0)
        aggressive = run_fixed_arm(POINTER, arm=10).ipc
        assert result.ipc >= aggressive * 0.95

    def test_bandit_ideal_latency(self):
        result = run_bandit_prefetch(
            TRACE, params=SMALL_PARAMS, seed=0, ideal_latency=True
        )
        assert result.ipc > 0

    def test_arm_trace_recorded(self):
        result = run_bandit_prefetch(TRACE, params=SMALL_PARAMS, seed=0)
        cycles = [cycle for cycle, _ in result.arm_trace]
        assert cycles == sorted(cycles)

    def test_custom_algorithm_used(self):
        algorithm = DUCB(BanditConfig(num_arms=11, seed=5))
        result = run_bandit_prefetch(TRACE, algorithm=algorithm,
                                     params=SMALL_PARAMS)
        assert result.arm_history == algorithm.selection_history


class TestMulticoreRunners:
    TRACES = [spec_by_name("bwaves06").trace(2500, seed=s) for s in range(4)]

    def test_fixed_multicore(self):
        total, system = run_multicore_fixed(self.TRACES, "stride")
        assert total > 0
        assert len(system.cores) == 4

    def test_bandit_multicore(self):
        total, system = run_multicore_bandit(
            self.TRACES, params=SMALL_PARAMS, seed=0
        )
        assert total > 0
        # Every core ran its own bandit: all ensembles configured.
        for hierarchy in system.hierarchies:
            assert hierarchy.l2_prefetcher is not None

    def test_bandit_multicore_no_restart(self):
        total, _ = run_multicore_bandit(
            self.TRACES, params=SMALL_PARAMS, seed=0, rr_restart=False
        )
        assert total > 0


class TestSMTRunners:
    MIX = smt_tune_mixes()[1]

    def test_static_run(self):
        result = run_smt_static(self.MIX, CHOI_POLICY, FAST_SCALE)
        assert result.ipc > 0
        assert sum(result.per_thread) > 0

    def test_bandit_run(self):
        result = run_smt_bandit(self.MIX, FAST_SCALE)
        assert result.ipc > 0
        assert len(result.arm_history) >= 6

    @pytest.mark.parametrize(
        "knob", ["epoch_cycles", "total_epochs", "step_epochs", "step_epochs_rr"]
    )
    def test_scale_rejects_non_positive_knobs(self, knob):
        """A zero step would hang the epoch-budget loop; zero epochs or
        cycles divide by zero. Both must fail before any simulation."""
        for value in (0, -1):
            with pytest.raises(ValueError, match=knob):
                SMTScale(**{knob: value})
