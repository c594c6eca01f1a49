"""Tests for the batched lane replay kernel (``REPRO_LANE_KERNEL``)."""

import dataclasses

import numpy as np
import pytest

from repro.core_model.lane_kernel import (
    AUTO_ARRAY_MIN_LANES,
    LANE_KERNEL_ENV,
    LaneSpec,
    lane_batch_fallback_reason,
    lane_kernel_mode,
    resolve_lane_kernel_mode,
    run_lane_batch,
)
from repro.core_model.sanitizer import SANITIZE_ENV, SanitizeDivergence
from repro.experiments.configs import (
    ALT_HIERARCHY_CONFIG,
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
)
from repro.experiments.prefetch import (
    run_bandit_prefetch,
    run_fixed_arm,
    run_fixed_prefetcher,
)
from repro.workloads.compiled import compiled_trace_for

TRACE_LENGTH = 1_200
#: A short bandit step so the 1.2k-record trace spans many decisions.
PARAMS = dataclasses.replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=30)

LANES = [
    LaneSpec("none"),
    LaneSpec("arm", arm=0),
    LaneSpec("arm", arm=7),
    LaneSpec("bandit", seed=0),
    LaneSpec("bandit", seed=3),
]


@pytest.fixture(scope="module")
def trace():
    return compiled_trace_for("bwaves06", TRACE_LENGTH, seed=0)


def _scalar_reference(trace, lane, hierarchy_config):
    if lane.kind == "none":
        return run_fixed_prefetcher(
            trace, "none", hierarchy_config, CORE_CONFIG_TABLE4
        )
    if lane.kind == "arm":
        return run_fixed_arm(
            trace, lane.arm, hierarchy_config, CORE_CONFIG_TABLE4
        )
    return run_bandit_prefetch(
        trace, hierarchy_config=hierarchy_config,
        core_config=CORE_CONFIG_TABLE4, params=PARAMS, seed=lane.seed,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["array", "dict"])
    @pytest.mark.parametrize(
        "hierarchy_config", [BASELINE_HIERARCHY_CONFIG, ALT_HIERARCHY_CONFIG],
        ids=["baseline", "alt"],
    )
    def test_matches_scalar_runners_lane_by_lane(self, trace, monkeypatch,
                                                 hierarchy_config, mode):
        monkeypatch.setenv(LANE_KERNEL_ENV, mode)
        assert lane_batch_fallback_reason(trace, LANES, PARAMS) is None
        batch = run_lane_batch(
            trace, LANES, hierarchy_config, CORE_CONFIG_TABLE4, PARAMS
        )
        for lane, got in zip(LANES, batch):
            assert got == _scalar_reference(trace, lane, hierarchy_config)

    @pytest.mark.parametrize("mode", ["array", "dict"])
    def test_selection_ready_on_hit_row_matches_scalar(self, monkeypatch,
                                                       mode):
        """On soplex06 pending selections come ready on L1-hit rows, which
        the kernels apply by a deferred fire at the next miss row."""
        monkeypatch.setenv(LANE_KERNEL_ENV, mode)
        trace = compiled_trace_for("soplex06", TRACE_LENGTH, seed=0)
        lanes = [LaneSpec("bandit", seed=seed) for seed in range(4)]
        batch = run_lane_batch(
            trace, lanes, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        for lane, got in zip(lanes, batch):
            assert got == _scalar_reference(
                trace, lane, BASELINE_HIERARCHY_CONFIG
            )

    def test_disabled_env_falls_back_to_identical_results(self, trace,
                                                          monkeypatch):
        monkeypatch.setenv(LANE_KERNEL_ENV, "1")
        kernel = run_lane_batch(
            trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        monkeypatch.setenv(LANE_KERNEL_ENV, "0")
        assert lane_kernel_mode() == "scalar"
        scalar = run_lane_batch(
            trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        assert kernel == scalar

    def test_dict_kernel_matches_array_kernel(self, trace, monkeypatch):
        """The narrow-batch dict kernel stays a bit-exact oracle."""
        monkeypatch.setenv(LANE_KERNEL_ENV, "array")
        assert lane_kernel_mode() == "array"
        array_batch = run_lane_batch(
            trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        monkeypatch.setenv(LANE_KERNEL_ENV, "dict")
        assert lane_kernel_mode() == "dict"
        dict_batch = run_lane_batch(
            trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        assert array_batch == dict_batch


class TestAutoRouting:
    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv(LANE_KERNEL_ENV, raising=False)
        assert lane_kernel_mode() == "auto"

    def test_auto_resolves_by_batch_width(self, monkeypatch):
        monkeypatch.delenv(LANE_KERNEL_ENV, raising=False)
        assert resolve_lane_kernel_mode(len(LANES)) == "dict"
        assert resolve_lane_kernel_mode(AUTO_ARRAY_MIN_LANES - 1) == "dict"
        assert resolve_lane_kernel_mode(AUTO_ARRAY_MIN_LANES) == "array"

    def test_explicit_mode_ignores_batch_width(self, monkeypatch):
        monkeypatch.setenv(LANE_KERNEL_ENV, "array")
        assert resolve_lane_kernel_mode(1) == "array"
        monkeypatch.setenv(LANE_KERNEL_ENV, "dict")
        assert resolve_lane_kernel_mode(10_000) == "dict"
        monkeypatch.setenv(LANE_KERNEL_ENV, "0")
        assert resolve_lane_kernel_mode(10_000) == "scalar"


class TestEligibilityRouting:
    def test_raw_record_traces_are_ineligible(self, trace):
        records = trace.to_records()
        assert lane_batch_fallback_reason(records, LANES, PARAMS) is not None

    def test_out_of_range_arm_is_ineligible(self, trace):
        lanes = [LaneSpec("arm", arm=99)]
        assert lane_batch_fallback_reason(trace, lanes, PARAMS) is not None

    def test_zero_step_budget_bandit_is_ineligible(self, trace):
        params = dataclasses.replace(PARAMS, step_l2_accesses=0)
        assert lane_batch_fallback_reason(
            trace, [LaneSpec("bandit", seed=0)], params
        ) is not None

    def test_fallback_reason_names_the_cause(self, trace):
        assert lane_batch_fallback_reason(trace, LANES, PARAMS) is None
        reason = lane_batch_fallback_reason(
            trace.to_records(), LANES, PARAMS
        )
        assert reason == "trace is not a CompiledTrace"
        reason = lane_batch_fallback_reason(
            trace, [LaneSpec("arm", arm=99)], PARAMS
        )
        assert "out of range" in reason
        params = dataclasses.replace(PARAMS, step_l2_accesses=0)
        reason = lane_batch_fallback_reason(
            trace, [LaneSpec("bandit", seed=0)], params
        )
        assert "step_l2_accesses" in reason

    def test_ineligible_batch_still_returns_scalar_results(self, trace,
                                                           monkeypatch):
        """An ineligible batch routes around the kernel, not into a crash."""
        monkeypatch.setenv(LANE_KERNEL_ENV, "1")
        records = trace.to_records()
        lanes = [LaneSpec("none"), LaneSpec("arm", arm=1)]
        batch = run_lane_batch(
            records, lanes, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        assert batch[0] == run_fixed_prefetcher(
            records, "none", BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4
        )
        assert batch[1] == run_fixed_arm(
            records, 1, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4
        )

    def test_empty_batch_is_empty(self, trace):
        assert run_lane_batch(
            trace, [], BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4, PARAMS
        ) == []


class TestSanitizedBatch:
    def test_sanitized_batch_matches_plain(self, trace, monkeypatch):
        monkeypatch.setenv(LANE_KERNEL_ENV, "array")
        plain = run_lane_batch(
            trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        monkeypatch.setenv(SANITIZE_ENV, "1")
        sanitized = run_lane_batch(
            trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        assert sanitized == plain

    def test_sanitizer_catches_kernel_skew(self, trace, monkeypatch):
        """A perturbed lane kernel must be caught lane-by-lane."""
        import repro.core_model.lane_kernel as lk

        monkeypatch.setenv(LANE_KERNEL_ENV, "array")
        monkeypatch.setenv(SANITIZE_ENV, "1")
        real_kernel = lk._lane_kernel_array

        def skewed(*args, **kwargs):
            results, checkpoints, step_logs = real_kernel(*args, **kwargs)
            bad = dataclasses.replace(results[-1], cycles=results[-1].cycles + 1.0)
            return results[:-1] + [bad], checkpoints, step_logs

        monkeypatch.setattr(lk, "_lane_kernel_array", skewed)
        with pytest.raises(SanitizeDivergence):
            run_lane_batch(
                trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
                PARAMS,
            )


class TestDuplicateScatterRegression:
    """Why the array kernel's fill accounting uses ``np.add.at``.

    ``_fill_l2_rows``-style accounting: a wave of fills carries one row
    per lane *today*, but if a batch ever repeats a lane, buffered fancy
    ``+=`` silently drops every duplicate while ``np.add.at`` matches the
    scalar reference loop bit-for-bit.
    """

    ROWS = np.array([0, 3, 3, 3, 1, 0], dtype=np.intp)
    VICTIMS = np.array([5, 9, 13, 4, 1, 21], dtype=np.int64)

    def scalar_reference(self):
        pf_wrong = np.zeros(4, dtype=np.int64)
        for row, victim in zip(self.ROWS, self.VICTIMS):
            if (victim & 3) == 1:
                pf_wrong[row] += 1
        return pf_wrong

    def test_buffered_fancy_add_drops_duplicates(self):
        wrong = (self.VICTIMS & 3) == 1
        pf_wrong = np.zeros(4, dtype=np.int64)
        pf_wrong[self.ROWS[wrong]] += 1
        reference = self.scalar_reference()
        # Row 3 takes two wrong-path victims (9 and 13); the buffered
        # gather-modify-scatter applies only one of them.
        assert reference[3] == 2
        assert pf_wrong[3] == 1
        assert not np.array_equal(pf_wrong, reference)

    def test_unbuffered_add_at_matches_scalar_loop(self):
        wrong = (self.VICTIMS & 3) == 1
        pf_wrong = np.zeros(4, dtype=np.int64)
        np.add.at(pf_wrong, self.ROWS[wrong], 1)
        assert np.array_equal(pf_wrong, self.scalar_reference())

    def test_unique_rows_make_both_forms_agree(self):
        # The kernel's plain fancy += sites rely on exactly this: with one
        # fill per lane the buffered and unbuffered forms coincide.
        rows = np.array([2, 0, 3], dtype=np.intp)
        buffered = np.zeros(4, dtype=np.int64)
        buffered[rows] += 1
        exact = np.zeros(4, dtype=np.int64)
        np.add.at(exact, rows, 1)
        assert np.array_equal(buffered, exact)
