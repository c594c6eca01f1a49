"""Tests for the batched lane replay kernel (``REPRO_LANE_KERNEL``)."""

import dataclasses

import pytest

from repro.core_model.lane_kernel import (
    LANE_KERNEL_ENV,
    LaneSpec,
    lane_batch_fallback_reason,
    lane_kernel_mode,
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
    @pytest.mark.parametrize("mode", ["dict"])
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

    @pytest.mark.parametrize("mode", ["dict"])
    def test_selection_ready_on_hit_row_matches_scalar(self, monkeypatch,
                                                       mode):
        """On soplex06 pending selections come ready on L1-hit rows, which
        the kernel applies by a deferred fire at the next miss row."""
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


class TestDistinctLanes:
    def test_kernel_replays_each_distinct_lane_once(self, trace,
                                                    monkeypatch):
        """Copies of a lane replay once; each still equals its own replay.

        A lane's replay reads its kind and, for an arm lane, its arm:
        single-core DUCB never draws from its RNG, so bandit seeds 0, 5
        and 9 are copies of one lane, and arm 3 twice is one lane. The
        kernel gets the three distinct lanes; every requested lane's
        result must still equal the scalar runner with that lane's own
        seed, so a DUCB that read its seed would fail here.
        """
        import repro.core_model.lane_kernel as lk

        monkeypatch.setenv(LANE_KERNEL_ENV, "dict")
        lanes = [
            LaneSpec("none"),
            LaneSpec("arm", arm=3),
            LaneSpec("arm", arm=3),
            LaneSpec("bandit", seed=0),
            LaneSpec("bandit", seed=5),
            LaneSpec("bandit", seed=9),
        ]
        kernel_lanes = []
        real_kernel = lk._lane_kernel

        def spy(trace, lanes, *args, **kwargs):
            kernel_lanes.append(list(lanes))
            return real_kernel(trace, lanes, *args, **kwargs)

        monkeypatch.setattr(lk, "_lane_kernel", spy)
        batch = run_lane_batch(
            trace, lanes, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
            PARAMS,
        )
        assert kernel_lanes == [[
            LaneSpec("none"), LaneSpec("arm", arm=3),
            LaneSpec("bandit", seed=0),
        ]]
        assert len(batch) == len(lanes)
        for lane, got in zip(lanes, batch):
            assert got == _scalar_reference(
                trace, lane, BASELINE_HIERARCHY_CONFIG
            )


class TestModeSelection:
    def test_default_mode_is_dict(self, monkeypatch):
        monkeypatch.delenv(LANE_KERNEL_ENV, raising=False)
        assert lane_kernel_mode() == "dict"

    def test_retired_array_value_selects_the_kernel(self, monkeypatch):
        """Benchmark probes still set ``array``: it runs the batched path."""
        monkeypatch.setenv(LANE_KERNEL_ENV, "array")
        assert lane_kernel_mode() == "dict"


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
        monkeypatch.setenv(LANE_KERNEL_ENV, "dict")
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

    @pytest.mark.parametrize("mode", ["dict"])
    def test_sanitizer_catches_kernel_skew(self, trace, monkeypatch, mode):
        """A perturbed lane kernel must be caught lane-by-lane."""
        import repro.core_model.lane_kernel as lk

        monkeypatch.setenv(LANE_KERNEL_ENV, mode)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        real_kernel = lk._lane_kernel

        def skewed(*args, **kwargs):
            results, checkpoints, step_logs = real_kernel(*args, **kwargs)
            bad = dataclasses.replace(results[-1], cycles=results[-1].cycles + 1.0)
            return results[:-1] + [bad], checkpoints, step_logs

        monkeypatch.setattr(lk, "_lane_kernel", skewed)
        with pytest.raises(SanitizeDivergence):
            run_lane_batch(
                trace, LANES, BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4,
                PARAMS,
            )

