"""Randomized tri-path bit-identity properties for the lane kernel.

The batched kernel with its array memory side, with its narrow-batch dict
side, and the scalar runners are three implementations of the same replay
semantics; every divergence is a bug in exactly one of them. These tests
drive all three over randomized small traces and deliberately hostile
hierarchy geometries — tiny set counts so eviction order matters from the
first few records, single-digit MSHR budgets so fills supersede and stall,
and aggressive prefetch arms so wrong-victim accounting triggers — and
demand bit-identical results lane by lane.
"""

import dataclasses
import os

from hypothesis import example, given, settings, strategies as st

from repro.core_model.lane_kernel import LANE_KERNEL_ENV, LaneSpec, run_lane_batch
from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
)
from repro.workloads.compiled import compiled_trace_for

#: Short bandit steps so a few-hundred-record trace spans many decisions.
PARAMS = dataclasses.replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=20)

LANES = [
    LaneSpec("none"),
    LaneSpec("arm", arm=0),
    LaneSpec("arm", arm=5),
    LaneSpec("arm", arm=7),
    LaneSpec("bandit", seed=0),
    LaneSpec("bandit", seed=1),
]

BLOCK = BASELINE_HIERARCHY_CONFIG.block_bytes


def _tiny_hierarchy(l2_sets, l2_ways, llc_sets, llc_ways, mshr, inflight):
    return dataclasses.replace(
        BASELINE_HIERARCHY_CONFIG,
        l2_size_bytes=l2_sets * l2_ways * BLOCK,
        l2_ways=l2_ways,
        llc_size_bytes=llc_sets * llc_ways * BLOCK,
        llc_ways=llc_ways,
        mshr_entries=mshr,
        max_inflight_prefetches=inflight,
    )


def _run_mode(mode, trace, hierarchy):
    previous = os.environ.get(LANE_KERNEL_ENV)
    os.environ[LANE_KERNEL_ENV] = mode
    try:
        return run_lane_batch(
            trace, LANES, hierarchy, CORE_CONFIG_TABLE4, PARAMS
        )
    finally:
        if previous is None:
            os.environ.pop(LANE_KERNEL_ENV, None)
        else:
            os.environ[LANE_KERNEL_ENV] = previous


def _assert_tri_path_identical(trace, hierarchy):
    array = _run_mode("array", trace, hierarchy)
    assert _run_mode("dict", trace, hierarchy) == array
    assert _run_mode("scalar", trace, hierarchy) == array


class TestRandomizedTriPathIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        workload=st.sampled_from(["bwaves06", "milc06", "mcf06"]),
        length=st.integers(min_value=300, max_value=800),
        seed=st.integers(min_value=0, max_value=4),
        l2_sets=st.sampled_from([4, 8, 16]),
        l2_ways=st.integers(min_value=1, max_value=4),
        llc_sets=st.sampled_from([8, 16, 32]),
        llc_ways=st.integers(min_value=1, max_value=4),
        mshr=st.integers(min_value=2, max_value=8),
        inflight=st.integers(min_value=1, max_value=8),
    )
    # A dependent load that hits in L1 runs past the next miss row's cycle;
    # the batched kernels once drained the MSHR only up to miss-row cycles.
    @example(workload="mcf06", length=390, seed=2, l2_sets=4, l2_ways=1,
             llc_sets=8, llc_ways=1, mshr=2, inflight=1)
    def test_random_geometry_and_trace(self, workload, length, seed, l2_sets,
                                       l2_ways, llc_sets, llc_ways, mshr,
                                       inflight):
        trace = compiled_trace_for(workload, length, seed=seed)
        hierarchy = _tiny_hierarchy(l2_sets, l2_ways, llc_sets, llc_ways,
                                    mshr, inflight)
        _assert_tri_path_identical(trace, hierarchy)


class TestCornerGeometries:
    """Pinned geometries that each force one victim/fill corner."""

    def test_eviction_order_direct_mapped(self):
        """Single-way caches: every conflicting fill evicts, so any LRU
        bookkeeping skew between the kernels surfaces immediately."""
        trace = compiled_trace_for("milc06", 600, seed=0)
        _assert_tri_path_identical(trace, _tiny_hierarchy(8, 1, 16, 1, 4, 4))

    def test_dirty_writeback_cascade(self):
        """Tiny L2 over a store-heavy trace: dirty victims cascade into
        LLC fills, which themselves evict."""
        trace = compiled_trace_for("mcf06", 700, seed=1)
        _assert_tri_path_identical(trace, _tiny_hierarchy(4, 2, 8, 2, 6, 4))

    def test_superseded_mshr_entries(self):
        """A 2-entry MSHR forces merges and drops while prefetches are in
        flight, exercising the fill queue's supersede path."""
        trace = compiled_trace_for("bwaves06", 600, seed=2)
        _assert_tri_path_identical(trace, _tiny_hierarchy(8, 2, 16, 2, 2, 2))

    def test_prefetch_wrong_victim_accounting(self):
        """Thrash trace + tiny L2: prefetched-never-used lines are evicted
        constantly, so the pf_wrong counters must match bit for bit."""
        trace = compiled_trace_for("milc06", 800, seed=3)
        _assert_tri_path_identical(trace, _tiny_hierarchy(4, 2, 32, 4, 8, 8))
