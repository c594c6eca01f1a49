"""Differential properties: every fast path equals its reference path.

The simulator keeps fast kernels next to the object-model reference they
transcribe. These tests drive both sides over randomized inputs and demand
bit-identical results:

- **Replay.** The fused replay kernel (a ``CompiledTrace``) against the
  object path (the same trace as ``TraceRecord`` objects) for every
  comparator prefetcher, every ensemble arm and the bandit, over hostile
  hierarchies: 1-16 sets of 1-4 ways at every level, single-entry MSHRs
  and prefetch budgets, and DRAM from 150 to 9600 MT/s. The prefetcher
  and bandit runners also draw Figure 12's L1 prefetchers, which send a
  compiled trace down the object path instead of the kernel.
- **Replay state.** The same draws without L1 prefetchers, compared on
  the whole state the two replays leave behind rather than on results:
  every cache set's ``(block, prefetched, dirty)`` lines in dict order,
  which is recency order, the MSHR, every field of the DRAM model and the
  hierarchy stats, before and after ``finalize``.
- **SMT.** The fused cycle kernel against the ``SMTPipeline`` object path
  over evaluation mixes, all 64 PG policies, random pipeline configs
  (widths, queue and register-file sizes, memory latencies, the
  branch-redirect penalty), random long-op latencies, random epoch
  lengths, and epoch budgets that leave a partial bandit step at the end.
  Every latency range includes 0: a zero-latency producer makes a younger
  consumer ready in the same issue stage, which the kernel's wake-up
  lists must reproduce.

The lane kernel has its own batched-vs-scalar test in
``tests/test_lane_kernel_properties.py``.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.bandit.hardware import PrefetchBanditController
from repro.core_model.trace_core import TraceCore
from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
    prefetch_bandit_algorithm,
)
from repro.experiments.prefetch import (
    make_prefetcher,
    run_bandit_prefetch,
    run_fixed_arm,
    run_fixed_prefetcher,
)
from repro.experiments.runner import _make_l1
from repro.experiments.smt import SMTScale, run_smt_bandit, run_smt_static
from repro.prefetch.ensemble import TABLE7_ARMS, EnsemblePrefetcher
from repro.smt.pg_policy import ALL_PG_POLICIES
from repro.smt.pipeline import SMTConfig
from repro.uncore.hierarchy import CacheHierarchy
from repro.workloads.compiled import compiled_trace_for
from repro.workloads.smt import smt_eval_mixes

BLOCK = BASELINE_HIERARCHY_CONFIG.block_bytes

#: Streaming, strided, pointer-chasing (dependent-load) and graph traces.
WORKLOADS = ["bwaves06", "milc06", "mcf06", "omnetpp06", "ligra_bfs"]

PREFETCHERS = ["none", "stride", "mlop", "bingo", "ipcp", "pythia"]

#: One cache level as ``(sets, ways)``.
LEVEL = st.tuples(st.integers(1, 16), st.integers(1, 4))

#: What to replay: a comparator prefetcher, a fixed ensemble arm, or the
#: bandit as ``(step_l2_accesses, seed, ideal_latency)``.
RUNNERS = st.one_of(
    st.tuples(st.just("prefetcher"), st.sampled_from(PREFETCHERS)),
    st.tuples(st.just("arm"), st.integers(0, len(TABLE7_ARMS) - 1)),
    st.tuples(
        st.just("bandit"),
        st.tuples(st.integers(1, 40), st.integers(0, 3), st.booleans()),
    ),
)


def _hierarchy(l1, l2, llc, mshr, inflight, dram_mtps):
    return dataclasses.replace(
        BASELINE_HIERARCHY_CONFIG,
        l1_size_bytes=l1[0] * l1[1] * BLOCK,
        l1_ways=l1[1],
        l2_size_bytes=l2[0] * l2[1] * BLOCK,
        l2_ways=l2[1],
        llc_size_bytes=llc[0] * llc[1] * BLOCK,
        llc_ways=llc[1],
        mshr_entries=mshr,
        max_inflight_prefetches=inflight,
        dram_mtps=dram_mtps,
    )


def _replay(runner, trace, hierarchy, l1_kind):
    kind, value = runner
    if kind == "prefetcher":
        return run_fixed_prefetcher(
            trace, value, hierarchy, CORE_CONFIG_TABLE4,
            l1_prefetcher=_make_l1(l1_kind),
        )
    if kind == "arm":
        return run_fixed_arm(trace, value, hierarchy, CORE_CONFIG_TABLE4)
    step, seed, ideal = value
    return run_bandit_prefetch(
        trace,
        hierarchy_config=hierarchy,
        core_config=CORE_CONFIG_TABLE4,
        params=dataclasses.replace(
            PREFETCH_BANDIT_CONFIG, step_l2_accesses=step
        ),
        seed=seed,
        ideal_latency=ideal,
        l1_prefetcher=_make_l1(l1_kind),
    )


@settings(max_examples=300, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    length=st.integers(100, 400),
    trace_seed=st.integers(0, 4),
    l1=LEVEL,
    l2=LEVEL,
    llc=LEVEL,
    mshr=st.integers(1, 8),
    inflight=st.integers(1, 8),
    dram_mtps=st.sampled_from([150.0, 600.0, 2400.0, 9600.0]),
    runner=RUNNERS,
    l1_kind=st.sampled_from([None, "stride2", "ipcp2"]),
)
def test_replay_kernel_matches_object_path(
    workload, length, trace_seed, l1, l2, llc, mshr, inflight, dram_mtps,
    runner, l1_kind,
):
    trace = compiled_trace_for(workload, length, seed=trace_seed)
    hierarchy = _hierarchy(l1, l2, llc, mshr, inflight, dram_mtps)
    kernel = _replay(runner, trace, hierarchy, l1_kind)
    reference = _replay(runner, trace.to_records(), hierarchy, l1_kind)
    assert kernel == reference


def _stack(runner, hierarchy_config):
    """A fresh core for ``runner``, and the record hook that drives it."""
    kind, value = runner
    if kind == "prefetcher":
        holder: list = []
        hierarchy = CacheHierarchy(
            hierarchy_config, l2_prefetcher=make_prefetcher(value, holder)
        )
        holder.append(hierarchy.dram)
        return TraceCore(hierarchy, CORE_CONFIG_TABLE4), None
    ensemble = EnsemblePrefetcher()
    hierarchy = CacheHierarchy(hierarchy_config, l2_prefetcher=ensemble)
    core = TraceCore(hierarchy, CORE_CONFIG_TABLE4)
    if kind == "arm":
        ensemble.set_arm(value)
        return core, None
    step, seed, ideal = value
    params = dataclasses.replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=step)
    controller = PrefetchBanditController(
        prefetch_bandit_algorithm(seed=seed, params=params),
        ensemble.set_arm,
        step,
        0 if ideal else params.selection_latency_cycles,
    )
    stats = hierarchy.stats
    return core, lambda hook_core: controller.on_record(
        stats.l2_demand_accesses, hook_core.counters()
    )


def _state(core):
    """The core and hierarchy state a replay leaves behind, as plain values."""
    hierarchy = core.hierarchy
    levels = [
        [
            [(line.block, line.prefetched, line.dirty)
             for line in cache_set.values()]
            for cache_set in cache._sets
        ]
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.llc)
    ]
    mshr = hierarchy.mshr
    return {
        "core": (core.instructions, core.retire_time, core.dispatch_time,
                 core._last_load_ready, core._anchor_index,
                 core._anchor_retire, list(core._window)),
        "levels": levels,
        "mshr": (list(mshr._inflight.items()), list(mshr._heap)),
        "dram": dict(vars(hierarchy.dram)),
        "inflight_prefetches": hierarchy._inflight_prefetches,
        "stats": dataclasses.asdict(hierarchy.stats),
    }


@settings(max_examples=100, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    length=st.integers(100, 600),
    trace_seed=st.integers(0, 4),
    l1=LEVEL,
    l2=LEVEL,
    llc=LEVEL,
    mshr=st.integers(1, 8),
    inflight=st.integers(1, 8),
    dram_mtps=st.sampled_from([150.0, 600.0, 2400.0, 9600.0]),
    runner=RUNNERS,
)
def test_replay_kernel_matches_object_path_state(
    workload, length, trace_seed, l1, l2, llc, mshr, inflight, dram_mtps,
    runner,
):
    """The kernel leaves every level, the MSHR and the DRAM model as the
    object path does, before and after ``finalize`` drains the fills."""
    trace = compiled_trace_for(workload, length, seed=trace_seed)
    hierarchy = _hierarchy(l1, l2, llc, mshr, inflight, dram_mtps)
    kernel, kernel_hook = _stack(runner, hierarchy)
    reference, reference_hook = _stack(runner, hierarchy)
    kernel.run_compiled(trace, kernel_hook)
    reference.run(trace.to_records(), reference_hook)
    assert _state(kernel) == _state(reference)
    kernel.hierarchy.finalize()
    reference.hierarchy.finalize()
    assert _state(kernel) == _state(reference)


@st.composite
def _smt_scales(draw):
    """Epoch budgets that end on a partial main-loop step."""
    step = draw(st.integers(2, 4))
    total = step * draw(st.integers(0, 6)) + draw(st.integers(1, step - 1))
    return SMTScale(
        epoch_cycles=draw(st.integers(20, 200)),
        total_epochs=total,
        step_epochs=step,
        step_epochs_rr=draw(st.integers(1, 3)),
    )


WIDTH = st.integers(1, 10)
QUEUE = st.integers(8, 96)

#: Pipeline configs. Every IQ holds two minimum Hill-Climbing allowances
#: (8 entries each) and every IRF two threads' 32 architectural registers.
#: Memory latencies run from 0 to above the Table 5 defaults, and the
#: branch-redirect penalty from 0 to 40 cycles (Table 5: 6), so a blocked
#: thread can be freed at any point of a quiescent stretch.
SMT_CONFIGS = st.builds(
    SMTConfig,
    fetch_width=WIDTH,
    decode_width=WIDTH,
    issue_width=WIDTH,
    commit_width=WIDTH,
    iq_size=st.integers(16, 128),
    rob_size=st.integers(32, 256),
    lq_size=QUEUE,
    sq_size=QUEUE,
    irf_size=st.integers(80, 220),
    fetchq_capacity=st.integers(2, 32),
    l1_latency=st.integers(0, 8),
    l2_latency=st.integers(0, 30),
    dram_latency=st.integers(0, 300),
    mispredict_penalty=st.integers(0, 40),
)


@st.composite
def _smt_mixes(draw):
    """An evaluation mix with each thread's long-op latency redrawn."""
    return tuple(
        dataclasses.replace(profile, long_op_latency=draw(st.integers(0, 20)))
        for profile in draw(st.sampled_from(smt_eval_mixes()))
    )


@settings(max_examples=50, deadline=None)
@given(
    mix=_smt_mixes(),
    policy=st.sampled_from(ALL_PG_POLICIES),
    arms=st.lists(
        st.sampled_from(ALL_PG_POLICIES), min_size=2, max_size=6, unique=True
    ),
    scale=_smt_scales(),
    config=SMT_CONFIGS,
    seed=st.integers(0, 3),
)
def test_smt_kernel_matches_object_path(mix, policy, arms, scale, config,
                                        seed):
    static = [
        run_smt_static(
            mix, policy, scale, config, seed=seed, use_kernel=use_kernel
        )
        for use_kernel in (True, False)
    ]
    assert static[0] == static[1]
    bandit = [
        run_smt_bandit(
            mix, scale, config, arms=arms, seed=seed, use_kernel=use_kernel
        )
        for use_kernel in (True, False)
    ]
    assert bandit[0] == bandit[1]
