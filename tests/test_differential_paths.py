"""Differential properties: every fast path equals its reference path.

The simulator keeps fast kernels next to the object-model reference they
transcribe. These tests drive both sides over randomized inputs and demand
bit-identical results:

- **Replay.** The fused replay kernel (a ``CompiledTrace``) against the
  object path (the same trace as ``TraceRecord`` objects) for every
  comparator prefetcher, every ensemble arm and the bandit, over hostile
  hierarchies: 1-16 sets of 1-4 ways at every level, single-entry MSHRs
  and prefetch budgets, and DRAM from 150 to 9600 MT/s.
- **SMT.** The fused cycle kernel against the ``SMTPipeline`` object path
  over evaluation mixes, all 64 PG policies, random epoch lengths, and
  epoch budgets that leave a partial bandit step at the end.

The lane kernels have their own tri-path test in
``tests/test_lane_kernel_properties.py``.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
)
from repro.experiments.prefetch import (
    run_bandit_prefetch,
    run_fixed_arm,
    run_fixed_prefetcher,
)
from repro.experiments.smt import SMTScale, run_smt_bandit, run_smt_static
from repro.prefetch.ensemble import TABLE7_ARMS
from repro.smt.pg_policy import ALL_PG_POLICIES
from repro.workloads.compiled import compiled_trace_for
from repro.workloads.smt import smt_eval_mixes

BLOCK = BASELINE_HIERARCHY_CONFIG.block_bytes

#: Streaming, strided, pointer-chasing (dependent-load) and graph traces.
WORKLOADS = ["bwaves06", "milc06", "mcf06", "omnetpp06", "ligra_bfs"]

PREFETCHERS = ["none", "stride", "bop", "mlop", "bingo", "ipcp", "pythia"]

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


def _replay(runner, trace, hierarchy):
    kind, value = runner
    if kind == "prefetcher":
        return run_fixed_prefetcher(trace, value, hierarchy, CORE_CONFIG_TABLE4)
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
)
def test_replay_kernel_matches_object_path(
    workload, length, trace_seed, l1, l2, llc, mshr, inflight, dram_mtps,
    runner,
):
    trace = compiled_trace_for(workload, length, seed=trace_seed)
    hierarchy = _hierarchy(l1, l2, llc, mshr, inflight, dram_mtps)
    kernel = _replay(runner, trace, hierarchy)
    reference = _replay(runner, trace.to_records(), hierarchy)
    assert kernel == reference


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


@settings(max_examples=50, deadline=None)
@given(
    mix=st.sampled_from(smt_eval_mixes()),
    policy=st.sampled_from(ALL_PG_POLICIES),
    arms=st.lists(
        st.sampled_from(ALL_PG_POLICIES), min_size=2, max_size=6, unique=True
    ),
    scale=_smt_scales(),
    seed=st.integers(0, 3),
)
def test_smt_kernel_matches_object_path(mix, policy, arms, scale, seed):
    static = [
        run_smt_static(mix, policy, scale, seed=seed, use_kernel=use_kernel)
        for use_kernel in (True, False)
    ]
    assert static[0] == static[1]
    bandit = [
        run_smt_bandit(
            mix, scale, arms=arms, seed=seed, use_kernel=use_kernel
        )
        for use_kernel in (True, False)
    ]
    assert bandit[0] == bandit[1]
