"""Property tests on the SMT micro-op streams and pipeline determinism.

A thread's uops come from a :class:`~repro.smt.uop.UopBuffer` held by the
active :class:`~repro.workloads.compiled.TraceStore`, one per
``(ThreadProfile, seed)``. The buffers must reproduce the per-pipeline
generator they replaced (``tests.uop_reference``) uop for uop, across
chunk boundaries, and sharing one must change no result.
"""

import dataclasses
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.figures as figures
from repro.core_model.sanitizer import SANITIZE_ENV
from repro.core_model.smt_kernel import KERNEL_ENV
from repro.experiments.runner import ExecutionContext, use_context
from repro.experiments.smt import run_smt_static
from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY
from repro.smt.pipeline import SMTPipeline
from repro.smt.uop import (
    CHUNK_UOPS,
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
)
from repro.workloads.compiled import TraceStore, use_trace_store
from repro.workloads.smt import (
    EVAL_APP_NAMES,
    ThreadProfile,
    smt_eval_mixes,
    thread_profile,
)
from tests.test_figures_smoke import TINY_SMT
from tests.uop_reference import read_uops, reference_uop_stream

#: Crosses two chunk boundaries and ends inside the third chunk.
CROSSING = 2 * CHUNK_UOPS + 37

_UNIT = st.floats(min_value=0.0, max_value=1.0)

#: Every ``ThreadProfile`` field. The three kind fractions stay below 1 in
#: sum (the profile rejects more); the dependence mean reaches 1 and below,
#: where the generator clamps it, and the mispredict rate takes 0 and 1.
PROFILES = st.builds(
    ThreadProfile,
    name=st.text(max_size=8),
    load_fraction=st.floats(min_value=0.0, max_value=0.45),
    store_fraction=st.floats(min_value=0.0, max_value=0.3),
    branch_fraction=st.floats(min_value=0.0, max_value=0.24),
    mean_dep_distance=st.one_of(
        st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
        st.floats(min_value=-4.0, max_value=1e6),
    ),
    long_op_fraction=_UNIT,
    long_op_latency=st.integers(min_value=0, max_value=64),
    l1_hit_rate=_UNIT,
    l2_hit_rate=_UNIT,
    branch_mispredict_rate=st.one_of(st.sampled_from([0.0, 1.0]), _UNIT),
)


def reference_uops(profile, seed, count):
    return list(islice(reference_uop_stream(profile, seed), count))


class TestUopStreamProperties:
    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(EVAL_APP_NAMES),
           seed=st.integers(min_value=0, max_value=100))
    def test_kinds_always_valid(self, name, seed):
        buffer = TraceStore().uop_buffer(thread_profile(name), seed)
        for kind, dep1, dep2, mispredict in read_uops(buffer, 0, 500):
            assert kind in (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH,
                            KIND_LONG)
            assert dep1 >= 0 and dep2 >= 0
            if mispredict:
                assert kind == KIND_BRANCH

    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(EVAL_APP_NAMES))
    def test_branch_fraction_tracks_profile(self, name):
        profile = thread_profile(name)
        buffer = TraceStore().uop_buffer(profile, 1)
        branches = sum(
            1 for uop in read_uops(buffer, 0, 8000) if uop[0] == KIND_BRANCH
        )
        assert branches / 8000 == pytest.approx(profile.branch_fraction,
                                                abs=0.03)


class TestUopBufferMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(profile=PROFILES, seed=st.integers(min_value=0, max_value=2**64),
           first_read=st.integers(min_value=1, max_value=CROSSING))
    def test_store_buffer_equals_reference_generator(self, profile, seed,
                                                     first_read):
        buffer = TraceStore().uop_buffer(profile, seed)
        # A reader that stops mid-chunk first must not shift the stream.
        read_uops(buffer, 0, first_read)
        assert read_uops(buffer, 0, CROSSING) == reference_uops(
            profile, seed, CROSSING)

    def test_one_name_two_profiles_two_buffers(self):
        store = TraceStore()
        gcc = thread_profile("gcc")
        loadier = dataclasses.replace(gcc, load_fraction=gcc.load_fraction + 0.1)
        buffer = store.uop_buffer(gcc, 0)
        other = store.uop_buffer(loadier, 0)
        assert other is not buffer
        assert store.uop_buffer(gcc, 0) is buffer
        assert read_uops(other, 0, 2000) != read_uops(buffer, 0, 2000)
        assert read_uops(other, 0, 2000) == reference_uops(loadier, 0, 2000)

    def test_one_profile_on_both_threads(self):
        # The threads are seeded ``2 * seed`` and ``2 * seed + 1``, so they
        # read two buffers, each the reference stream of its own seed.
        gcc = thread_profile("gcc")
        with use_trace_store(TraceStore()):
            pipeline = SMTPipeline([gcc, gcc], CHOI_POLICY, seed=2)
            pipeline.run(2000)
        first, second = (thread.uops for thread in pipeline.threads)
        assert first is not second
        for thread, seed in zip(pipeline.threads, (4, 5)):
            assert thread.next_seq > 1
            assert read_uops(thread.uops, 0, thread.next_seq - 1) == (
                reference_uops(gcc, seed, thread.next_seq - 1))

    def test_two_pipelines_read_one_buffer_at_two_positions(self):
        mix = [thread_profile("mcf"), thread_profile("x264")]

        def solo(cycles):
            with use_trace_store(TraceStore()):
                pipeline = SMTPipeline(mix, CHOI_POLICY, seed=1)
                pipeline.run(cycles)
            return pipeline

        with use_trace_store(TraceStore()):
            ahead = SMTPipeline(mix, CHOI_POLICY, seed=1)
            behind = SMTPipeline(mix, CHOI_POLICY, seed=1)
            ahead.run(1500)
            behind.run(400)
            ahead.run(1500)
            behind.run(400)
        for shared, alone in ((ahead, solo(3000)), (behind, solo(800))):
            assert shared.per_thread_committed() == alone.per_thread_committed()
            assert [t.next_seq for t in shared.threads] == [
                t.next_seq for t in alone.threads]
        for index in (0, 1):
            assert ahead.threads[index].uops is behind.threads[index].uops
            assert (ahead.threads[index].next_seq
                    > behind.threads[index].next_seq)


class TestUopStore:
    def test_tiny_fig13_generates_each_stream_once(self):
        store = TraceStore()
        context = ExecutionContext()
        with use_trace_store(store), use_context(context):
            figures.fig13_smt_bandit_vs_choi(num_mixes=2, scale=TINY_SMT)
        keys = {(mix[index], index) for mix in smt_eval_mixes()[:2]
                for index in (0, 1)}
        # Choi, ICount and the bandit: one two-thread pipeline each.
        assert len(context.telemetry.tasks) == 6
        assert store.uop_misses == len(keys)
        assert store.uop_hits == 2 * 6 - len(keys)

    def test_sanitized_paths_read_one_buffer(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        mix = (thread_profile("gcc"), thread_profile("lbm"))
        plain = run_smt_static(mix, CHOI_POLICY, TINY_SMT)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        store = TraceStore()
        with use_trace_store(store):
            sanitized = run_smt_static(mix, CHOI_POLICY, TINY_SMT)
        assert sanitized == plain
        # The kernel run generates both streams; the object run reads them.
        assert (store.uop_misses, store.uop_hits) == (2, 2)

    def test_store_keeps_at_most_its_bound(self):
        store = TraceStore(memory_entries=2)
        profiles = [thread_profile(name) for name in ("gcc", "lbm", "mcf")]
        first = store.uop_buffer(profiles[0], 0)
        for profile in profiles[1:]:
            store.uop_buffer(profile, 0)
        assert len(store._uop_buffers) <= 2
        assert store.uop_buffer(profiles[0], 0) is not first
        assert store.uop_misses == 4

    def test_unshared_buffers_give_the_same_result(self):
        mix = (thread_profile("gcc"), thread_profile("lbm"))
        with use_trace_store(TraceStore(memory_entries=0)):
            unshared = run_smt_static(mix, BANDIT_PG_ARMS[3], TINY_SMT)
        with use_trace_store(TraceStore()):
            run_smt_static(mix, CHOI_POLICY, TINY_SMT)
            shared = run_smt_static(mix, BANDIT_PG_ARMS[3], TINY_SMT)
        assert shared == unshared


class TestPipelineProperties:
    @settings(max_examples=6, deadline=None)
    @given(
        first=st.sampled_from(("gcc", "lbm", "x264", "mcf")),
        second=st.sampled_from(("gcc", "lbm", "bwaves", "deepsjeng")),
        arm=st.integers(min_value=0, max_value=5),
    )
    def test_any_mix_any_policy_progresses(self, first, second, arm):
        pipeline = SMTPipeline(
            [thread_profile(first), thread_profile(second)],
            BANDIT_PG_ARMS[arm], seed=3,
        )
        ipc = pipeline.run(1500)
        assert 0.0 < ipc <= pipeline.config.commit_width
        committed = pipeline.per_thread_committed()
        assert committed[0] + committed[1] > 0

    def test_longer_run_does_not_corrupt_state(self):
        pipeline = SMTPipeline(
            [thread_profile("gcc"), thread_profile("lbm")],
            CHOI_POLICY, seed=5,
        )
        for _ in range(6):
            pipeline.run(1000)
        for thread in pipeline.threads:
            assert thread.rob_occ == len(thread.rob)
            assert thread.iq_occ >= 0
            # The completion map stays pruned (no unbounded growth).
            assert len(thread.completion) < 20_000
