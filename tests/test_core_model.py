"""Tests for the trace-driven core timing model and the multicore wrapper."""

import pytest

from repro.core_model.multicore import MulticoreSystem
from repro.core_model.trace_core import CoreConfig, TraceCore
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.workloads.trace import BLOCK_BYTES, TraceRecord


CONFIG = HierarchyConfig()


def make_core(core_config=CoreConfig()):
    hierarchy = CacheHierarchy(CONFIG)
    return TraceCore(hierarchy, core_config)


def load(block, gap=0, dependent=False, pc=0x10):
    return TraceRecord(pc, block * BLOCK_BYTES, False, gap, dependent)


def store(block, gap=0):
    return TraceRecord(0x20, block * BLOCK_BYTES, True, gap)


class TestCoreConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CoreConfig(rob_size=0)
        with pytest.raises(ValueError):
            CoreConfig(commit_width=0)


class TestBasicTiming:
    def test_compute_bound_ipc_hits_commit_width(self):
        """Repeated L1 hits + big gaps: IPC approaches the commit width."""
        core = make_core(CoreConfig(rob_size=256, commit_width=4,
                                    dispatch_width=6))
        trace = [load(1, gap=100) for _ in range(200)]
        core.run(trace)
        assert core.ipc == pytest.approx(4.0, rel=0.15)

    def test_cold_miss_costs_dram_latency(self):
        core = make_core()
        core.execute(load(1))
        # A single dependent-free load retires no earlier than DRAM latency.
        assert core.cycles >= CONFIG.dram_latency

    def test_counters_snapshot(self):
        core = make_core()
        core.execute(load(1, gap=5))
        counters = core.counters()
        assert counters.committed_instructions == 6
        assert counters.cycles == core.retire_time


class TestMLP:
    def test_independent_misses_overlap(self):
        """Loads to distinct blocks within the ROB window overlap misses."""
        serial = make_core()
        for i in range(20):
            serial.execute(load(1000 + i * 7, dependent=True))
        parallel = make_core()
        for i in range(20):
            parallel.execute(load(2000 + i * 7, dependent=False))
        assert parallel.cycles < serial.cycles / 3

    def test_dependent_chain_serializes(self):
        core = make_core()
        chain = [load(5000 + i * 9, dependent=True) for i in range(10)]
        core.run(chain)
        # Each dependent DRAM miss pays the full latency.
        assert core.cycles >= 10 * CONFIG.dram_latency * 0.8

    def test_rob_limits_overlap(self):
        """A small ROB exposes more of the miss latency than a big one."""
        big = make_core(CoreConfig(rob_size=512))
        small = make_core(CoreConfig(rob_size=16))
        trace = [load(9000 + i, gap=3) for i in range(300)]
        big.run(trace)
        small.run(list(trace))
        assert small.cycles > big.cycles


class TestStores:
    def test_stores_do_not_block_commit(self):
        core = make_core()
        trace = [store(100 + i) for i in range(50)]
        core.run(trace)
        # Store misses are absorbed by the store buffer: near width-bound.
        assert core.ipc > 1.0


class TestMulticore:
    def test_requires_matching_trace_count(self):
        system = MulticoreSystem(2, CONFIG)
        with pytest.raises(ValueError):
            system.run([[load(1)]])

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            MulticoreSystem(0, CONFIG)

    def test_all_cores_finish(self):
        system = MulticoreSystem(2, CONFIG)
        traces = [
            [load(100 + i) for i in range(40)],
            [load(900 + i, gap=2) for i in range(25)],
        ]
        system.run(traces)
        assert system.cores[0].instructions == 40
        assert system.cores[1].instructions == 25 * 3

    def test_total_ipc_sums_cores(self):
        system = MulticoreSystem(2, CONFIG)
        traces = [[load(i + 100 * c, gap=10) for i in range(50)]
                  for c in range(2)]
        system.run(traces)
        assert system.total_ipc() == pytest.approx(
            system.cores[0].ipc + system.cores[1].ipc
        )

    def test_shared_bandwidth_slows_cores(self):
        """4 cores hammering DRAM are slower than one core alone."""
        single = MulticoreSystem(1, CONFIG)
        trace = [load(50_000 + i * 3, gap=1) for i in range(300)]
        single.run([list(trace)])
        alone = single.cores[0].ipc

        contended = MulticoreSystem(4, CONFIG)
        traces = [
            [load(1_000_000 * (c + 1) + i * 3, gap=1) for i in range(300)]
            for c in range(4)
        ]
        contended.run(traces)
        with_contention = contended.cores[0].ipc
        assert with_contention < alone

    def test_llc_sized_per_core(self):
        system = MulticoreSystem(4, CONFIG)
        assert system.shared_llc.size_bytes == 4 * CONFIG.llc_size_bytes

    def test_hook_invoked_per_record(self):
        system = MulticoreSystem(2, CONFIG)
        calls = []
        traces = [[load(1)], [load(2), load(3)]]
        system.run(traces, per_record_hook=lambda i, c: calls.append(i))
        assert sorted(calls) == [0, 1, 1]
