"""Tests for the MSHR and the DRAM bandwidth model."""

import pytest

from repro.uncore.dram import DRAMModel, mtps_to_cycles_per_line
from repro.uncore.mshr import MSHR


class TestMSHR:
    def test_allocate_and_lookup(self):
        mshr = MSHR(capacity=4)
        mshr.allocate(10, ready_cycle=100.0, is_prefetch=True)
        assert mshr.lookup(10) == (100.0, True)
        assert mshr.lookup(11) is None
        assert len(mshr) == 1

    def test_capacity_enforced(self):
        mshr = MSHR(capacity=2)
        mshr.allocate(1, 10.0, False)
        mshr.allocate(2, 20.0, False)
        assert mshr.full
        with pytest.raises(RuntimeError):
            mshr.allocate(3, 30.0, False)

    def test_duplicate_block_rejected(self):
        mshr = MSHR(capacity=4)
        mshr.allocate(1, 10.0, False)
        with pytest.raises(ValueError):
            mshr.allocate(1, 20.0, False)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MSHR(capacity=0)

    def test_drain_completes_in_ready_order(self):
        mshr = MSHR(capacity=4)
        mshr.allocate(1, 30.0, False)
        mshr.allocate(2, 10.0, True)
        filled = []
        mshr.drain_completed(20.0, lambda b, r, p: filled.append((b, r, p)))
        assert filled == [(2, 10.0, True)]
        mshr.drain_completed(50.0, lambda b, r, p: filled.append((b, r, p)))
        assert filled[-1] == (1, 30.0, False)
        assert len(mshr) == 0

    def test_promote_to_demand(self):
        """A late prefetch loses its prefetch status before filling."""
        mshr = MSHR(capacity=2)
        mshr.allocate(5, 40.0, is_prefetch=True)
        mshr.promote_to_demand(5)
        filled = []
        mshr.drain_completed(100.0, lambda b, r, p: filled.append((b, p)))
        assert filled == [(5, False)]

    def test_flush_completes_everything(self):
        mshr = MSHR(capacity=4)
        mshr.allocate(1, 1e9, False)
        mshr.allocate(2, 2e9, True)
        filled = []
        mshr.flush(lambda b, r, p: filled.append(b))
        assert sorted(filled) == [1, 2]
        assert len(mshr) == 0


class TestDRAMConversion:
    def test_baseline_2400_mtps(self):
        """2400 MTPS at 4 GHz: one 64 B line ≈ 13.3 core cycles."""
        assert mtps_to_cycles_per_line(2400.0, 4.0) == pytest.approx(13.33, rel=0.01)

    def test_constrained_150_mtps(self):
        assert mtps_to_cycles_per_line(150.0, 4.0) == pytest.approx(213.3, rel=0.01)

    def test_invalid_mtps(self):
        with pytest.raises(ValueError):
            mtps_to_cycles_per_line(0.0)


class TestDRAMModel:
    def test_unloaded_latency(self):
        dram = DRAMModel(latency_cycles=200.0, mtps=2400.0)
        assert dram.access(1000.0) == pytest.approx(1200.0)

    def test_bandwidth_queueing(self):
        dram = DRAMModel(latency_cycles=0.0, mtps=2400.0)
        first = dram.access(0.0)
        second = dram.access(0.0)
        assert second == pytest.approx(first + dram.cycles_per_line)

    def test_queue_drains_when_idle(self):
        dram = DRAMModel(latency_cycles=0.0, mtps=2400.0)
        dram.access(0.0)
        late = dram.access(1000.0)
        assert late == pytest.approx(1000.0)

    def test_prefetch_demand_accounting(self):
        """Fetches count as accesses; writebacks do not."""
        dram = DRAMModel()
        dram.access(0.0)
        dram.access(0.0)
        dram.writeback()
        assert dram.accesses == 2

    def test_average_queue_delay(self):
        dram = DRAMModel(latency_cycles=0.0, mtps=2400.0)
        dram.access(0.0)
        dram.access(0.0)
        assert dram.average_queue_delay() == pytest.approx(
            dram.cycles_per_line / 2
        )

    def test_lower_mtps_means_slower(self):
        fast = DRAMModel(latency_cycles=0.0, mtps=9600.0)
        slow = DRAMModel(latency_cycles=0.0, mtps=150.0)
        assert slow.cycles_per_line > fast.cycles_per_line * 10

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DRAMModel(latency_cycles=-1.0)
