"""Tests for the comparator prefetchers: MLOP, Bingo, IPCP, Pythia."""

import pytest

from repro.prefetch.bingo import REGION_BLOCKS, BingoPrefetcher
from repro.prefetch.ipcp import IPCPPrefetcher
from repro.prefetch.mlop import MLOPPrefetcher
from repro.prefetch.pythia import PythiaConfig, PythiaPrefetcher


class TestMLOP:
    def test_learns_multiple_lookaheads_of_stream(self):
        prefetcher = MLOPPrefetcher(round_length=100)
        out = []
        for block in range(300):
            out = prefetcher.observe(0, block, 0.0, False)
        # A unit-stride stream: selected offsets are positive and distinct.
        assert out
        offsets = [target - 299 for target in out]
        assert all(offset > 0 for offset in offsets)
        assert len(set(offsets)) == len(offsets)

    def test_selects_nothing_on_random(self):
        import random

        prefetcher = MLOPPrefetcher(round_length=100, score_fraction=0.3)
        rng = random.Random(1)
        out = []
        for _ in range(300):
            out = prefetcher.observe(0, rng.randrange(10**7), 0.0, False)
        assert out == []

    def test_reset(self):
        prefetcher = MLOPPrefetcher()
        for block in range(50):
            prefetcher.observe(0, block, 0.0, False)
        prefetcher.reset()
        assert prefetcher.selected_offsets == [1]

    def test_rejects_bad_lookaheads(self):
        with pytest.raises(ValueError):
            MLOPPrefetcher(num_lookaheads=0)


class TestBingo:
    def test_replays_footprint_on_revisit(self):
        prefetcher = BingoPrefetcher(accumulation_capacity=1)
        region_base = 5 * REGION_BLOCKS
        footprint = [0, 3, 7, 12]
        # First generation: trigger + accumulate.
        for offset in footprint:
            prefetcher.observe(0x42, region_base + offset, 0.0, False)
        # Touch another region: evicts and commits region 5's footprint.
        prefetcher.observe(0x42, 9 * REGION_BLOCKS, 0.0, False)
        prefetcher.observe(0x42, 13 * REGION_BLOCKS, 0.0, False)
        # Revisit region 5 with the same trigger PC+offset.
        predictions = prefetcher.observe(0x42, region_base + 0, 0.0, False)
        assert set(predictions) == {region_base + 3, region_base + 7,
                                    region_base + 12}

    def test_no_prediction_for_unknown_region(self):
        prefetcher = BingoPrefetcher()
        assert prefetcher.observe(1, 42, 0.0, False) == []

    def test_pc_offset_fallback_generalizes(self):
        prefetcher = BingoPrefetcher(accumulation_capacity=1)
        base = 3 * REGION_BLOCKS
        for offset in (0, 5, 9):
            prefetcher.observe(0x7, base + offset, 0.0, False)
        # A different PC/offset trigger evicts region 3 and commits its
        # footprint under the (0x7, offset 0) short event.
        prefetcher.observe(0x9, 50 * REGION_BLOCKS + 3, 0.0, False)
        # New region, same trigger PC and offset 0: short event matches.
        other = 77 * REGION_BLOCKS
        predictions = prefetcher.observe(0x7, other + 0, 0.0, False)
        assert other + 5 in predictions and other + 9 in predictions

    def test_reset(self):
        prefetcher = BingoPrefetcher()
        prefetcher.observe(1, 0, 0.0, False)
        prefetcher.reset()
        assert prefetcher.observe(1, 0, 0.0, False) == []


class TestIPCP:
    def test_constant_stride_class(self):
        prefetcher = IPCPPrefetcher(cs_degree=2)
        out = []
        for i in range(5):
            out = prefetcher.observe(0x10, 1000 + 4 * i, 0.0, False)
        assert out[:2] == [1000 + 16 + 4, 1000 + 16 + 8]

    def test_global_stream_class(self):
        prefetcher = IPCPPrefetcher(gs_degree=3)
        out = []
        # Different PCs marching through one region: GS detection.
        for i in range(6):
            out = prefetcher.observe(0x100 + i, 2048 + i, 0.0, False)
        assert out and all(target > 2048 + 5 for target in out)

    def test_complex_class_learns_delta_pattern(self):
        prefetcher = IPCPPrefetcher()
        # Alternating deltas +1, +3 defeat CS but repeat as a signature.
        block = 10_000
        hits = 0
        for i in range(60):
            delta = 1 if i % 2 == 0 else 3
            block += delta
            out = prefetcher.observe(0x55, block, 0.0, False)
            expected_next = block + (3 if i % 2 == 0 else 1)
            if expected_next in out:
                hits += 1
        assert hits > 10

    def test_reset(self):
        prefetcher = IPCPPrefetcher()
        prefetcher.observe(1, 100, 0.0, False)
        prefetcher.reset()
        assert not prefetcher._ip_table


class TestPythia:
    def test_has_64_actions(self):
        assert len(PythiaPrefetcher().actions) == 64

    def test_learns_stream_offsets(self):
        prefetcher = PythiaPrefetcher()
        useful = 0
        block = 0
        for _ in range(3000):
            block += 1
            out = prefetcher.observe(0x10, block, 0.0, False)
            if out:
                useful += 1
        # On a pure stream Pythia should be prefetching most of the time.
        assert useful > 1500

    def test_top_action_fraction_high_on_stream(self):
        prefetcher = PythiaPrefetcher()
        block = 0
        for _ in range(3000):
            block += 1
            prefetcher.observe(0x10, block, 0.0, False)
        top1, top2 = prefetcher.top_action_fractions(2)
        assert top1 > 0.3
        assert top1 >= top2

    def test_bandwidth_probe_steers_no_prefetch(self):
        config = PythiaConfig(epsilon=0.0)
        busy = PythiaPrefetcher(config, bandwidth_probe=lambda: 1.0)
        import random

        rng = random.Random(9)
        issued = 0
        for _ in range(2000):
            out = busy.observe(0x1, rng.randrange(10**7), 0.0, False)
            issued += len(out)
        idle = PythiaPrefetcher(config, bandwidth_probe=lambda: 0.0)
        rng = random.Random(9)
        issued_idle = 0
        for _ in range(2000):
            out = idle.observe(0x1, rng.randrange(10**7), 0.0, False)
            issued_idle += len(out)
        # Under high bandwidth pressure the no-prefetch action is rewarded,
        # so the busy agent prefetches less.
        assert issued < issued_idle

    def test_reset(self):
        prefetcher = PythiaPrefetcher()
        prefetcher.observe(1, 100, 0.0, False)
        prefetcher.reset()
        assert prefetcher.action_counts == {}

    def test_storage_matches_paper(self):
        assert PythiaPrefetcher().storage_bytes == pytest.approx(25.5 * 1024)
