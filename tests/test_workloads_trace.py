"""Tests for trace records and (de)serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.workloads.trace import BLOCK_BYTES, TraceRecord, read_trace, write_trace


record_strategy = st.builds(
    TraceRecord,
    pc=st.integers(min_value=0, max_value=2**48),
    address=st.integers(min_value=0, max_value=2**48),
    is_write=st.booleans(),
    inst_gap=st.integers(min_value=0, max_value=255),
    dependent=st.booleans(),
)


class TestTraceRecord:
    def test_block_number(self):
        record = TraceRecord(pc=0, address=BLOCK_BYTES * 3 + 5, is_write=False,
                             inst_gap=0)
        assert record.block == 3

    def test_dependent_defaults_false(self):
        record = TraceRecord(0, 0, False, 0)
        assert record.dependent is False


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        trace = [
            TraceRecord(0x400000, 0x1234540, False, 5),
            TraceRecord(0x400040, 0x99999980, True, 0, True),
        ]
        path = tmp_path / "trace.bin.gz"
        count = write_trace(trace, path)
        assert count == 2
        assert read_trace(path) == trace

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin.gz"
        write_trace([], path)
        assert read_trace(path) == []

    def test_truncated_file_rejected(self, tmp_path):
        import gzip

        path = tmp_path / "bad.bin.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(b"\x00" * 7)
        with pytest.raises(ValueError):
            read_trace(path)

    @given(st.lists(record_strategy, max_size=50))
    def test_roundtrip_property(self, trace):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.bin.gz"
            write_trace(trace, path)
            assert read_trace(path) == trace
