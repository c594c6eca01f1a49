"""Memory-trace representation and (de)serialization.

A trace is a sequence of :class:`TraceRecord` values in program order. To
keep traces compact, non-memory instructions are not materialized: each
record carries ``inst_gap``, the number of non-memory instructions the core
executes *before* this access. The trace-driven core model
(:mod:`repro.core_model`) charges those instructions against the commit
width, exactly as ChampSim-style simulators replay filtered traces.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import Iterable, List, NamedTuple

#: Cache block size used throughout the reproduction (64-byte lines).
BLOCK_SHIFT = 6
BLOCK_BYTES = 1 << BLOCK_SHIFT


class TraceRecord(NamedTuple):
    """One memory access in program order.

    ``dependent`` marks loads whose address depends on the previous load's
    data (pointer chasing); the core model serializes them, collapsing MLP.
    """

    pc: int
    address: int
    is_write: bool
    inst_gap: int
    dependent: bool = False

    @property
    def block(self) -> int:
        """Cache-block number of the access."""
        return self.address >> BLOCK_SHIFT


_RECORD_STRUCT = struct.Struct("<QQBHB")


def write_trace(trace: Iterable[TraceRecord], path: str | Path) -> int:
    """Serialize a trace to a gzip-compressed binary file.

    Returns the number of records written. Format: little-endian
    ``(pc: u64, address: u64, is_write: u8, inst_gap: u16, dependent: u8)``
    per record.
    """
    count = 0
    with gzip.open(Path(path), "wb") as handle:
        for record in trace:
            handle.write(
                _RECORD_STRUCT.pack(
                    record.pc,
                    record.address,
                    1 if record.is_write else 0,
                    min(record.inst_gap, 0xFFFF),
                    1 if record.dependent else 0,
                )
            )
            count += 1
    return count


#: Records decoded per read in :func:`read_trace` (64 KB-ish chunks).
_READ_CHUNK_RECORDS = 4096


def read_trace(path: str | Path) -> List[TraceRecord]:
    """Read a trace previously written by :func:`write_trace`.

    Reads in multi-record chunks and decodes each chunk with one
    ``Struct.iter_unpack`` call rather than one ``read`` + ``unpack`` pair
    per record; a trailing partial record still raises ``ValueError``.
    """
    records: List[TraceRecord] = []
    append = records.append
    size = _RECORD_STRUCT.size
    chunk_bytes = size * _READ_CHUNK_RECORDS
    pending = b""
    with gzip.open(Path(path), "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            if pending:
                chunk = pending + chunk
            whole = len(chunk) - len(chunk) % size
            pending = chunk[whole:]
            for pc, address, is_write, inst_gap, dependent in (
                _RECORD_STRUCT.iter_unpack(chunk[:whole])
            ):
                append(
                    TraceRecord(
                        pc, address, bool(is_write), inst_gap, bool(dependent)
                    )
                )
    if pending:
        raise ValueError(f"truncated trace file: {path}")
    return records
