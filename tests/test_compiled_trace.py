"""Compiled-trace correctness: array layout, the store, and bit-identity.

The contract of PR 3's replay engine is that the compiled path is an
*optimisation only*: replaying a :class:`CompiledTrace` must produce
bit-identical performance counters, hierarchy statistics, and prefetch
classifications to replaying the equivalent object trace record by record.
The equivalence tests here assert exactly that, suite by suite, for both
the fixed-prefetcher runs and the bandit step loop (which exercises the
kernel's record-hook protocol).
"""

import dataclasses
import io
import struct
import sys
import threading
import zipfile

import numpy as np
import pytest

from repro.core_model.trace_core import CoreConfig, TraceCore
from repro.experiments.prefetch import (
    run_bandit_prefetch,
    run_fixed_prefetcher,
)
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.workloads.compiled import (
    FLAG_DEPENDENT,
    FLAG_WRITE,
    CompiledTrace,
    TraceStore,
    compile_trace,
    trace_key,
    use_trace_store,
)
from repro.workloads.suites import ALL_SUITES, spec_by_name
from repro.workloads.trace import BLOCK_SHIFT, TraceRecord

TRACE_LENGTH = 3_000

#: One representative workload per suite — every generator family crosses
#: the kernel at least once.
SUITE_REPRESENTATIVES = [specs[0].name for specs in ALL_SUITES.values()]


def _bad_deflate_block(archive: bytes) -> bytes:
    """zlib.error: the first member's first deflate block gets the reserved
    block type 11. Its data follows the 30-byte local header, the file name
    and the extra field."""
    start = 30 + sum(struct.unpack_from("<HH", archive, 26))
    return archive[:start] + b"\x07" + archive[start + 1:]


def _unknown_compression_method(archive: bytes) -> bytes:
    """NotImplementedError: the first central-directory entry names an
    unknown compression method."""
    entry = archive.index(b"PK\x01\x02")
    return archive[:entry + 10] + b"\x63\x00" + archive[entry + 12:]


def _unbalanced_array_header(archive: bytes) -> bytes:
    """tokenize.TokenError: every member's array header loses its closing
    brace, so numpy's header parser meets an unbalanced dict."""
    with zipfile.ZipFile(io.BytesIO(archive)) as source:
        members = [(info.filename, source.read(info))
                   for info in source.infolist()]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as target:
        for name, content in members:
            target.writestr(name, content.replace(b"}", b" ", 1))
    return out.getvalue()


def _object_trace(name: str, length: int = TRACE_LENGTH):
    return spec_by_name(name).trace(length, seed=0)


def _result_fields(result):
    return (
        result.ipc,
        result.instructions,
        result.cycles,
        dataclasses.asdict(result.stats),
    )


# ================================================================== layout


class TestCompiledTrace:
    def test_round_trip_through_records(self):
        records = _object_trace(SUITE_REPRESENTATIVES[0])
        compiled = compile_trace(records)
        assert len(compiled) == len(records)
        rebuilt = compiled.to_records()
        # Addresses are block-granular after compilation; everything the
        # simulator consumes (block, pc, flags, gap) survives exactly.
        for original, restored in zip(records, rebuilt):
            assert restored.pc == original.pc
            assert restored.address >> BLOCK_SHIFT == original.block
            assert restored.is_write == original.is_write
            assert restored.inst_gap == original.inst_gap
            assert restored.dependent == original.dependent

    def test_flag_bits(self):
        records = [
            TraceRecord(1, 64, True, 0, False),
            TraceRecord(2, 128, False, 3, True),
            TraceRecord(3, 192, True, 1, True),
        ]
        compiled = compile_trace(records)
        assert list(compiled.flags) == [
            FLAG_WRITE, FLAG_DEPENDENT, FLAG_WRITE | FLAG_DEPENDENT,
        ]

    def test_mismatched_lengths_rejected(self):
        compiled = compile_trace([TraceRecord(1, 64, False, 0)])
        with pytest.raises(ValueError):
            CompiledTrace(
                compiled.pc, compiled.block, compiled.flags,
                compiled.inst_gap[:0],
            )

    def test_save_load_round_trip(self, tmp_path):
        compiled = compile_trace(_object_trace(SUITE_REPRESENTATIVES[0]))
        path = tmp_path / "trace.npz"
        compiled.save(path)
        loaded = CompiledTrace.load(path)
        assert (loaded.pc == compiled.pc).all()
        assert (loaded.block == compiled.block).all()
        assert (loaded.flags == compiled.flags).all()
        assert (loaded.inst_gap == compiled.inst_gap).all()


# ================================================================== store


class TestTraceStore:
    def test_memoizes_in_memory(self):
        store = TraceStore()
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        first = store.get(spec, 256, seed=0)
        second = store.get(spec, 256, seed=0)
        assert first is second
        assert store.misses == 1
        assert store.hits == 1

    def test_disk_round_trip(self, tmp_path):
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        writer = TraceStore(tmp_path)
        built = writer.get(spec, 256, seed=0)
        reader = TraceStore(tmp_path)
        loaded = reader.get(spec, 256, seed=0)
        assert reader.hits == 1 and reader.misses == 0
        assert (loaded.pc == built.pc).all()
        assert (loaded.block == built.block).all()

    def test_key_distinguishes_generator_config(self):
        spec_a = spec_by_name(SUITE_REPRESENTATIVES[0])
        spec_b = spec_by_name(SUITE_REPRESENTATIVES[1])
        assert trace_key(spec_a, 256, 0) != trace_key(spec_b, 256, 0)
        assert trace_key(spec_a, 256, 0) != trace_key(spec_a, 256, 1)
        assert trace_key(spec_a, 256, 0) != trace_key(spec_a, 512, 0)
        assert trace_key(spec_a, 256, 0, gap_scale=2.0) != trace_key(
            spec_a, 256, 0
        )

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        store = TraceStore(tmp_path)
        store.get(spec, 256, seed=0)
        [path] = list(tmp_path.rglob("*.npz"))
        path.write_bytes(b"not a trace")
        fresh = TraceStore(tmp_path)
        rebuilt = fresh.get(spec, 256, seed=0)
        assert fresh.misses == 1
        assert len(rebuilt) == 256

    @pytest.mark.parametrize("cut", [0, 10, 0.5], ids=["empty", "header",
                                                       "half"])
    def test_truncated_entry_is_rebuilt(self, tmp_path, cut):
        """Empty, header-only, and mid-archive truncations (EOFError /
        BadZipFile) are all cache misses, not crashes."""
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        store = TraceStore(tmp_path)
        store.get(spec, 256, seed=0)
        [path] = list(tmp_path.rglob("*.npz"))
        data = path.read_bytes()
        cut = int(cut * len(data)) if isinstance(cut, float) else cut
        path.write_bytes(data[:cut])
        fresh = TraceStore(tmp_path)
        rebuilt = fresh.get(spec, 256, seed=0)
        assert fresh.misses == 1
        assert len(rebuilt) == 256

    @pytest.mark.parametrize("corrupt", [
        _bad_deflate_block, _unknown_compression_method,
        _unbalanced_array_header,
    ], ids=["deflate-block", "compression-method", "array-header"])
    def test_undecodable_entry_is_rebuilt(self, tmp_path, corrupt):
        """Whatever numpy and zipfile raise on a corrupt archive is a miss:
        the trace is generated again and overwrites the entry."""
        spec = spec_by_name("milc06")
        built = TraceStore(tmp_path).get(spec, 500, seed=0)
        [path] = list(tmp_path.rglob("*.npz"))
        path.write_bytes(corrupt(path.read_bytes()))
        fresh = TraceStore(tmp_path)
        rebuilt = fresh.get(spec, 500, seed=0)
        assert fresh.misses == 1
        assert (rebuilt.block == built.block).all()
        reader = TraceStore(tmp_path)
        reader.get(spec, 500, seed=0)
        assert (reader.hits, reader.misses) == (1, 0)

    def test_interrupted_save_leaves_no_litter(self, tmp_path, monkeypatch):
        """An interrupt mid-write removes the temp file and publishes no
        entry, so the next read rebuilds instead of loading half a trace."""
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])

        def interrupted(handle, **arrays):
            handle.write(b"PK\x03\x04 partial")
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(np, "savez_compressed", interrupted)
            with pytest.raises(KeyboardInterrupt):
                TraceStore(tmp_path).get(spec, 256, seed=0)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        fresh = TraceStore(tmp_path)
        assert len(fresh.get(spec, 256, seed=0)) == 256
        assert fresh.misses == 1
        assert len(list(tmp_path.rglob("*.npz"))) == 1

    def test_concurrent_writers_leave_one_entry(self, tmp_path):
        """Eight stores racing to materialize one trace publish a single
        loadable entry and no temp files."""
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        expected = TraceStore().get(spec, 256, seed=0)
        start = threading.Barrier(8)
        errors = []

        def write():
            try:
                start.wait(timeout=10)
                TraceStore(tmp_path).get(spec, 256, seed=0)
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(tmp_path.rglob("*.tmp")) == []
        [path] = list(tmp_path.rglob("*.npz"))
        loaded = CompiledTrace.load(path)
        assert (loaded.block == expected.block).all()
        assert (loaded.inst_gap == expected.inst_gap).all()


# ============================================================= equivalence


@pytest.mark.parametrize("workload", SUITE_REPRESENTATIVES)
@pytest.mark.parametrize("prefetcher", ["none", "stride", "bingo", "pythia",
                                        "mlop"])
def test_fixed_prefetcher_equivalence(workload, prefetcher):
    """Compiled replay == object replay: counters, stats, classifications."""
    records = _object_trace(workload)
    with use_trace_store(TraceStore()):
        via_objects = run_fixed_prefetcher(records, prefetcher)
        via_compiled = run_fixed_prefetcher(compile_trace(records), prefetcher)
    assert _result_fields(via_compiled) == _result_fields(via_objects)


@pytest.mark.parametrize("workload", SUITE_REPRESENTATIVES)
def test_bandit_equivalence(workload):
    """The bandit step loop (record-hook path) is bit-identical too."""
    records = _object_trace(workload)
    with use_trace_store(TraceStore()):
        via_objects = run_bandit_prefetch(records, seed=3)
        via_compiled = run_bandit_prefetch(compile_trace(records), seed=3)
    assert _result_fields(via_compiled) == _result_fields(via_objects)
    assert via_compiled.arm_history == via_objects.arm_history
    assert via_compiled.arm_trace == via_objects.arm_trace


def test_core_state_flush_matches_object_path():
    """After a compiled replay the core's public state equals the object
    path's — not just the derived counters."""
    records = _object_trace(SUITE_REPRESENTATIVES[0], length=500)
    cores = []
    for trace in (records, compile_trace(records)):
        hierarchy = CacheHierarchy(HierarchyConfig())
        core = TraceCore(hierarchy, CoreConfig())
        if isinstance(trace, CompiledTrace):
            core.run_compiled(trace)
        else:
            core.run(trace)
        cores.append(core)
    object_core, compiled_core = cores
    assert compiled_core.instructions == object_core.instructions
    assert compiled_core.retire_time == object_core.retire_time
    assert compiled_core.dispatch_time == object_core.dispatch_time
    assert compiled_core.cycles == object_core.cycles
    assert list(compiled_core._window) == list(object_core._window)
