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
import random
import struct
import zipfile

import numpy as np
import pytest

from repro.core_model.trace_core import CoreConfig, TraceCore
from repro.experiments.figures import fig14_fourcore
from repro.experiments.prefetch import (
    run_bandit_prefetch,
    run_fixed_prefetcher,
)
from repro.experiments.runner import ExecutionContext, ResultCache, use_context
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.workloads.compiled import (
    FLAG_DEPENDENT,
    FLAG_WRITE,
    CompiledTrace,
    TraceStore,
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


def _damage_row(directory, spec, length, corrupt):
    """Replace the stored image of ``spec``'s trace with ``corrupt(image)``."""
    cache = ResultCache(directory)
    key = trace_key(spec, length, 0)
    hit, image = cache.get(key)
    assert hit
    cache.put(key, corrupt(image))
    cache.close()


def _assert_same_trace(trace, expected):
    for column in ("pc", "block", "flags", "inst_gap"):
        assert (getattr(trace, column) == getattr(expected, column)).all()


def _assert_rebuilt(directory, spec, length, expected):
    """A fresh store misses once and rebuilds ``expected``; the row it
    rewrites serves the next reader."""
    fresh = TraceStore(directory)
    _assert_same_trace(fresh.get(spec, length, seed=0), expected)
    assert (fresh.hits, fresh.misses) == (0, 1)
    reader = TraceStore(directory)
    _assert_same_trace(reader.get(spec, length, seed=0), expected)
    assert (reader.hits, reader.misses) == (1, 0)


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
        compiled = CompiledTrace.from_records(records)
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
        compiled = CompiledTrace.from_records(records)
        assert list(compiled.flags) == [
            FLAG_WRITE, FLAG_DEPENDENT, FLAG_WRITE | FLAG_DEPENDENT,
        ]

    def test_mismatched_lengths_rejected(self):
        compiled = CompiledTrace.from_records([TraceRecord(1, 64, False, 0)])
        with pytest.raises(ValueError):
            CompiledTrace(
                compiled.pc, compiled.block, compiled.flags,
                compiled.inst_gap[:0],
            )


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
        """A trace is one row of the directory's result store; the row holds
        the four arrays only, never the ``as_lists`` cache."""
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        writer = TraceStore(tmp_path)
        built = writer.get(spec, 256, seed=0)
        reader = TraceStore(tmp_path)
        loaded = reader.get(spec, 256, seed=0)
        assert reader.hits == 1 and reader.misses == 0
        _assert_same_trace(loaded, built)
        cache = ResultCache(tmp_path)
        assert len(cache) == 1
        _, stored = cache.get(trace_key(spec, 256, 0))
        loaded.as_lists()
        assert len(loaded.to_image()) == len(stored)
        assert [p.name for p in tmp_path.iterdir()] == ["v6"]
        assert {p.name for p in (tmp_path / "v6").iterdir()} <= {
            "results.sqlite", "results.sqlite-shm", "results.sqlite-wal",
        }

    def test_key_distinguishes_generator_config(self):
        spec_a = spec_by_name(SUITE_REPRESENTATIVES[0])
        spec_b = spec_by_name(SUITE_REPRESENTATIVES[1])
        assert trace_key(spec_a, 256, 0) != trace_key(spec_b, 256, 0)
        assert trace_key(spec_a, 256, 0) != trace_key(spec_a, 256, 1)
        assert trace_key(spec_a, 256, 0) != trace_key(spec_a, 512, 0)
        assert trace_key(spec_a, 256, 0, gap_scale=2.0) != trace_key(
            spec_a, 256, 0
        )

    def test_savez_compressed_row_still_decodes(self, tmp_path):
        """A row written as ``np.savez_compressed`` at zlib's default level
        (the earlier writer) is a hit, not a rebuild."""
        spec = spec_by_name("milc06")
        built = TraceStore().get(spec, 500, seed=0)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer, pc=built.pc, block=built.block, flags=built.flags,
            inst_gap=built.inst_gap,
        )
        cache = ResultCache(tmp_path)
        cache.put(trace_key(spec, 500, 0), buffer.getvalue())
        cache.close()
        reader = TraceStore(tmp_path)
        _assert_same_trace(reader.get(spec, 500, seed=0), built)
        assert (reader.hits, reader.misses) == (1, 0)

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        built = TraceStore(tmp_path).get(spec, 256, seed=0)
        _damage_row(tmp_path, spec, 256, lambda image: b"not a trace")
        _assert_rebuilt(tmp_path, spec, 256, built)

    @pytest.mark.parametrize("cut", [0, 10, 0.5], ids=["empty", "header",
                                                       "half"])
    def test_truncated_entry_is_rebuilt(self, tmp_path, cut):
        """Empty, header-only, and mid-archive truncations of a stored image
        (EOFError / BadZipFile) are all misses, not crashes."""
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        built = TraceStore(tmp_path).get(spec, 256, seed=0)

        def truncate(image):
            return image[:int(cut * len(image)) if isinstance(cut, float)
                         else cut]

        _damage_row(tmp_path, spec, 256, truncate)
        _assert_rebuilt(tmp_path, spec, 256, built)

    @pytest.mark.parametrize("corrupt", [
        _bad_deflate_block, _unknown_compression_method,
        _unbalanced_array_header,
    ], ids=["deflate-block", "compression-method", "array-header"])
    def test_undecodable_entry_is_rebuilt(self, tmp_path, corrupt):
        """Whatever numpy and zipfile raise on a corrupt image is a miss:
        the trace is generated again and overwrites the row."""
        spec = spec_by_name("milc06")
        built = TraceStore(tmp_path).get(spec, 500, seed=0)
        _damage_row(tmp_path, spec, 500, corrupt)
        _assert_rebuilt(tmp_path, spec, 500, built)

    def test_damaged_store_file_is_bypassed(self, tmp_path, capsys):
        """A store file SQLite cannot read costs the cache, not the trace:
        the store generates it and the warning names the file."""
        spec = spec_by_name(SUITE_REPRESENTATIVES[0])
        expected = TraceStore().get(spec, 256, seed=0)
        path = ResultCache(tmp_path).path
        path.parent.mkdir(parents=True)
        path.write_bytes(random.Random(0).randbytes(4096))
        store = TraceStore(tmp_path)
        _assert_same_trace(store.get(spec, 256, seed=0), expected)
        assert (store.hits, store.misses) == (0, 1)
        err = capsys.readouterr().err
        assert str(path) in err and "Deleting the file rebuilds the cache" in err

    def test_fig14_reads_each_core_trace_once(self):
        """Every Figure 14 task reads its four cores' traces through the
        store: one miss per (workload, core seed), hits after that."""
        max_mixes = 2
        store = TraceStore()
        with use_context(ExecutionContext()), use_trace_store(store):
            fig14_fourcore(trace_length=300, max_mixes=max_mixes)
        assert store.misses == 4 * max_mixes
        # Per workload: the no-prefetch base, four prefetchers and the
        # bandit, each reading four cores.
        assert store.hits == 6 * 4 * max_mixes - store.misses


# ============================================================= equivalence


@pytest.mark.parametrize("workload", SUITE_REPRESENTATIVES)
@pytest.mark.parametrize("prefetcher", ["none", "stride", "bingo", "pythia",
                                        "mlop"])
def test_fixed_prefetcher_equivalence(workload, prefetcher):
    """Compiled replay == object replay: counters, stats, classifications."""
    records = _object_trace(workload)
    with use_trace_store(TraceStore()):
        via_objects = run_fixed_prefetcher(records, prefetcher)
        via_compiled = run_fixed_prefetcher(CompiledTrace.from_records(records), prefetcher)
    assert _result_fields(via_compiled) == _result_fields(via_objects)


@pytest.mark.parametrize("workload", SUITE_REPRESENTATIVES)
def test_bandit_equivalence(workload):
    """The bandit step loop (record-hook path) is bit-identical too."""
    records = _object_trace(workload)
    with use_trace_store(TraceStore()):
        via_objects = run_bandit_prefetch(records, seed=3)
        via_compiled = run_bandit_prefetch(CompiledTrace.from_records(records), seed=3)
    assert _result_fields(via_compiled) == _result_fields(via_objects)
    assert via_compiled.arm_history == via_objects.arm_history
    assert via_compiled.arm_trace == via_objects.arm_trace


def test_core_state_flush_matches_object_path():
    """After a compiled replay the core's public state equals the object
    path's — not just the derived counters."""
    records = _object_trace(SUITE_REPRESENTATIVES[0], length=500)
    cores = []
    for trace in (records, CompiledTrace.from_records(records)):
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
