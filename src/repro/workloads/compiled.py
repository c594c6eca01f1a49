"""Compiled array-backed traces and the on-disk trace store.

The object representation of a trace — a list of
:class:`~repro.workloads.trace.TraceRecord` NamedTuples — is convenient but
expensive to materialize and replay: every figure regenerates the same
workloads once per prefetcher arm, and every replayed record pays NamedTuple
construction plus per-field attribute lookups. A :class:`CompiledTrace` is
the same trace *compiled* into a structure-of-arrays form (pc / block /
flags / inst_gap), which

- materializes once and is shared by every replay of the same workload
  (the 11-arm fan-outs and repeated no-prefetch baselines of the figures),
- is memoized on disk keyed by the generator configuration and seed, so
  repeated CLI/benchmark invocations skip generation entirely, and
- replays through :meth:`~repro.core_model.trace_core.TraceCore.run_compiled`
  without constructing a single per-record object.

Only the cache-block number of each access is stored (as ChampSim traces
do): the simulator consumes addresses exclusively at block granularity, so
reconstructing ``address = block << BLOCK_SHIFT`` is behaviour-preserving —
replaying a compiled trace produces bit-identical counters and IPC to the
object-trace path (asserted suite-by-suite in ``tests/test_compiled_trace``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.suites import WorkloadSpec, spec_by_name
from repro.workloads.trace import BLOCK_SHIFT, TraceRecord

#: Bump to invalidate every stored compiled trace (array layout or
#: generator-visible semantics changed).
TRACE_STORE_VERSION = 1

#: Flag bits in :attr:`CompiledTrace.flags`.
FLAG_WRITE = 1
FLAG_DEPENDENT = 2


class CompiledTrace:
    """One workload trace as a structure of arrays.

    Arrays are parallel and immutable by convention: ``pc`` and ``block``
    are ``int64``, ``flags`` is ``uint8`` (bit 0 = write, bit 1 =
    dependent), and ``inst_gap`` is ``int32``.
    """

    __slots__ = ("pc", "block", "flags", "inst_gap", "_lists")

    def __init__(
        self,
        pc: np.ndarray,
        block: np.ndarray,
        flags: np.ndarray,
        inst_gap: np.ndarray,
    ) -> None:
        length = len(pc)
        if not (len(block) == len(flags) == len(inst_gap) == length):
            raise ValueError("compiled trace arrays must have equal length")
        self.pc = np.ascontiguousarray(pc, dtype=np.int64)
        self.block = np.ascontiguousarray(block, dtype=np.int64)
        self.flags = np.ascontiguousarray(flags, dtype=np.uint8)
        self.inst_gap = np.ascontiguousarray(inst_gap, dtype=np.int32)
        self._lists: Optional[
            Tuple[List[int], List[int], List[int], List[int]]
        ] = None

    # ------------------------------------------------------------ construction

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "CompiledTrace":
        """Compile an object trace into array form."""
        pcs: List[int] = []
        blocks: List[int] = []
        flags: List[int] = []
        gaps: List[int] = []
        pcs_append = pcs.append
        blocks_append = blocks.append
        flags_append = flags.append
        gaps_append = gaps.append
        for record in records:
            pcs_append(record.pc)
            blocks_append(record.address >> BLOCK_SHIFT)
            flags_append(
                (FLAG_WRITE if record.is_write else 0)
                | (FLAG_DEPENDENT if record.dependent else 0)
            )
            gaps_append(record.inst_gap)
        return cls(
            np.array(pcs, dtype=np.int64),
            np.array(blocks, dtype=np.int64),
            np.array(flags, dtype=np.uint8),
            np.array(gaps, dtype=np.int32),
        )

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[TraceRecord]:
        """Object-trace compatibility path: yields :class:`TraceRecord`."""
        return iter(self.to_records())

    def to_records(self) -> List[TraceRecord]:
        """Reconstruct the object trace (block-granular addresses)."""
        pcs, blocks, flags, gaps = self.as_lists()
        return [
            TraceRecord(
                pcs[index],
                blocks[index] << BLOCK_SHIFT,
                bool(flags[index] & FLAG_WRITE),
                gaps[index],
                bool(flags[index] & FLAG_DEPENDENT),
            )
            for index in range(len(pcs))
        ]

    def as_lists(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Plain-``int`` views of the arrays for the replay kernel.

        NumPy scalar indexing would dominate a Python-level replay loop, so
        the hot path iterates plain lists; the conversion is one C-level
        pass, cached for the lifetime of the trace.
        """
        if self._lists is None:
            self._lists = (
                self.pc.tolist(),
                self.block.tolist(),
                self.flags.tolist(),
                self.inst_gap.tolist(),
            )
        return self._lists

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> None:
        """Write the arrays to ``path`` (``.npz``), atomically."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                np.savez_compressed(
                    handle,
                    pc=self.pc,
                    block=self.block,
                    flags=self.flags,
                    inst_gap=self.inst_gap,
                )
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "CompiledTrace":
        with np.load(Path(path), allow_pickle=False) as bundle:
            return cls(
                bundle["pc"], bundle["block"], bundle["flags"],
                bundle["inst_gap"],
            )


def compile_trace(records: Sequence[TraceRecord]) -> CompiledTrace:
    """Module-level alias for :meth:`CompiledTrace.from_records`."""
    return CompiledTrace.from_records(records)


# ================================================================ trace keys


def trace_key(
    spec: WorkloadSpec, length: int, seed: int, gap_scale: float = 1.0
) -> str:
    """Stable content hash identifying one materialized workload trace.

    Keyed on everything that determines the generated records: the
    generator kind and kwargs, the gap/write knobs, the trace length, the
    seed, and the store schema version.
    """
    payload = json.dumps(
        [
            "repro-trace",
            TRACE_STORE_VERSION,
            spec.name,
            spec.suite,
            spec.kind,
            spec.generator_kwargs,
            repr(spec.gap_mean),
            repr(spec.write_fraction),
            length,
            seed,
            repr(gap_scale),
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ================================================================= the store


class TraceStore:
    """Process-wide memoization of compiled traces, optionally disk-backed.

    The in-memory layer makes the per-figure fan-outs (one generation
    shared by ~6–11 replays) free; the disk layer (``directory`` set)
    shares materializations across processes, pool workers, and repeated
    CLI/benchmark invocations. Disk writes are atomic; unreadable entries
    are regenerated and overwritten.
    """

    def __init__(
        self,
        directory: Optional[str | Path] = None,
        memory_entries: int = 64,
    ) -> None:
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.directory = (
            Path(directory) / f"t{TRACE_STORE_VERSION}"
            if directory is not None else None
        )
        self.memory_entries = memory_entries
        self._memory: Dict[str, CompiledTrace] = {}
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.npz"

    def _remember(self, key: str, compiled: CompiledTrace) -> None:
        if self.memory_entries == 0:
            return
        while len(self._memory) >= self.memory_entries:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = compiled

    def get(
        self,
        spec: WorkloadSpec,
        length: int,
        seed: int = 0,
        gap_scale: float = 1.0,
    ) -> CompiledTrace:
        """The compiled trace for ``spec`` — memoized, generating at most once."""
        key = trace_key(spec, length, seed, gap_scale)
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        path = self._path(key)
        if path is not None and path.is_file():
            try:
                loaded = CompiledTrace.load(path)
            except (OSError, ValueError, KeyError, EOFError, IndexError,
                    ImportError, zipfile.BadZipFile):
                loaded = None  # corrupt/stale entry: fall through and rebuild
            if loaded is not None:
                self.hits += 1
                self._remember(key, loaded)
                return loaded
        self.misses += 1
        compiled = CompiledTrace.from_records(
            spec.trace(length, seed=seed, gap_scale=gap_scale)
        )
        if path is not None:
            compiled.save(path)
        self._remember(key, compiled)
        return compiled


#: Environment variable naming the disk directory of the default store —
#: read once per process, so pool workers inherit the CLI/benchmark setting.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE_DIR"

_ACTIVE_STORE: Optional[TraceStore] = None


def get_trace_store() -> TraceStore:
    """The process-wide store used by the experiment task functions."""
    global _ACTIVE_STORE
    if _ACTIVE_STORE is None:
        # The env var only relocates the content-keyed store directory;
        # entries are keyed by trace content, so results cannot differ.
        # repro: cache-invariant[REPRO_TRACE_CACHE_DIR]
        directory = os.environ.get(TRACE_CACHE_ENV) or None
        # Deliberate per-process memo of the store handle.
        _ACTIVE_STORE = TraceStore(directory)
    return _ACTIVE_STORE


def set_trace_store(store: Optional[TraceStore]) -> Optional[TraceStore]:
    """Install ``store`` globally (``None`` re-reads the environment)."""
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = store
    return previous


@contextmanager
def use_trace_store(store: Optional[TraceStore]) -> Iterator[None]:
    """Temporarily install ``store`` as the process-wide trace store."""
    previous = set_trace_store(store)
    try:
        yield
    finally:
        set_trace_store(previous)


def compiled_trace_for(
    spec_name: str, length: int, seed: int = 0, gap_scale: float = 1.0
) -> CompiledTrace:
    """Compiled trace for a workload name, through the active store."""
    return get_trace_store().get(
        spec_by_name(spec_name), length, seed=seed, gap_scale=gap_scale
    )
