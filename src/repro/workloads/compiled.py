"""Compiled array-backed traces and the trace store.

The object representation of a trace — a list of
:class:`~repro.workloads.trace.TraceRecord` NamedTuples — is convenient but
expensive to materialize and replay: every figure regenerates the same
workloads once per prefetcher arm, and every replayed record pays NamedTuple
construction plus per-field attribute lookups. A :class:`CompiledTrace` is
the same trace *compiled* into a structure-of-arrays form (pc / block /
flags / inst_gap), which

- materializes once and is shared by every replay of the same workload
  (the 11-arm fan-outs and repeated no-prefetch baselines of the figures),
- is memoized by :class:`TraceStore`, keyed by the generator configuration
  and seed, in memory and as one row of a cache directory's result store,
  so repeated CLI/benchmark invocations skip generation entirely, and
- replays through :meth:`~repro.core_model.trace_core.TraceCore.run_compiled`,
  whose fused kernel constructs no per-record object.

Only the cache-block number of each access is stored (as ChampSim traces
do): the simulator consumes addresses exclusively at block granularity, so
reconstructing ``address = block << BLOCK_SHIFT`` is behaviour-preserving —
replaying a compiled trace produces bit-identical counters and IPC to the
object-trace path (asserted suite-by-suite in ``tests/test_compiled_trace``).
Every experiment reads its traces through :func:`compiled_trace_for`.

The store also holds the SMT use case's inputs: one
:class:`~repro.smt.uop.UopBuffer` per ``(ThreadProfile, seed)``, so every
pipeline that runs a thread profile at a seed reads one shared uop stream
instead of generating its own.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.workloads.smt import ThreadProfile
from repro.workloads.suites import WorkloadSpec, spec_by_name
from repro.workloads.trace import BLOCK_SHIFT, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.experiments.runner import ResultCache
    from repro.smt.uop import UopBuffer

_Key = TypeVar("_Key")
_Value = TypeVar("_Value")

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

    def to_image(self) -> bytes:
        """The four arrays as one zip of ``.npy`` members, the layout
        ``np.savez_compressed`` writes (never the :meth:`as_lists` cache).

        Members are deflated at zlib level 1 rather than numpy's default
        level: on 15,000-record traces that encodes about five times faster
        for images about a fifth larger, and every cold disk-backed run pays
        the encoding once per new trace.
        """
        buffer = io.BytesIO()
        with zipfile.ZipFile(
            buffer, "w", zipfile.ZIP_DEFLATED, compresslevel=1
        ) as archive:
            for name in ("pc", "block", "flags", "inst_gap"):
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(
                        member, getattr(self, name), allow_pickle=False
                    )
        return buffer.getvalue()

    @classmethod
    def from_image(cls, image: bytes) -> "CompiledTrace":
        """The trace :meth:`to_image` encoded."""
        with np.load(io.BytesIO(image), allow_pickle=False) as bundle:
            return cls(
                bundle["pc"], bundle["block"], bundle["flags"],
                bundle["inst_gap"],
            )


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
    shared by ~6–11 replays) free. Given a ``directory``, the store also
    keeps every trace it generates as one row of that directory's
    :class:`~repro.experiments.runner.ResultCache` (keyed by
    :func:`trace_key`, valued by :meth:`CompiledTrace.to_image`), which
    shares materializations across processes, pool workers, and repeated
    CLI/benchmark invocations. Puts are atomic; a row that does not decode
    is a miss, and the regenerated trace overwrites it.

    Uop buffers live in memory only; ``memory_entries`` bounds them as it
    bounds the compiled traces, and ``uop_hits``/``uop_misses`` count
    their lookups.
    """

    def __init__(
        self,
        directory: Optional[str | Path] = None,
        memory_entries: int = 64,
    ) -> None:
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.cache: Optional["ResultCache"] = None
        if directory is not None:
            # The experiment runner imports this module, so its store class
            # is imported on first use.
            from repro.experiments.runner import ResultCache

            self.cache = ResultCache(directory)
        self.memory_entries = memory_entries
        self._memory: Dict[str, CompiledTrace] = {}
        self._uop_buffers: Dict[Tuple[ThreadProfile, int], "UopBuffer"] = {}
        self.hits = 0
        self.misses = 0
        self.uop_hits = 0
        self.uop_misses = 0

    def _remember(
        self, memory: Dict[_Key, _Value], key: _Key, value: _Value
    ) -> None:
        if self.memory_entries == 0:
            return
        while len(memory) >= self.memory_entries:
            memory.pop(next(iter(memory)))
        memory[key] = value

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
        cache = self.cache
        if cache is not None:
            hit, image = cache.get(key)
            if hit:
                try:
                    loaded = CompiledTrace.from_image(image)
                except Exception:
                    # A damaged row is a miss, rebuilt and overwritten below.
                    # numpy and zipfile raise many types on damaged archives
                    # (BadZipFile, zlib.error, tokenize.TokenError,
                    # NotImplementedError, ...).
                    pass
                else:
                    self.hits += 1
                    self._remember(self._memory, key, loaded)
                    return loaded
        self.misses += 1
        compiled = CompiledTrace.from_records(
            spec.trace(length, seed=seed, gap_scale=gap_scale)
        )
        if cache is not None:
            cache.put(key, compiled.to_image())
        self._remember(self._memory, key, compiled)
        return compiled

    def close(self) -> None:
        """Close the directory's store connection (see ``ResultCache.close``)."""
        if self.cache is not None:
            self.cache.close()

    def uop_buffer(self, profile: ThreadProfile, seed: int) -> "UopBuffer":
        """The shared uop stream of ``profile`` at ``seed``.

        Keyed by the whole profile, not its name: the name seeds the
        stream's RNG, but the fractions set its cut points.
        """
        # The SMT package imports this module, so its buffer class is
        # imported on first use.
        from repro.smt.uop import UopBuffer

        key = (profile, seed)
        buffer = self._uop_buffers.get(key)
        if buffer is not None:
            self.uop_hits += 1
            return buffer
        self.uop_misses += 1
        buffer = UopBuffer(profile, seed)
        self._remember(self._uop_buffers, key, buffer)
        return buffer


#: Environment variable naming the cache directory whose result store holds
#: the default store's traces — read once per process, so pool workers
#: inherit the CLI/benchmark setting.
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
