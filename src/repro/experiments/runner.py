"""Parallel experiment execution engine with result caching and telemetry.

Every paper figure decomposes into independent *tasks* — one trace replay
(or one SMT mix run) each. This module executes such task lists:

- :func:`run_parallel` — a deterministic parallel map over :class:`Task`
  lists. Results come back in submission order regardless of completion
  order, and every task carries its own seed in its kwargs, so ``--jobs 4``
  produces bit-identical figures to a serial run.
- :class:`ResultCache` — a content-keyed on-disk cache: one SQLite table
  per cache directory, one row per task. The key is a stable SHA-256 over
  the task function's qualified name and a canonical encoding of its kwargs
  (workload spec name, trace length, seeds, and the config dataclasses), so
  a replay is re-executed only when an input changed. Values are pickled
  :class:`~repro.experiments.prefetch.PrefetchRunResult` /
  :class:`~repro.experiments.smt.SMTRunResult` values (or plain dicts);
  bumping :data:`CACHE_SCHEMA_VERSION` invalidates every stored entry.
- :class:`RunTelemetry` — per-task wall time and cache hit/miss accounting,
  plus a JSON run manifest emitted alongside the tables.

Experiment code does not pass the engine around: an
:class:`ExecutionContext` (jobs, cache, telemetry) is installed globally —
by the CLI from ``--jobs``/``--cache-dir``/``--no-cache``, or by the
benchmark harness — and :func:`run_parallel` picks it up. The default
context is serial and uncached, which keeps library use dependency-free.

Task *functions* must be module-level (the process pool pickles them by
reference, and :func:`task_key` rejects any other) and must rebuild their
inputs from picklable descriptions; the ones defined here regenerate
workload traces from spec names, which is deterministic because trace
generation is seeded.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import sys
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core_model.lane_kernel import LaneSpec

from repro.constants import PREFETCH_GAMMA
from repro.core_model.trace_core import CoreConfig
from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
    SMT_CONFIG_TABLE5,
    PrefetchBanditParams,
    smt_algorithm_lineup,
    table8_algorithm_lineup,
)
from repro.experiments.prefetch import (
    PrefetchRunResult,
    run_bandit_prefetch,
    run_fixed_arm,
    run_fixed_prefetcher,
    run_multicore_bandit,
    run_multicore_fixed,
)
from repro.experiments.smt import (
    DEFAULT_SMT_SCALE,
    SMTRunResult,
    SMTScale,
    run_smt_bandit,
    run_smt_static,
)
from repro.smt.pipeline import SMTConfig
from repro.prefetch.base import Prefetcher
from repro.uncore.hierarchy import HierarchyConfig
from repro.workloads.compiled import compiled_trace_for
from repro.workloads.suites import spec_by_name

#: Bump to invalidate every cached result (simulator-visible semantics
#: changed: result dataclass layout, replay fidelity fixes, ...).
#: v5: defaulted parameters are folded into the fingerprint (see
#: :func:`task_key`), so keys of tasks that omitted kwargs changed.
#: v6: lane-batch payloads grew ``lane_kernel`` / ``lane_fallback``
#: telemetry fields, so cached lane payloads from v5 lack them. Replaying
#: each distinct lane once changed no result and no payload field, so v6
#: entries stay valid (``lane_kernel`` now reads ``"dict"`` or
#: ``"scalar"``; older entries may read ``"array"``).
#: Moving the store from one pickle file per entry to one SQLite table
#: kept v6: the version is part of every key (and so of the pinned task
#: lists), no entry's meaning changed, and the old per-entry files are
#: simply no longer read.
CACHE_SCHEMA_VERSION = 6


# ============================================================== cache keys


#: Exact field types whose values cannot change in place: a frozen
#: dataclass holding only these keeps its text for life.
_IMMUTABLE_SCALARS = frozenset({str, int, float, bool, type(None)})
#: Bound on the memo below, which is cleared when full.
_FROZEN_TEXT_LIMIT = 256
#: ``id(instance) -> (instance, text)``. Holding the instance keeps its id
#: from being reused by another object while the entry lives.
_frozen_text: Dict[int, Tuple[Any, str]] = {}


@lru_cache(maxsize=None)
def _dataclass_layout(
    cls: type,
) -> Optional[Tuple[bool, Tuple[Tuple[str, str], ...]]]:
    """``(frozen, ((field name, its JSON text), ...))`` for a dataclass type.

    ``None`` for any other type. Fields keep declaration order, as
    :func:`dataclasses.fields` returns them.
    """
    if not is_dataclass(cls):
        return None
    frozen = bool(getattr(getattr(cls, "__dataclass_params__", None),
                          "frozen", False))
    names = tuple((f.name, encode_basestring_ascii(f.name)) for f in fields(cls))
    return frozen, names


def _canonical(value: Any, sep: str = ",") -> str:
    """Canonical JSON text of a task input, written in one pass.

    Stable across processes and interpreter runs. A dataclass encodes as
    ``["@dc",type name,[[field,value],...]]`` with its fields in
    declaration order, so reordering a config's fields changes every key
    holding it (a cache miss, never a wrong hit). A dict encodes as
    ``["@dict",[[key text,value],...]]``, its items stably sorted by key
    text, where the key text is the key's own encoding under ``", "``
    separators; lists and tuples encode as ``["@seq",[...]]``; floats as
    ``["@f",repr]`` (shortest round-trip form, so ``-0.0``, ``nan`` and
    ``inf`` stay distinct); ``None``, bools, ints and strs as JSON.
    Sets, callables, classes and other objects raise :class:`TypeError`,
    so unstable inputs fail loudly instead of hashing differently.
    ``sep`` separates list items: ``","`` for the key payload, ``", "``
    inside dict key texts.

    The text of a frozen dataclass whose fields are all exact
    ``str``/``int``/``float``/``bool``/``None`` is kept per instance
    identity (never per value: ``0.0 == -0.0`` and ``1 == 1.0 == True``
    encode differently), so the config shared by every task of a figure
    is encoded once.
    """
    cls = type(value)
    # Exact builtins first; none of them is a dataclass, so skipping the
    # isinstance order below cannot change the encoding.
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if cls is float:
        return f'["@f"{sep}"{float.__repr__(value)}"]'
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    layout = _dataclass_layout(cls)
    if layout is not None and not isinstance(value, type):
        frozen, names = layout
        memoize = frozen and sep == ","
        if memoize:
            cached = _frozen_text.get(id(value))
            if cached is not None:
                return cached[1]
        parts = []
        for name, name_text in names:
            item = getattr(value, name)
            memoize = memoize and type(item) in _IMMUTABLE_SCALARS
            parts.append(f"[{name_text}{sep}{_canonical(item, sep)}]")
        text = (f'["@dc"{sep}{encode_basestring_ascii(cls.__name__)}{sep}'
                f'[{sep.join(parts)}]]')
        if memoize:
            if len(_frozen_text) >= _FROZEN_TEXT_LIMIT:
                _frozen_text.clear()
            _frozen_text[id(value)] = (value, text)
        return text
    if isinstance(value, dict):
        items = [(encode_basestring_ascii(k) if type(k) is str
                  else _canonical(k, ", "), _canonical(v, sep))
                 for k, v in value.items()]
        items.sort(key=itemgetter(0))
        body = sep.join([f"[{encode_basestring_ascii(k)}{sep}{v}]"
                         for k, v in items])
        return f'["@dict"{sep}[{body}]]'
    if isinstance(value, (list, tuple)):
        body = sep.join([_canonical(item, sep) for item in value])
        return f'["@seq"{sep}[{body}]]'
    if isinstance(value, float):
        return f'["@f"{sep}{encode_basestring_ascii(repr(value))}]'
    if isinstance(value, int):  # int subclasses, such as IntEnum members
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r}; "
        "pass plain data or dataclasses"
    )


@lru_cache(maxsize=None)
def _fn_defaults(fn: Callable[..., Any]) -> Tuple[Tuple[str, Any], ...]:
    """The defaulted ``(name, value)`` pairs of ``fn``'s signature.

    Cached per function object: signatures are immutable for the lifetime
    of the process and ``task_key`` is called once per task per run.
    """
    parameters = inspect.signature(fn).parameters
    return tuple(
        (name, parameter.default)
        for name, parameter in parameters.items()
        if parameter.default is not inspect.Parameter.empty
    )


def task_key(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> str:
    """Stable content hash identifying one task execution.

    Defaulted parameters the caller omitted are folded into the
    fingerprint at their default values: a task submitted without
    ``core_config`` and one submitted with the (identical) default share
    a key, and — the case that matters — editing a default changes every
    key it participated in, instead of silently serving results computed
    under the old default.

    The function must be module-level: two lambdas or local functions of
    one scope share a qualified name, and a bound method's name omits its
    instance, so either would let different computations share a key.
    """
    qualname = fn.__qualname__
    if "<" in qualname or inspect.ismethod(fn):
        raise TypeError(
            f"cannot build a stable cache key for {qualname!r}; task "
            "functions must be module-level (no lambdas, local functions "
            "or bound methods)"
        )
    bound = {name: value for name, value in _fn_defaults(fn)}
    bound.update(kwargs)
    qualified = encode_basestring_ascii(f"{fn.__module__}.{qualname}")
    payload = (f'["repro-task",{CACHE_SCHEMA_VERSION},{qualified},'
               f'{_canonical(bound)}]')
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ==================================================================== tasks


@dataclass(frozen=True)
class Task:
    """One unit of experiment work: a module-level function plus kwargs."""

    fn: Callable[..., Any]
    kwargs: Dict[str, Any]
    label: str = ""

    def key(self) -> str:
        return task_key(self.fn, self.kwargs)


class TaskExecutionError(RuntimeError):
    """A pool worker crashed; carries the identity of the failing task.

    The bare ``future.result()`` exception says nothing about *which* of a
    figure's dozens of replays died; this wrapper names the task (label,
    function, cache key) and chains the original exception as its cause.
    """

    def __init__(self, task: Task, key: Optional[str], error: BaseException):
        label = task.label or f"{task.fn.__module__}.{task.fn.__qualname__}"
        detail = f"task {label!r}"
        if key:
            detail += f" (key {key[:12]}…)"
        if isinstance(error, BrokenProcessPool):
            # A dead worker fails every unfinished task alike, so the one
            # named is the first unfinished, not necessarily the culprit.
            where = "was unfinished when the process pool broke"
        else:
            where = "failed in pool worker"
        super().__init__(f"{detail} {where}: {type(error).__name__}: {error}")
        self.task = task
        self.task_key = key


# ==================================================================== cache


#: Seconds a statement waits for another connection's lock on the result
#: store before ``sqlite3.OperationalError`` ("database is locked") is
#: raised. Concurrent runs on one directory hold the write lock for one
#: row at a time, so only a stuck or very slow writer reaches it.
STORE_BUSY_TIMEOUT_S = 60.0

_CREATE_RESULTS = ("CREATE TABLE IF NOT EXISTS results "
                   "(key TEXT PRIMARY KEY, value BLOB NOT NULL) WITHOUT ROWID")
_SELECT_RESULT = "SELECT value FROM results WHERE key = ?"
_REPLACE_RESULT = "INSERT OR REPLACE INTO results (key, value) VALUES (?, ?)"


class ResultCache:
    """Content-keyed result store: one SQLite table per cache directory.

    Entries live in ``directory/v<schema>/results.sqlite`` (with its
    ``-wal`` and ``-shm`` side files while a connection is open), one row
    of ``results(key TEXT PRIMARY KEY, value BLOB NOT NULL)`` per task,
    the value pickled. The store runs in WAL mode with
    ``synchronous=NORMAL``: commits do not fsync, and the file stays
    consistent after a crash. Each :meth:`put` is one autocommit
    ``INSERT OR REPLACE``, so a put is atomic and no transaction spans two
    tasks: an interrupt or a failing task keeps every entry written before
    it. Concurrent workers and concurrent CLI invocations may share one
    cache directory on a local filesystem (WAL's shared-memory index does
    not work over a network filesystem); a writer waits up to
    :data:`STORE_BUSY_TIMEOUT_S` for another's lock.

    A value that does not unpickle (a stale pickle from a refactored
    module, corrupt bytes) is a miss, and the rerun task's put overwrites
    it. A damaged store file (SQLite reports "not a database" or
    "malformed") is reported once on stderr and then bypassed: every get
    misses and every put is dropped, which leaves the results unchanged.
    Deleting the file rebuilds the cache.

    The connection opens on first use, and again in a forked child, which
    must not use its parent's connection. It serves the thread that opened
    it; give each thread its own :class:`ResultCache`.
    """

    def __init__(self, directory: str | Path) -> None:
        self.root = Path(directory)
        self.directory = self.root / f"v{CACHE_SCHEMA_VERSION}"
        self.path = self.directory / "results.sqlite"
        self._connection: Any = None
        #: The process that opened ``_connection``.
        self._pid = 0
        self._damaged = False

    def _store(self) -> Any:
        """The open connection, opened on first use; ``None`` once damaged."""
        if self._pid == os.getpid():
            return self._connection
        if self._damaged:
            return None
        # Imported here, not at module level: the import takes a few
        # milliseconds that importing the figures should not pay.
        import sqlite3

        self.directory.mkdir(parents=True, exist_ok=True)
        # ``isolation_level=None``: every statement commits on its own.
        self._connection = sqlite3.connect(
            self.path, timeout=STORE_BUSY_TIMEOUT_S, isolation_level=None
        )
        self._pid = os.getpid()
        try:
            # Switching a new store to WAL upgrades a read lock to a write
            # lock, and while another connection switches it too, SQLite
            # answers "database is locked" at once instead of waiting. Once
            # one switch commits, the others find WAL mode and only read.
            deadline = time.monotonic() + STORE_BUSY_TIMEOUT_S
            while True:
                try:
                    self._connection.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as error:
                    if ("locked" not in str(error)
                            or time.monotonic() >= deadline):
                        raise
                    time.sleep(0.001)
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute(_CREATE_RESULTS)
        except Exception as error:
            if not self._bypass(error):
                self.close()
                raise
        return self._connection

    def _bypass(self, error: Exception) -> bool:
        """Whether ``error`` shows a damaged store; if so, warn once and
        stop using the store. Any other error is the caller's to raise."""
        import sqlite3

        # SQLITE_NOTADB and SQLITE_CORRUPT raise ``DatabaseError`` itself;
        # busy, locked and I/O errors raise its subclass OperationalError,
        # which must surface once the busy timeout has expired.
        if type(error) is not sqlite3.DatabaseError:
            return False
        # ``_pid`` stays, so :meth:`_store` answers ``None`` from now on.
        self._connection.close()
        self._connection = None
        self._damaged = True
        print(f"[cache] warning: result store {self.path} is damaged "
              f"({error}); this run is not cached. Deleting the file "
              "rebuilds the cache.", file=sys.stderr)
        return True

    def _query(self, sql: str, parameters: Tuple[Any, ...]) -> Any:
        """The first row ``sql`` returns, or ``None`` when it returns none
        or the store is bypassed."""
        store = self._store()
        if store is None:
            return None
        try:
            return store.execute(sql, parameters).fetchone()
        except Exception as error:
            if not self._bypass(error):
                raise
            return None

    def get(self, key: str) -> Tuple[bool, Any]:
        """Returns ``(hit, value)``; undecodable entries count as misses."""
        row = self._query(_SELECT_RESULT, (key,))
        if row is None:
            return False, None
        try:
            return True, pickle.loads(row[0])
        except Exception:
            # Stale pickles from a refactored module and corrupt bytes
            # regenerate instead of crashing the run; ``pickle.loads``
            # documents no bound on what corrupt input raises (ValueError,
            # OverflowError, UnicodeDecodeError, ...).
            return False, None

    def put(self, key: str, value: Any) -> None:
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._query(_REPLACE_RESULT, (key, data))

    def __len__(self) -> int:
        """Rows in the store; 0, without creating it, when it does not exist."""
        if self._connection is None and not self.path.exists():
            return 0
        row = self._query("SELECT COUNT(*) FROM results", ())
        return 0 if row is None else row[0]

    def close(self) -> None:
        """Close the connection; the next use reopens it. The last
        connection to close folds the WAL back into the store file."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        self._pid = 0


# ================================================================ telemetry


@dataclass
class TaskRecord:
    """Telemetry for one executed (or cache-served) task."""

    label: str
    key: str
    seconds: float
    cache_hit: bool
    #: Trace records the task replayed (0 when unknown or cache-served).
    records: int = 0
    #: Lane path that produced the payload ("dict" for the batched kernel,
    #: "scalar" for the per-lane runners; entries cached before the array
    #: side was deleted may say "array"); ``None`` for non-lane tasks.
    #: Cache hits report the path that computed the stored result (all
    #: paths are bit-identical).
    lane_kernel: Optional[str] = None
    #: Why the batch fell back to the scalar path (``None`` when it did not
    #: fall back, or for non-lane tasks).
    lane_fallback: Optional[str] = None


class RunTelemetry:
    """Per-task wall time, throughput, and cache accounting for one run."""

    def __init__(self) -> None:
        self.tasks: List[TaskRecord] = []
        self._started = time.perf_counter()

    def record(
        self,
        label: str,
        key: str,
        seconds: float,
        cache_hit: bool,
        records: int = 0,
        lane_kernel: Optional[str] = None,
        lane_fallback: Optional[str] = None,
    ) -> None:
        self.tasks.append(TaskRecord(
            label, key, seconds, cache_hit, records,
            lane_kernel=lane_kernel, lane_fallback=lane_fallback,
        ))

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.tasks if record.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for record in self.tasks if not record.cache_hit)

    @property
    def task_seconds(self) -> float:
        """Summed per-task execution time (not wall time under a pool)."""
        return sum(record.seconds for record in self.tasks)

    @property
    def wall_seconds(self) -> float:
        return time.perf_counter() - self._started

    @property
    def replayed_records(self) -> int:
        """Total trace records replayed by executed (non-cached) tasks."""
        return sum(record.records for record in self.tasks)

    @property
    def records_per_second(self) -> float:
        """Replay throughput over executed tasks (0 when nothing ran)."""
        executed = [r for r in self.tasks if not r.cache_hit and r.records]
        seconds = sum(r.seconds for r in executed)
        records = sum(r.records for r in executed)
        return records / seconds if seconds > 0 else 0.0

    def summary_line(self, name: str = "run", jobs: int = 1) -> str:
        line = (
            f"[telemetry] {name}: {len(self.tasks)} tasks "
            f"({self.cache_hits} cache hits, {self.cache_misses} misses), "
            f"task time {self.task_seconds:.2f}s, "
            f"wall {self.wall_seconds:.2f}s, jobs {jobs}"
        )
        throughput = self.records_per_second
        if throughput:
            line += f", {throughput:,.0f} records/s"
        return line

    def manifest(self, **extra: Any) -> Dict[str, Any]:
        """The JSON run manifest emitted alongside the tables.

        Apart from the wall-clock fields (per-task ``seconds`` and the
        totals' ``task_seconds``, ``wall_seconds`` and
        ``records_per_second``), two runs of the same figure write the
        same manifest: the task list, its ordering, the cache keys and the
        replayed-record counts.
        """
        body: Dict[str, Any] = {
            "manifest_version": 4,
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "totals": {
                "tasks": len(self.tasks),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "task_seconds": round(self.task_seconds, 6),
                "wall_seconds": round(self.wall_seconds, 6),
                "replayed_records": self.replayed_records,
                "records_per_second": round(self.records_per_second, 3),
            },
            "tasks": [self._task_entry(record) for record in self.tasks],
        }
        body.update(extra)
        return body

    @staticmethod
    def _task_entry(record: TaskRecord) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "label": record.label,
            "key": record.key,
            "seconds": round(record.seconds, 6),
            "cache_hit": record.cache_hit,
            "records": record.records,
        }
        # Lane-batch disposition: present only for lane tasks, so scalar
        # task entries keep their v2 shape.
        if record.lane_kernel is not None:
            entry["lane_kernel"] = record.lane_kernel
            entry["lane_fallback"] = record.lane_fallback
        return entry

    def write_manifest(self, path: str | Path, **extra: Any) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = self.manifest(**extra)
        path.write_text(json.dumps(body, indent=2) + "\n")
        return path


# ================================================================== context


@dataclass
class ExecutionContext:
    """How experiment task lists execute: parallelism, cache, telemetry."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)


_ACTIVE_CONTEXT = ExecutionContext()


def get_context() -> ExecutionContext:
    """The context :func:`run_parallel` uses when given no overrides."""
    return _ACTIVE_CONTEXT


def set_context(context: ExecutionContext) -> ExecutionContext:
    """Install ``context`` globally; returns the previous one."""
    global _ACTIVE_CONTEXT
    previous = _ACTIVE_CONTEXT
    _ACTIVE_CONTEXT = context
    return previous


@contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Temporarily install ``context`` (CLI and test harness entry point)."""
    previous = set_context(context)
    try:
        yield context
    finally:
        set_context(previous)


# ============================================================= parallel map


def _execute_timed(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> Tuple[Any, float]:
    """Worker entry point: run one task and measure its wall time."""
    start = time.perf_counter()
    value = fn(**kwargs)
    return value, time.perf_counter() - start


def _lane_disposition(value: Any) -> Dict[str, Optional[str]]:
    """Lane-batch telemetry fields carried in a task payload, if any."""
    if isinstance(value, dict) and "lane_kernel" in value:
        return {
            "lane_kernel": value["lane_kernel"],
            "lane_fallback": value.get("lane_fallback"),
        }
    return {}


def run_parallel(
    tasks: Sequence[Task],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] | str = "context",
    telemetry: Optional[RunTelemetry] = None,
) -> List[Any]:
    """Execute ``tasks``, returning results in submission order.

    ``jobs``/``cache``/``telemetry`` default to the active
    :class:`ExecutionContext`. ``jobs <= 1`` runs in-process (and is the
    reference behaviour the pool must reproduce exactly); higher values fan
    misses out over a ``ProcessPoolExecutor``. Cached results short-circuit
    execution entirely and are recorded as hits in the telemetry.
    """
    context = get_context()
    if jobs is None:
        jobs = context.jobs
    if cache == "context":
        cache = context.cache
    if telemetry is None:
        telemetry = context.telemetry

    results: List[Any] = [None] * len(tasks)
    pending: List[Tuple[int, Optional[str], Task]] = []
    for index, task in enumerate(tasks):
        key = task.key() if cache is not None else None
        if key is not None:
            hit, value = cache.get(key)
            if hit:
                results[index] = value
                telemetry.record(
                    task.label, key, 0.0, cache_hit=True,
                    **_lane_disposition(value),
                )
                continue
        pending.append((index, key, task))

    def finish(index: int, key: Optional[str], task: Task,
               value: Any, seconds: float) -> None:
        results[index] = value
        if key is not None:
            cache.put(key, value)
        if isinstance(value, dict):
            replayed = value.get("records", 0)
        else:
            replayed = getattr(value, "records", 0)
        telemetry.record(
            task.label, key or "", seconds, cache_hit=False,
            records=replayed if isinstance(replayed, int) else 0,
            **_lane_disposition(value),
        )

    if not pending:
        return results
    if jobs <= 1 or len(pending) == 1:
        for index, key, task in pending:
            value, seconds = _execute_timed(task.fn, dict(task.kwargs))
            finish(index, key, task, value, seconds)
        return results

    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = [
            pool.submit(_execute_timed, task.fn, dict(task.kwargs))
            for _, _, task in pending
        ]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # After a failure (or an interrupt) tasks not yet started are
            # cancelled; leaving the block waits for the running ones.
            for future in futures:
                future.cancel()
    # finish() strictly in submission order, so the telemetry (and therefore
    # the run manifest's ``tasks`` list) is deterministic regardless of
    # worker completion order, and work that finished before a failure is
    # cached and recorded before the failure is raised.
    failed: Optional[Tuple[Task, Optional[str], BaseException]] = None
    for (index, key, task), future in zip(pending, futures):
        if future.cancelled():
            continue
        error = future.exception()
        if error is None:
            value, seconds = future.result()
            finish(index, key, task, value, seconds)
        elif failed is None:
            failed = (task, key, error)
    if failed is not None:
        task, key, error = failed
        raise TaskExecutionError(task, key, error) from error
    return results


# ======================================================= experiment tasks


def _make_l1(l1_kind: Optional[str]) -> Optional[Prefetcher]:
    """Build the fixed L1 prefetchers of Figure 12 from a picklable tag."""
    if l1_kind is None:
        return None
    if l1_kind == "stride2":
        from repro.prefetch.stride import StridePrefetcher

        return StridePrefetcher(degree=2)
    if l1_kind == "ipcp2":
        from repro.prefetch.ipcp import IPCPPrefetcher

        return IPCPPrefetcher(cs_degree=2, gs_degree=2)
    raise ValueError(f"unknown l1_kind {l1_kind!r}")


def fixed_prefetcher_task(
    *,
    spec_name: str,
    trace_length: int,
    seed: int = 0,
    prefetcher_name: str = "none",
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
    l1_kind: Optional[str] = None,
    gap_scale: float = 1.0,
) -> PrefetchRunResult:
    """One comparator-prefetcher replay, rebuilt from its spec name."""
    trace = compiled_trace_for(spec_name, trace_length, seed=seed,
                               gap_scale=gap_scale)
    return run_fixed_prefetcher(
        trace, prefetcher_name, hierarchy_config, core_config,
        l1_prefetcher=_make_l1(l1_kind),
    )


def fixed_arm_task(
    *,
    spec_name: str,
    trace_length: int,
    arm: int,
    seed: int = 0,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> PrefetchRunResult:
    """One fixed-ensemble-arm replay (a best-static-arm sample)."""
    trace = compiled_trace_for(spec_name, trace_length, seed=seed)
    return run_fixed_arm(trace, arm, hierarchy_config, core_config)


def bandit_prefetch_task(
    *,
    spec_name: str,
    trace_length: int,
    params: PrefetchBanditParams,
    seed: int = 0,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
    algorithm_name: Optional[str] = None,
    algorithm_gamma: float = PREFETCH_GAMMA,
    ideal_latency: bool = False,
    l1_kind: Optional[str] = None,
) -> PrefetchRunResult:
    """One Micro-Armed-Bandit replay.

    ``algorithm_name`` selects a Table 8 lineup entry (Single / Periodic /
    eGreedy / UCB / DUCB) built with ``algorithm_gamma``; ``None`` uses the
    paper's default DUCB with the γ from ``params``.
    """
    trace = compiled_trace_for(spec_name, trace_length, seed=seed)
    algorithm = None
    if algorithm_name is not None:
        algorithm = table8_algorithm_lineup(
            seed=seed, gamma=algorithm_gamma
        )[algorithm_name]
    return run_bandit_prefetch(
        trace,
        algorithm=algorithm,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
        params=params,
        seed=seed,
        ideal_latency=ideal_latency,
        l1_prefetcher=_make_l1(l1_kind),
    )


def multicore_fixed_task(
    *,
    spec_names: Sequence[str],
    trace_length: int,
    seeds: Sequence[int],
    prefetcher_name: str = "none",
    gap_scale: float = 1.0,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> Dict[str, Any]:
    """One N-core fixed-prefetcher run; returns a small picklable payload."""
    traces = [
        spec_by_name(name).trace(trace_length, seed=seed, gap_scale=gap_scale)
        for name, seed in zip(spec_names, seeds)
    ]
    total_ipc, system = run_multicore_fixed(
        traces, prefetcher_name, hierarchy_config, core_config
    )
    return {
        "total_ipc": total_ipc,
        "l2_demand_accesses": [
            hierarchy.stats.l2_demand_accesses
            for hierarchy in system.hierarchies
        ],
        "records": sum(len(trace) for trace in traces),
    }


def multicore_bandit_task(
    *,
    spec_names: Sequence[str],
    trace_length: int,
    seeds: Sequence[int],
    params: PrefetchBanditParams,
    seed: int = 0,
    gap_scale: float = 1.0,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> Dict[str, Any]:
    """One N-core per-core-bandit run (§7.2.3)."""
    traces = [
        spec_by_name(name).trace(trace_length, seed=s, gap_scale=gap_scale)
        for name, s in zip(spec_names, seeds)
    ]
    total_ipc, _ = run_multicore_bandit(
        traces, hierarchy_config, core_config, params, seed=seed
    )
    return {
        "total_ipc": total_ipc,
        "records": sum(len(trace) for trace in traces),
    }


def smt_static_task(
    *,
    thread_names: Tuple[str, str],
    policy_mnemonic: str,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    seed: int = 0,
) -> SMTRunResult:
    """One SMT mix under a fixed PG policy, rebuilt from mnemonics."""
    from repro.smt.pg_policy import PGPolicy
    from repro.workloads.smt import thread_profile

    mix = (thread_profile(thread_names[0]), thread_profile(thread_names[1]))
    policy = PGPolicy.from_mnemonic(policy_mnemonic)
    return run_smt_static(mix, policy, scale, config, seed=seed)


def smt_bandit_task(
    *,
    thread_names: Tuple[str, str],
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    algorithm_name: Optional[str] = None,
    seed: int = 0,
) -> SMTRunResult:
    """One SMT mix under Bandit PG-policy control (§5.3).

    ``algorithm_name`` selects an alternative MAB algorithm from
    :func:`repro.experiments.configs.smt_algorithm_lineup` (Table 9's
    lineup); the default ``None`` is the paper's DUCB configuration.
    Algorithm objects are rebuilt per task from the name so the task stays
    cache-keyable and process-pool picklable.
    """
    from repro.workloads.smt import thread_profile

    mix = (thread_profile(thread_names[0]), thread_profile(thread_names[1]))
    algorithm = None
    if algorithm_name is not None:
        algorithm = smt_algorithm_lineup(seed=seed)[algorithm_name]
    return run_smt_bandit(mix, scale, config, algorithm=algorithm, seed=seed)


def lane_batch_task(
    *,
    spec_name: str,
    trace_length: int,
    lanes: Sequence["LaneSpec"],
    params: PrefetchBanditParams = PREFETCH_BANDIT_CONFIG,
    seed: int = 0,
    gap_scale: float = 1.0,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> Dict[str, Any]:
    """One batched multi-lane replay (arm fan-outs, replication sweeps).

    Every lane replays the same trace, so one kernel invocation replaces
    ``len(lanes)`` scalar pool tasks, and the kernel replays each distinct
    lane once (copies differ only in a seed the single-core agent never
    reads; see :func:`repro.core_model.lane_kernel.run_lane_batch`). The
    payload carries the per-lane results in requested lane order; the
    record count for the telemetry, ``len(trace) * len(lanes)``, counts
    every requested lane as a full replay, copies included, so it does not
    depend on the path taken. It also carries the batch disposition: the
    path that produced the results (``lane_kernel``, ``"dict"`` or
    ``"scalar"``) and, when the batch routed around the kernel, why
    (``lane_fallback``). Both paths are bit-identical, so the disposition
    is observability metadata — it never changes the results — and is
    safe to cache.
    """
    from repro.core_model.lane_kernel import (
        lane_batch_fallback_reason,
        lane_kernel_mode,
        run_lane_batch,
    )

    trace = compiled_trace_for(spec_name, trace_length, seed=seed,
                               gap_scale=gap_scale)
    fallback = lane_batch_fallback_reason(trace, lanes, params)
    kernel = "scalar" if fallback else lane_kernel_mode()
    results = run_lane_batch(
        trace, lanes, hierarchy_config, core_config, params
    )
    return {
        "results": results,
        "records": len(trace) * len(lanes),
        "lane_kernel": kernel,
        "lane_fallback": fallback,
    }


# ==================================================== best-static-arm fanout


def best_static_arm_tasks(
    spec_name: str,
    trace_length: int,
    seed: int = 0,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    num_arms: Optional[int] = None,
) -> List[Task]:
    """The per-arm task list behind the §6.4 best-static-arm oracle."""
    if num_arms is None:
        from repro.prefetch.ensemble import TABLE7_ARMS

        num_arms = len(TABLE7_ARMS)
    return [
        Task(
            fixed_arm_task,
            dict(
                spec_name=spec_name,
                trace_length=trace_length,
                arm=arm,
                seed=seed,
                hierarchy_config=hierarchy_config,
            ),
            label=f"{spec_name}:arm{arm}",
        )
        for arm in range(num_arms)
    ]
