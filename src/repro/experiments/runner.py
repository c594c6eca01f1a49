"""Parallel experiment execution engine with result caching and telemetry.

Every paper figure decomposes into independent *tasks* — one trace replay
(or one SMT mix run) each. This module executes such task lists:

- :func:`run_parallel` — a deterministic parallel map over :class:`Task`
  lists. Results come back in submission order regardless of completion
  order, and every task carries its own seed in its kwargs, so ``--jobs 4``
  produces bit-identical figures to a serial run.
- :class:`ResultCache` — a content-keyed on-disk cache. The key is a stable
  SHA-256 over the task function's qualified name and a canonical encoding
  of its kwargs (workload spec name, trace length, seeds, and the config
  dataclasses), so a replay is re-executed only when an input changed.
  Payloads are pickled :class:`~repro.experiments.prefetch.PrefetchRunResult`
  / :class:`~repro.experiments.smt.SMTRunResult` values (or plain dicts);
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
import tempfile
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
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
#: telemetry fields, so cached lane payloads from v5 lack them.
CACHE_SCHEMA_VERSION = 6


# ============================================================== cache keys


def _canonical(value: Any) -> Any:
    """JSON-serializable canonical form of a task input.

    Stable across processes and interpreter runs: dataclasses flatten to
    ``[type name, sorted field/value pairs]``, dict items are sorted, floats
    go through ``repr`` (shortest round-trip form), and sets/ids/objects are
    rejected so unstable inputs fail loudly instead of hashing differently.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return [
            "@dc",
            type(value).__name__,
            [[f.name, _canonical(getattr(value, f.name))] for f in fields(value)],
        ]
    if isinstance(value, dict):
        items = [
            [json.dumps(_canonical(k), sort_keys=True), _canonical(v)]
            for k, v in value.items()
        ]
        return ["@dict", sorted(items, key=lambda kv: kv[0])]
    if isinstance(value, (list, tuple)):
        return ["@seq", [_canonical(item) for item in value]]
    if isinstance(value, float):
        return ["@f", repr(value)]
    if value is None or isinstance(value, (bool, int, str)):
        return value
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
    payload = json.dumps(
        [
            "repro-task",
            CACHE_SCHEMA_VERSION,
            f"{fn.__module__}.{qualname}",
            _canonical(bound),
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ==================================================================== tasks


@dataclass(frozen=True)
class Task:
    """One unit of experiment work: a module-level function plus kwargs."""

    fn: Callable[..., Any]
    kwargs: Dict[str, Any]
    label: str = ""
    #: Set False for tasks whose inputs cannot be content-hashed.
    cacheable: bool = True

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


class ResultCache:
    """Content-keyed pickle store under ``directory/v<schema>/``.

    Writes are atomic (temp file + ``os.replace``), so concurrent workers
    and concurrent CLI invocations may share one cache directory. Unreadable
    or truncated entries are treated as misses and overwritten.
    """

    def __init__(self, directory: str | Path) -> None:
        self.root = Path(directory)
        self.directory = self.root / f"v{CACHE_SCHEMA_VERSION}"

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Returns ``(hit, value)``; corrupt entries count as misses."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return True, pickle.load(handle)
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,  # covers ModuleNotFoundError: renamed/removed modules
            IndexError,
        ):
            # Stale pickles from a refactored module (moved classes, renamed
            # modules, truncated protocol frames) regenerate instead of
            # crashing the run.
            return False, None

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.pkl"))


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
    #: Resolved lane kernel that produced the payload ("array", "dict",
    #: "scalar"); ``None`` for non-lane tasks. Cache hits report the kernel
    #: that computed the stored result (all kernels are bit-identical).
    lane_kernel: Optional[str] = None
    #: Why the batch fell back to the scalar path (``None`` when it did not
    #: fall back, or for non-lane tasks).
    lane_fallback: Optional[str] = None


class RunTelemetry:
    """Per-task wall time, throughput, and cache accounting for one run."""

    def __init__(self) -> None:
        self.tasks: List[TaskRecord] = []
        #: Named phase timings (trace generation, replay, reporting, ...)
        #: accumulated via :meth:`phase` / :meth:`add_phase`.
        self.phases: Dict[str, float] = {}
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

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named phase bucket."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named phase bucket."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

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

    def manifest(
        self, *, deterministic: bool = False, **extra: Any
    ) -> Dict[str, Any]:
        """The JSON run manifest emitted alongside the tables.

        ``deterministic=True`` zeroes every wall-clock-derived field
        (per-task seconds, totals, phases, throughput) so two runs of the
        same figure produce byte-identical manifests — the run-to-run
        stable part is exactly the task list, its ordering, the cache keys,
        and the replayed-record counts.
        """
        body: Dict[str, Any] = {
            "manifest_version": 3,
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "totals": {
                "tasks": len(self.tasks),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "task_seconds": 0.0 if deterministic
                else round(self.task_seconds, 6),
                "wall_seconds": 0.0 if deterministic
                else round(self.wall_seconds, 6),
                "replayed_records": self.replayed_records,
                "records_per_second": 0.0 if deterministic
                else round(self.records_per_second, 3),
            },
            "phases": {
                name: 0.0 if deterministic else round(seconds, 6)
                for name, seconds in sorted(self.phases.items())
            },
            "tasks": [self._task_entry(record, deterministic)
                      for record in self.tasks],
        }
        body.update(extra)
        return body

    @staticmethod
    def _task_entry(record: TaskRecord, deterministic: bool) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "label": record.label,
            "key": record.key,
            "seconds": 0.0 if deterministic else round(record.seconds, 6),
            "cache_hit": record.cache_hit,
            "records": record.records,
        }
        # Lane-batch disposition: present only for lane tasks, so scalar
        # task entries keep their v2 shape.
        if record.lane_kernel is not None:
            entry["lane_kernel"] = record.lane_kernel
            entry["lane_fallback"] = record.lane_fallback
        return entry

    def write_manifest(
        self, path: str | Path, *, deterministic: bool = False, **extra: Any
    ) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = self.manifest(deterministic=deterministic, **extra)
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
        key = task.key() if (cache is not None and task.cacheable) else None
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
    ``len(lanes)`` scalar pool tasks. The payload carries the per-lane
    results in lane order plus the total replayed-record count for the
    telemetry (each lane is a full replay of the trace), and the batch
    disposition: which kernel produced the results (``lane_kernel``) and,
    when the batch routed around the kernels, why (``lane_fallback``).
    Every kernel is bit-identical, so the disposition is observability
    metadata — it never changes the results — and is safe to cache.
    """
    from repro.core_model.lane_kernel import (
        lane_batch_fallback_reason,
        resolve_lane_kernel_mode,
        run_lane_batch,
    )

    trace = compiled_trace_for(spec_name, trace_length, seed=seed,
                               gap_scale=gap_scale)
    fallback = lane_batch_fallback_reason(trace, lanes, params)
    if fallback is None and core_config.rob_size <= 0:
        fallback = "non-positive rob_size"
    kernel = "scalar" if fallback else resolve_lane_kernel_mode(len(lanes))
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
