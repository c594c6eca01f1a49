"""Tests for the parallel experiment runner, result cache, and telemetry."""

import json
import os
import pickle
import random
import sqlite3
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from enum import IntEnum
from pathlib import Path
from dataclasses import dataclass, fields, is_dataclass, make_dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import runner
from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    _FROZEN_TEXT_LIMIT,
    ExecutionContext,
    ResultCache,
    RunTelemetry,
    Task,
    TaskExecutionError,
    _canonical,
    _frozen_text,
    bandit_prefetch_task,
    fixed_arm_task,
    get_context,
    run_parallel,
    task_key,
    use_context,
)


def _double(*, value):
    return value * 2


def _sleepy_double(*, value):
    # Earlier submissions sleep longer, so pool completions arrive in
    # reverse submission order.
    time.sleep(0.02 * (6 - value))
    return value * 2


def _boom(*, value):
    raise ValueError(f"kaboom {value}")


def _late_boom(*, value):
    # Sleep first so every other task of the batch has finished.
    time.sleep(0.5)
    raise RuntimeError(f"kaboom {value}")


def _late_worker_death(*, value):
    time.sleep(0.5)
    os._exit(3)  # kills the worker: the pool breaks


def _dict_payload(*, n):
    return {"results": list(range(n)), "records": n}


def _depth_worker(*, value, depth=4):
    return value * depth


def _depth_worker_v2(*, value, depth=8):
    return value * depth


def _stored_bytes(cache, key):
    """The pickled bytes the store holds for ``key``."""
    with closing(sqlite3.connect(cache.path)) as db:
        row = db.execute("SELECT value FROM results WHERE key = ?",
                         (key,)).fetchone()
    return row[0]


def _overwrite_stored_bytes(cache, key, data):
    """Replace the stored bytes of ``key`` in place."""
    with closing(sqlite3.connect(cache.path)) as db, db:
        updated = db.execute("UPDATE results SET value = ? WHERE key = ?",
                             (data, key)).rowcount
    assert updated == 1


#: One writer of the cross-process store test: waits until all three
#: writers have started, then puts ``count`` keys from ``first`` on.
_PUT_KEYS = """
import sys, time
from pathlib import Path
sys.path.insert(0, "src")
from repro.experiments.runner import ResultCache
directory, barrier, first, count = sys.argv[1:]
first, count = int(first), int(count)
(Path(barrier) / f"ready-{first}").touch()
deadline = time.monotonic() + 60
while len(list(Path(barrier).glob("ready-*"))) < 3:
    if time.monotonic() > deadline:
        sys.exit("writers never met at the barrier")
    time.sleep(0.001)
cache = ResultCache(directory)
for index in range(first, first + count):
    cache.put(f"{index:064x}", {"index": index})
"""


class _Scaler:
    def __init__(self, factor):
        self.factor = factor

    def run(self, *, value):
        return value * self.factor


@dataclass(frozen=True)
class _Cfg:
    alpha: float = 1.5
    count: int = 3


@dataclass(frozen=True)
class _Listed:
    items: list


def _reference_canonical(value: Any) -> Any:
    """The nested-list encoder task keys were first defined by.

    Kept here as the reference ``_canonical`` must match byte for byte
    once dumped with ``sort_keys=True, separators=(",", ":")``, so a
    change to the production encoder cannot silently move every key.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return [
            "@dc",
            type(value).__name__,
            [[f.name, _reference_canonical(getattr(value, f.name))]
             for f in fields(value)],
        ]
    if isinstance(value, dict):
        items = [
            [json.dumps(_reference_canonical(k), sort_keys=True),
             _reference_canonical(v)]
            for k, v in value.items()
        ]
        return ["@dict", sorted(items, key=lambda kv: kv[0])]
    if isinstance(value, (list, tuple)):
        return ["@seq", [_reference_canonical(item) for item in value]]
    if isinstance(value, float):
        return ["@f", repr(value)]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot key {type(value).__name__!r}")


def _reference_text(value: Any) -> str:
    return json.dumps(_reference_canonical(value), sort_keys=True,
                      separators=(",", ":"))


class _Color(IntEnum):
    RED = 1
    BLUE = 2


class _Label(str):
    pass


class _Ratio(float):
    pass


class _Items(list):
    pass


class _Pair(tuple):
    pass


@dataclass(frozen=True)
class _FrozenBox:
    a: Any
    b: Any = None


@dataclass
class _PlainBox:
    a: Any
    b: Any = None


# Same class name as _FrozenBox but never equal to one, so a dict can hold
# both under one key text: the tie must keep insertion order.
_FrozenTwin = make_dataclass("_FrozenBox", [("a", Any), ("b", Any)],
                             frozen=True)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=5),
    st.sampled_from(list(_Color)),
    st.text(max_size=3).map(_Label),
    st.floats().map(_Ratio),
)
_KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-2**70, max_value=2**70),
    st.tuples(_SCALARS, _SCALARS),
    st.builds(_FrozenBox, _SCALARS, _SCALARS),
    st.builds(_FrozenTwin, _SCALARS, _SCALARS),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(_Items),
        st.lists(children, max_size=3).map(_Pair),
        st.builds(_FrozenBox, children, children),
        st.builds(_PlainBox, children, children),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


class TestCacheKey:
    def test_stable_for_equal_inputs(self):
        key1 = task_key(_double, {"value": 7})
        key2 = task_key(_double, {"value": 7})
        assert key1 == key2

    def test_differs_on_value_function_and_schema(self):
        base = task_key(_double, {"value": 7})
        assert task_key(_double, {"value": 8}) != base
        assert task_key(fixed_arm_task, {"value": 7}) != base

    def test_dataclass_and_dict_canonicalization(self):
        assert _canonical(_Cfg()) == _canonical(_Cfg(alpha=1.5, count=3))
        assert _canonical({"b": 1, "a": 2}) == _canonical({"a": 2, "b": 1})
        assert _canonical(_Cfg(alpha=2.0)) != _canonical(_Cfg())
        # Equal values that encode differently, each a temporary freed
        # right after keying, so its id is free for the next instance.
        assert task_key(_double, {"value": _Cfg(alpha=0.0)}) != task_key(
            _double, {"value": _Cfg(alpha=-0.0)}
        )
        keys = [task_key(_double, {"value": _Cfg(count=count)})
                for count in (1, 1.0, True)]
        assert len(set(keys)) == 3
        listed = _Listed([1])
        before = task_key(_double, {"value": listed})
        listed.items.append(2)
        assert task_key(_double, {"value": listed}) != before
        for count in range(1000):
            _canonical(_Cfg(count=count))
        assert len(_frozen_text) <= _FROZEN_TEXT_LIMIT

    @settings(deadline=None, max_examples=150)
    @given(_VALUES)
    def test_matches_the_reference_encoder(self, value):
        assert _canonical(value) == _reference_text(value)

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, lambda: 1, _Cfg, [1, (2, object())],
    ], ids=["object", "set", "lambda", "dataclass-class", "nested-object"])
    def test_rejects_what_the_reference_rejects(self, value):
        with pytest.raises(TypeError):
            _reference_text(value)
        with pytest.raises(TypeError):
            _canonical(value)

    def test_rejects_unhashable_inputs(self):
        with pytest.raises(TypeError):
            task_key(_double, {"value": object()})
        with pytest.raises(TypeError):
            task_key(_double, {"value": {1, 2}})

    def test_rejects_non_picklable_kwargs(self):
        """Callables and closures cannot cross the worker boundary, so the
        key function must refuse them instead of hashing their repr."""
        with pytest.raises(TypeError):
            task_key(_double, {"value": lambda: 1})
        with pytest.raises(TypeError):
            task_key(_double, {"value": _double})
        with pytest.raises(TypeError):
            task_key(_double, {"value": [1, (2, lambda: 3)]})

    def test_stable_across_processes(self):
        """The key must not depend on interpreter state (e.g. hash seeds)."""
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.experiments.runner import task_key, fixed_arm_task;"
            "from repro.experiments.configs import PREFETCH_BANDIT_CONFIG;"
            "print(task_key(fixed_arm_task,"
            " dict(spec_name='mcf06', trace_length=1000, arm=2, seed=1,"
            " params=PREFETCH_BANDIT_CONFIG)))"
        )
        repo_root = Path(__file__).resolve().parent.parent
        keys = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, cwd=repo_root,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            ).stdout.strip()
            for seed in (0, 1)
        }
        assert len(keys) == 1
        assert len(keys.pop()) == 64

    def test_folds_signature_defaults(self):
        """Omitting a kwarg and passing its default explicitly must hash
        identically — the key sees the value the worker will consume."""
        assert task_key(_depth_worker, {"value": 1}) == task_key(
            _depth_worker, {"value": 1, "depth": 4}
        )
        assert task_key(_depth_worker, {"value": 1}) != task_key(
            _depth_worker, {"value": 1, "depth": 5}
        )

    def test_changing_a_default_changes_the_key(self, monkeypatch):
        # Both live in one module, so only the default differs once the
        # names are aligned.
        for attr in ("__qualname__", "__name__"):
            monkeypatch.setattr(
                _depth_worker_v2, attr, getattr(_depth_worker, attr)
            )
        assert task_key(_depth_worker, {"value": 1}) != task_key(
            _depth_worker_v2, {"value": 1}
        )

    def test_rejects_functions_without_a_unique_name(self):
        """Lambdas and local functions of one scope share a qualified name,
        and a bound method's name omits its instance: keying any of them
        would serve one computation's cached result for another."""
        doublers = [lambda *, value, k=k: value * k for k in (2, 10)]

        def local(*, value):
            return value

        for fn in (*doublers, local, _Scaler(2).run, _Scaler(10).run):
            with pytest.raises(TypeError, match="module-level"):
                task_key(fn, {"value": 1})


class TestResultCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, _ = cache.get("ab" * 32)
        assert not hit
        cache.put("ab" * 32, {"ipc": 1.25})
        hit, value = cache.get("ab" * 32)
        assert hit and value == {"ipc": 1.25}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, [1, 2, 3])
        _overwrite_stored_bytes(cache, key, b"not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None

    def test_versioned_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.directory.name == f"v{CACHE_SCHEMA_VERSION}"

    def test_stale_pickle_from_renamed_module_is_a_miss(self, tmp_path):
        """A cached pickle referencing a module that no longer exists
        (e.g. after a refactor) must regenerate, not crash the run."""
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, 1)
        # Protocol-0 GLOBAL opcode against a module that does not exist:
        # unpickling raises ModuleNotFoundError (an ImportError).
        _overwrite_stored_bytes(
            cache, key, b"cdefinitely_not_a_module_xyz\nNope\n."
        )
        hit, value = cache.get(key)
        assert not hit and value is None

    @pytest.mark.parametrize("corrupt", [
        # ValueError: "unsupported pickle protocol: 9".
        lambda data: data[:1] + b"\x09" + data[2:],
        # OverflowError: the top byte of the 8-byte FRAME length (the FRAME
        # opcode follows the protocol header) makes the frame absurd.
        lambda data: data[:10] + bytes([data[10] ^ 0x80]) + data[11:],
        # UnicodeDecodeError: one invalid UTF-8 byte in a pickled str.
        lambda data: data.replace(b"results", b"result\xff"),
    ], ids=["protocol-byte", "frame-length", "invalid-utf8"])
    def test_undecodable_entry_is_regenerated(self, tmp_path, corrupt):
        """Whatever ``pickle.loads`` raises on a corrupt entry is a miss:
        the task runs again and its result overwrites the entry."""
        cache = ResultCache(tmp_path)
        task = Task(_dict_payload, {"n": 3})
        run_parallel([task], jobs=1, cache=cache, telemetry=RunTelemetry())
        key = task.key()
        _overwrite_stored_bytes(cache, key, corrupt(_stored_bytes(cache, key)))
        telemetry = RunTelemetry()
        assert run_parallel([task], jobs=1, cache=cache,
                            telemetry=telemetry) == [_dict_payload(n=3)]
        assert telemetry.cache_misses == 1
        assert cache.get(task.key()) == (True, _dict_payload(n=3))

    def test_interrupted_put_leaves_no_litter(self, tmp_path, monkeypatch):
        """An interrupt mid-pickle writes nothing and publishes no entry,
        so the next read misses instead of unpickling half a value."""
        cache = ResultCache(tmp_path)
        key = "ab" * 32

        def interrupted(value, protocol=None):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(pickle, "dumps", interrupted)
            with pytest.raises(KeyboardInterrupt):
                cache.put(key, {"ipc": 1.25})
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert cache.get(key) == (False, None)
        assert len(cache) == 0
        cache.put(key, {"ipc": 1.25})
        assert cache.get(key) == (True, {"ipc": 1.25})

    def test_concurrent_puts_leave_one_entry(self, tmp_path):
        """Eight threads writing one key publish a single loadable entry
        and no temp files."""
        key = "cd" * 32
        value = {"results": list(range(20_000))}
        start = threading.Barrier(8)
        errors = []

        def write():
            try:
                start.wait(timeout=10)
                ResultCache(tmp_path).put(key, value)
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
        cache = ResultCache(tmp_path)
        assert len(cache) == 1
        assert cache.get(key) == (True, value)

    def test_concurrent_processes_share_one_store(self, tmp_path):
        """Three processes putting overlapping key sets into one fresh
        directory leave every key loadable, each stored once."""
        barrier = tmp_path / "barrier"
        barrier.mkdir()
        repo_root = Path(__file__).resolve().parent.parent
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _PUT_KEYS, str(tmp_path / "cache"),
                 str(barrier), str(first), "600"],
                cwd=repo_root, stderr=subprocess.PIPE, text=True,
            )
            for first in (0, 300, 600)
        ]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err
        cache = ResultCache(tmp_path / "cache")
        for index in range(1200):
            assert cache.get(f"{index:064x}") == (True, {"index": index})
        assert len(cache) == 1200

    def test_locked_store_is_not_damage(self, tmp_path, monkeypatch):
        """A store another connection holds the write lock on is busy, not
        damaged: the put raises once the busy timeout expires."""
        monkeypatch.setattr(runner, "STORE_BUSY_TIMEOUT_S", 0.05)
        ResultCache(tmp_path).put("aa" * 32, 1)
        cache = ResultCache(tmp_path)
        with closing(sqlite3.connect(cache.path, isolation_level=None)) as holder:
            holder.execute("BEGIN IMMEDIATE")
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                cache.put("bb" * 32, 2)
            holder.execute("ROLLBACK")
        cache.put("bb" * 32, 2)
        assert cache.get("bb" * 32) == (True, 2)

    @pytest.mark.parametrize("damage", ["random-bytes", "truncated-store"])
    def test_damaged_store_runs_uncached(self, tmp_path, capsys, damage):
        """A store file SQLite cannot read is reported once and bypassed:
        the run computes every result and raises nothing. Deleting the
        file rebuilds the cache."""
        tasks = [Task(_dict_payload, {"n": 200 * n}) for n in range(1, 9)]
        expected = [_dict_payload(n=200 * n) for n in range(1, 9)]
        path = ResultCache(tmp_path).path
        if damage == "random-bytes":
            path.parent.mkdir(parents=True)
            path.write_bytes(random.Random(0).randbytes(4096))
        else:
            filled = ResultCache(tmp_path)
            run_parallel(tasks, jobs=1, cache=filled, telemetry=RunTelemetry())
            filled.close()
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        telemetry = RunTelemetry()
        assert run_parallel(tasks, jobs=1, cache=ResultCache(tmp_path),
                            telemetry=telemetry) == expected
        assert telemetry.cache_misses == len(tasks)
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert str(path) in err and "Deleting the file rebuilds the cache" in err
        path.unlink()
        for hits in (0, len(tasks)):
            telemetry = RunTelemetry()
            assert run_parallel(tasks, jobs=1, cache=ResultCache(tmp_path),
                                telemetry=telemetry) == expected
            assert telemetry.cache_hits == hits
        assert capsys.readouterr().err == ""


class TestRunParallel:
    def test_results_in_submission_order(self):
        tasks = [Task(_double, {"value": v}) for v in range(8)]
        assert run_parallel(tasks, jobs=1) == [v * 2 for v in range(8)]
        assert run_parallel(tasks, jobs=4) == [v * 2 for v in range(8)]

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [Task(_double, {"value": v}, label=f"t{v}") for v in range(4)]
        cold = RunTelemetry()
        run_parallel(tasks, jobs=1, cache=cache, telemetry=cold)
        assert (cold.cache_hits, cold.cache_misses) == (0, 4)
        warm = RunTelemetry()
        results = run_parallel(tasks, jobs=1, cache=cache, telemetry=warm)
        assert results == [v * 2 for v in range(4)]
        assert (warm.cache_hits, warm.cache_misses) == (4, 0)

    def test_telemetry_follows_submission_order_under_pool(self):
        """The manifest's task list must not depend on completion order."""
        tasks = [
            Task(_sleepy_double, {"value": v}, label=f"t{v}")
            for v in range(6)
        ]
        telemetry = RunTelemetry()
        results = run_parallel(tasks, jobs=4, cache=None, telemetry=telemetry)
        assert results == [v * 2 for v in range(6)]
        assert [r.label for r in telemetry.tasks] == [
            f"t{v}" for v in range(6)
        ]

    def test_pool_failure_names_the_task(self):
        tasks = [
            Task(_double, {"value": 1}),
            Task(_boom, {"value": 2}, label="detonator"),
        ]
        with pytest.raises(TaskExecutionError) as excinfo:
            run_parallel(tasks, jobs=2, cache=None,
                         telemetry=RunTelemetry())
        assert "detonator" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("failing", [_late_boom, _late_worker_death])
    def test_pool_failure_keeps_finished_results(self, tmp_path, failing):
        """Results that finished before a failure are cached and recorded."""
        cache = ResultCache(tmp_path)
        tasks = [Task(_double, {"value": v}, label=f"t{v}") for v in range(4)]
        tasks[2] = Task(failing, {"value": 2}, label="failing")
        telemetry = RunTelemetry()
        with pytest.raises(TaskExecutionError) as excinfo:
            run_parallel(tasks, jobs=2, cache=cache, telemetry=telemetry)
        assert "'failing'" in str(excinfo.value)
        broke = isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert broke == (failing is _late_worker_death)
        assert ("process pool broke" in str(excinfo.value)) == broke
        for v in (0, 1, 3):
            assert cache.get(tasks[v].key()) == (True, v * 2)
        assert len(cache) == 3
        assert [r.label for r in telemetry.tasks] == ["t0", "t1", "t3"]

    def test_dict_payload_records_count_in_telemetry(self):
        telemetry = RunTelemetry()
        run_parallel([Task(_dict_payload, {"n": 500}, label="batch")],
                     jobs=1, cache=None, telemetry=telemetry)
        assert telemetry.replayed_records == 500

    def test_context_defaults(self, tmp_path):
        context = ExecutionContext(jobs=1, cache=ResultCache(tmp_path))
        with use_context(context):
            assert get_context() is context
            run_parallel([Task(_double, {"value": 5})])
        assert context.telemetry.cache_misses == 1
        assert get_context() is not context


class TestTelemetryManifest:
    def test_manifest_structure(self, tmp_path):
        telemetry = RunTelemetry()
        telemetry.record("a", "k1", 0.5, cache_hit=False, records=1000)
        telemetry.record("b", "k2", 0.0, cache_hit=True)
        path = telemetry.write_manifest(tmp_path / "run.manifest.json",
                                        command="fig08")
        body = json.loads(path.read_text())
        assert body["manifest_version"] == 4
        assert body["cache_schema_version"] == CACHE_SCHEMA_VERSION
        assert body["command"] == "fig08"
        assert body["totals"]["tasks"] == 2
        assert body["totals"]["cache_hits"] == 1
        assert body["totals"]["cache_misses"] == 1
        assert body["totals"]["replayed_records"] == 1000
        assert body["totals"]["records_per_second"] == 2000.0
        assert "phases" not in body
        assert [t["label"] for t in body["tasks"]] == ["a", "b"]
        assert [t["records"] for t in body["tasks"]] == [1000, 0]
        # Non-lane tasks keep the v2 entry shape.
        assert all("lane_kernel" not in t for t in body["tasks"])

    def test_lane_disposition_in_manifest(self, tmp_path):
        telemetry = RunTelemetry()
        telemetry.record("w:lanes", "k1", 1.0, cache_hit=False,
                         records=100, lane_kernel="dict")
        telemetry.record("w2:lanes", "k2", 1.0, cache_hit=False,
                         records=100, lane_kernel="scalar",
                         lane_fallback="trace is not a CompiledTrace")
        telemetry.record("plain", "k3", 1.0, cache_hit=False)
        body = telemetry.manifest()
        lane, fell, plain = body["tasks"]
        assert lane["lane_kernel"] == "dict"
        assert lane["lane_fallback"] is None
        assert fell["lane_kernel"] == "scalar"
        assert "CompiledTrace" in fell["lane_fallback"]
        assert "lane_kernel" not in plain

    def test_deterministic_manifests_are_byte_identical(self, tmp_path):
        """Two pooled runs of the same figure write the same manifest bytes
        once the wall-clock fields are removed: the same labels, keys and
        record counts, in submission order."""
        texts = []
        for run in (1, 2):
            telemetry = RunTelemetry()
            tasks = [
                Task(_sleepy_double, {"value": v}, label=f"t{v}")
                for v in range(6)
            ]
            run_parallel(tasks, jobs=4, cache=ResultCache(tmp_path / str(run)),
                         telemetry=telemetry)
            path = telemetry.write_manifest(
                tmp_path / f"run{run}.manifest.json", command="fig08",
            )
            body = json.loads(path.read_text())
            for name in ("task_seconds", "wall_seconds", "records_per_second"):
                del body["totals"][name]
            for task in body["tasks"]:
                del task["seconds"]
            texts.append(json.dumps(body, indent=2))
        assert texts[0] == texts[1]
        body = json.loads(texts[0])
        assert [t["label"] for t in body["tasks"]] == [
            f"t{v}" for v in range(6)
        ]
        assert len({t["key"] for t in body["tasks"]}) == 6


class TestExperimentTasks:
    TRACE_LENGTH = 1_500

    def test_lane_batch_disposition_reaches_telemetry(self, tmp_path):
        """The lane task reports its kernel and fallback on miss AND hit."""
        from repro.core_model.lane_kernel import LaneSpec
        from repro.experiments.runner import lane_batch_task

        task = Task(
            lane_batch_task,
            dict(spec_name="mcf06", trace_length=self.TRACE_LENGTH,
                 lanes=(LaneSpec("arm", arm=0), LaneSpec("arm", arm=1))),
            label="mcf06:lanes",
        )
        cache = ResultCache(tmp_path)
        for expect_hit in (False, True):
            telemetry = RunTelemetry()
            payload = run_parallel([task], jobs=1, cache=cache,
                                   telemetry=telemetry)[0]
            assert payload["lane_kernel"] == "dict"  # the batched kernel
            assert payload["lane_fallback"] is None
            (record,) = telemetry.tasks
            assert record.cache_hit is expect_hit
            assert record.lane_kernel == "dict"
            assert record.lane_fallback is None

    def test_bandit_task_algorithm_lineup(self):
        result = bandit_prefetch_task(
            spec_name="mcf06", trace_length=self.TRACE_LENGTH,
            params=PREFETCH_BANDIT_CONFIG, seed=0,
            algorithm_name="Single",
        )
        # Single commits to one arm once the round-robin sweep is over.
        num_arms = PREFETCH_BANDIT_CONFIG.num_arms
        tail = result.arm_history[num_arms:]
        assert len(set(tail)) <= 1
        assert result.ipc > 0
