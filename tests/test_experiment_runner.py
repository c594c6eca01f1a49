"""Tests for the parallel experiment runner, result cache, and telemetry."""

import json
import os
import pickle
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from dataclasses import dataclass

import pytest

from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    ExecutionContext,
    ResultCache,
    RunTelemetry,
    Task,
    TaskExecutionError,
    _canonical,
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


class _Scaler:
    def __init__(self, factor):
        self.factor = factor

    def run(self, *, value):
        return value * self.factor


@dataclass(frozen=True)
class _Cfg:
    alpha: float = 1.5
    count: int = 3


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
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
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
        cache._path(key).write_bytes(
            b"cdefinitely_not_a_module_xyz\nNope\n."
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
        """Whatever ``pickle.load`` raises on a corrupt entry is a miss:
        the task runs again and its result overwrites the entry."""
        cache = ResultCache(tmp_path)
        task = Task(_dict_payload, {"n": 3})
        run_parallel([task], jobs=1, cache=cache, telemetry=RunTelemetry())
        path = cache._path(task.key())
        path.write_bytes(corrupt(path.read_bytes()))
        telemetry = RunTelemetry()
        assert run_parallel([task], jobs=1, cache=cache,
                            telemetry=telemetry) == [_dict_payload(n=3)]
        assert telemetry.cache_misses == 1
        assert cache.get(task.key()) == (True, _dict_payload(n=3))

    def test_interrupted_put_leaves_no_litter(self, tmp_path, monkeypatch):
        """An interrupt mid-pickle removes the temp file and publishes no
        entry, so the next read misses instead of unpickling half a value."""
        cache = ResultCache(tmp_path)
        key = "ab" * 32

        def interrupted(value, handle, protocol=None):
            handle.write(b"\x80\x05partial")
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(pickle, "dump", interrupted)
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
        telemetry.add_phase("replay", 0.5)
        path = telemetry.write_manifest(tmp_path / "run.manifest.json",
                                        command="fig08")
        body = json.loads(path.read_text())
        assert body["manifest_version"] == 3
        assert body["cache_schema_version"] == CACHE_SCHEMA_VERSION
        assert body["command"] == "fig08"
        assert body["totals"]["tasks"] == 2
        assert body["totals"]["cache_hits"] == 1
        assert body["totals"]["cache_misses"] == 1
        assert body["totals"]["replayed_records"] == 1000
        assert body["totals"]["records_per_second"] == 2000.0
        assert body["phases"] == {"replay": 0.5}
        assert [t["label"] for t in body["tasks"]] == ["a", "b"]
        assert [t["records"] for t in body["tasks"]] == [1000, 0]
        # Non-lane tasks keep the v2 entry shape.
        assert all("lane_kernel" not in t for t in body["tasks"])

    def test_lane_disposition_in_manifest(self, tmp_path):
        telemetry = RunTelemetry()
        telemetry.record("w:lanes", "k1", 1.0, cache_hit=False,
                         records=100, lane_kernel="array")
        telemetry.record("w2:lanes", "k2", 1.0, cache_hit=False,
                         records=100, lane_kernel="scalar",
                         lane_fallback="trace is not a CompiledTrace")
        telemetry.record("plain", "k3", 1.0, cache_hit=False)
        body = telemetry.manifest()
        lane, fell, plain = body["tasks"]
        assert lane["lane_kernel"] == "array"
        assert lane["lane_fallback"] is None
        assert fell["lane_kernel"] == "scalar"
        assert "CompiledTrace" in fell["lane_fallback"]
        assert "lane_kernel" not in plain

    def test_deterministic_manifests_are_byte_identical(self, tmp_path):
        """Two pooled runs of the same figure must write the same bytes."""
        paths = []
        for run in (1, 2):
            telemetry = RunTelemetry()
            tasks = [
                Task(_sleepy_double, {"value": v}, label=f"t{v}")
                for v in range(6)
            ]
            run_parallel(tasks, jobs=4, cache=None, telemetry=telemetry)
            telemetry.add_phase("replay", 0.25 * run)
            paths.append(telemetry.write_manifest(
                tmp_path / f"run{run}.manifest.json",
                deterministic=True, command="fig08",
            ))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        body = json.loads(paths[0].read_text())
        assert body["totals"]["wall_seconds"] == 0.0
        assert body["phases"]["replay"] == 0.0
        assert all(t["seconds"] == 0.0 for t in body["tasks"])

    def test_phase_timer_accumulates(self):
        telemetry = RunTelemetry()
        with telemetry.phase("generate"):
            pass
        with telemetry.phase("generate"):
            pass
        assert set(telemetry.phases) == {"generate"}
        assert telemetry.phases["generate"] >= 0.0


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
            assert payload["lane_kernel"] == "dict"  # narrow batch -> auto
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
