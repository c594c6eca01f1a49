"""Fixed-input layer probes: each layer timed on its own, outside any figure.

Every probe runs on inputs that do not depend on ``--seed`` (traces are
generated with seed 0), takes one untimed warm-up call (the lane matrix one
per backend and lane set), then reports the median of three timed calls.
The lane-kernel matrix forces each backend through ``REPRO_LANE_KERNEL``;
the replay kernel is timed against the object path on uncompiled records,
and the SMT kernel against the object pipeline (``use_kernel=False``). The
lane sets use few records so the whole probe set stays near twelve seconds;
lane-records/s is comparable across widths within one set.
"""

from __future__ import annotations

import itertools
import os
import pickle
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

#: Sizes at full and at ``--smoke`` scale.
SIZES: Dict[bool, Dict[str, Any]] = {
    False: dict(records=10_000, lane_sets=dict(stream=("lbm06", 1000),
                                               thrash=("milc06", 200)),
                smt_epochs=60, key_calls=200, cache_entries=50, repeats=3,
                warmup=True),
    True: dict(records=300, lane_sets=dict(stream=("lbm06", 60),
                                           thrash=("milc06", 20)),
               smt_epochs=4, key_calls=10, cache_entries=3, repeats=1,
               warmup=False),
}

LANE_WIDTHS = (11, 35, 139, 411)
SCALAR_WIDTHS = (11, 35)
FIXED_PREFETCHERS = ("stride", "bingo", "mlop", "pythia")
#: Table 7 arm the ensemble probe holds (stride degree 8, stream degree 6).
ENSEMBLE_ARM = 7
PROBE_TRACE = "milc06"

Measured = Tuple[float, str]


def probe_metric_names() -> Tuple[str, ...]:
    """Every metric :func:`run_probes` reports, in report order."""
    names = [
        "workloads.generate_records_per_s",
        "workloads.compile_records_per_s",
        "workloads.store_load_s",
        "runner.task_key_us",
        "runner.cache_get_us",
        "runner.cache_put_us",
        "runner.payload_bytes",
        "replay_kernel.none.records_per_s",
    ]
    names += [f"prefetch.{name}.records_per_s"
              for name in FIXED_PREFETCHERS + ("ensemble_arm",)]
    names += ["bandit.records_per_s", "trace_core.object.records_per_s"]
    names += [f"lane_kernel.{backend}.{lane_set}.w{width}.lane_records_per_s"
              for backend in ("dict", "array")
              for lane_set in ("stream", "thrash")
              for width in LANE_WIDTHS]
    names += [f"lane_kernel.scalar.{lane_set}.w{width}.lane_records_per_s"
              for lane_set in ("stream", "thrash")
              for width in SCALAR_WIDTHS]
    names += ["smt_kernel.cycles_per_s", "smt.bandit_cycles_per_s",
              "smt.object_cycles_per_s"]
    return tuple(names)


def _median_seconds(fn: Callable[[], Any], sizes: Dict[str, Any], warmup: bool = True) -> float:
    """Median seconds of ``sizes["repeats"]`` calls, after one warm-up call."""
    if warmup and sizes["warmup"]:
        fn()
    samples = []
    for _ in range(sizes["repeats"]):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _lanes(width: int) -> Tuple[Any, ...]:
    """11 fixed arms plus ``width - 11`` seeded bandit lanes."""
    from repro.core_model.lane_kernel import LaneSpec
    from repro.prefetch.ensemble import TABLE7_ARMS

    arms = len(TABLE7_ARMS)
    return tuple(
        [LaneSpec("arm", arm=arm) for arm in range(arms)]
        + [LaneSpec("bandit", seed=seed) for seed in range(width - arms)]
    )


def _scaled_params(trace: Any) -> Any:
    """Bandit params scaled from a no-prefetch pass, as the figures do."""
    from repro.experiments.configs import scaled_prefetch_params
    from repro.experiments.prefetch import run_fixed_prefetcher

    base = run_fixed_prefetcher(trace, "none")
    return scaled_prefetch_params(base.stats.l2_demand_accesses)


def _workload_probes(workdir: Path, sizes: Dict[str, Any]) -> Dict[str, Measured]:
    from repro.workloads.compiled import CompiledTrace, TraceStore
    from repro.workloads.suites import spec_by_name

    spec = spec_by_name(PROBE_TRACE)
    count = sizes["records"]
    records = spec.trace(count, seed=0)
    store_dir = workdir / "probe-traces"
    TraceStore(store_dir).get(spec, count, seed=0)
    return {
        "workloads.generate_records_per_s": (
            count / _median_seconds(lambda: spec.trace(count, seed=0), sizes),
            "records/s"),
        "workloads.compile_records_per_s": (
            count / _median_seconds(
                lambda: CompiledTrace.from_records(records), sizes),
            "records/s"),
        "workloads.store_load_s": (
            _median_seconds(
                lambda: TraceStore(store_dir).get(spec, count, seed=0), sizes),
            "s"),
    }


def _runner_probes(workdir: Path, trace: Any, params: Any,
                   sizes: Dict[str, Any]) -> Dict[str, Measured]:
    from repro.experiments.prefetch import run_bandit_prefetch
    from repro.experiments.runner import ResultCache, bandit_prefetch_task, task_key

    kwargs = dict(spec_name=PROBE_TRACE, trace_length=len(trace),
                  params=params, seed=0)
    calls = sizes["key_calls"]
    payload = run_bandit_prefetch(trace, params=params, seed=0)
    keys = [f"{index:064x}" for index in range(sizes["cache_entries"])]
    caches = itertools.count()

    def put_all() -> ResultCache:
        cache = ResultCache(workdir / f"probe-cache-{next(caches)}")
        for key in keys:
            cache.put(key, payload)
        return cache

    filled = put_all()

    def get_all() -> None:
        for key in keys:
            hit, _ = filled.get(key)
            if not hit:
                raise RuntimeError("runner probe: cache entry missing")

    def key_all() -> None:
        for _ in range(calls):
            task_key(bandit_prefetch_task, kwargs)

    us = 1e6
    return {
        "runner.task_key_us": (_median_seconds(key_all, sizes) / calls * us, "us"),
        "runner.cache_get_us": (
            _median_seconds(get_all, sizes) / len(keys) * us, "us"),
        "runner.cache_put_us": (
            _median_seconds(put_all, sizes) / len(keys) * us, "us"),
        "runner.payload_bytes": (
            float(len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))),
            "B"),
    }


def _replay_probes(trace: Any, params: Any,
                   sizes: Dict[str, Any]) -> Dict[str, Measured]:
    from repro.experiments.prefetch import (
        run_bandit_prefetch,
        run_fixed_arm,
        run_fixed_prefetcher,
    )

    records = trace.to_records()
    count = len(trace)

    def rate(fn: Callable[[], Any]) -> Measured:
        return count / _median_seconds(fn, sizes), "records/s"

    out = {"replay_kernel.none.records_per_s":
           rate(lambda: run_fixed_prefetcher(trace, "none"))}
    for name in FIXED_PREFETCHERS:
        out[f"prefetch.{name}.records_per_s"] = rate(
            lambda name=name: run_fixed_prefetcher(trace, name))
    out["prefetch.ensemble_arm.records_per_s"] = rate(
        lambda: run_fixed_arm(trace, ENSEMBLE_ARM))
    out["bandit.records_per_s"] = rate(
        lambda: run_bandit_prefetch(trace, params=params, seed=0))
    out["trace_core.object.records_per_s"] = rate(
        lambda: run_fixed_prefetcher(records, "none"))
    return out


def _lane_probes(sizes: Dict[str, Any]) -> Dict[str, Measured]:
    from repro.core_model.lane_kernel import LANE_KERNEL_ENV, run_lane_batch
    from repro.experiments.configs import BASELINE_HIERARCHY_CONFIG, CORE_CONFIG_TABLE4
    from repro.workloads.compiled import TraceStore
    from repro.workloads.suites import spec_by_name

    store = TraceStore()
    out: Dict[str, Measured] = {}
    previous = os.environ.get(LANE_KERNEL_ENV)
    try:
        for lane_set, (name, length) in sizes["lane_sets"].items():
            trace = store.get(spec_by_name(name), length, seed=0)
            params = _scaled_params(trace)
            for backend, widths in (("dict", LANE_WIDTHS), ("array", LANE_WIDTHS),
                                    ("scalar", SCALAR_WIDTHS)):
                os.environ[LANE_KERNEL_ENV] = backend
                if sizes["warmup"]:
                    run_lane_batch(trace, _lanes(widths[0]), BASELINE_HIERARCHY_CONFIG,
                                   CORE_CONFIG_TABLE4, params)
                for width in widths:
                    lanes = _lanes(width)
                    seconds = _median_seconds(
                        lambda: run_lane_batch(trace, lanes, BASELINE_HIERARCHY_CONFIG,
                                               CORE_CONFIG_TABLE4, params),
                        sizes, warmup=False)
                    out[f"lane_kernel.{backend}.{lane_set}.w{width}.lane_records_per_s"] = (
                        length * width / seconds, "lane-records/s")
    finally:
        if previous is None:
            os.environ.pop(LANE_KERNEL_ENV, None)
        else:
            os.environ[LANE_KERNEL_ENV] = previous
    return out


def _smt_probes(sizes: Dict[str, Any]) -> Dict[str, Measured]:
    from repro.experiments.smt import SMTScale, run_smt_bandit, run_smt_static
    from repro.smt.pg_policy import CHOI_POLICY
    from repro.workloads.smt import smt_eval_mixes

    mix = smt_eval_mixes(1)[0]
    scale = SMTScale(epoch_cycles=300, total_epochs=sizes["smt_epochs"],
                     step_epochs=2, step_epochs_rr=2)
    cycles = scale.epoch_cycles * scale.total_epochs

    def rate(fn: Callable[[], Any]) -> Measured:
        return cycles / _median_seconds(fn, sizes), "cycles/s"

    return {
        "smt_kernel.cycles_per_s": rate(lambda: run_smt_static(
            mix, CHOI_POLICY, scale, seed=0, use_kernel=True)),
        "smt.bandit_cycles_per_s": rate(lambda: run_smt_bandit(
            mix, scale, seed=0, use_kernel=True)),
        "smt.object_cycles_per_s": rate(lambda: run_smt_static(
            mix, CHOI_POLICY, scale, seed=0, use_kernel=False)),
    }


def run_probes(workdir: Path, smoke: bool) -> Dict[str, Measured]:
    """Every layer probe, as ``{metric: (value, unit)}``."""
    from repro.workloads.compiled import TraceStore
    from repro.workloads.suites import spec_by_name

    sizes = SIZES[smoke]
    trace = TraceStore().get(spec_by_name(PROBE_TRACE), sizes["records"], seed=0)
    params = _scaled_params(trace)
    out: Dict[str, Measured] = {}
    out.update(_workload_probes(workdir, sizes))
    out.update(_runner_probes(workdir, trace, params, sizes))
    out.update(_replay_probes(trace, params, sizes))
    out.update(_lane_probes(sizes))
    out.update(_smt_probes(sizes))
    return {name: out[name] for name in probe_metric_names()}
