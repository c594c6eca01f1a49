"""Shared helpers for the paper-claim benchmarks.

Every file here regenerates one table or figure of the paper at
*reproduction scale* (small synthetic traces, shortened episodes — see
EXPERIMENTS.md), prints the regenerated rows/series and asserts the
paper's shape claims. Set ``REPRO_BENCH_SCALE`` (a float, default 1.0) to
enlarge all workloads, e.g.::

    REPRO_BENCH_SCALE=4 PYTHONPATH=src python -m pytest benchmarks -s

The files check claims and time nothing; timing is perfbench's job
(``perfbench/README.md``).

Figure benchmarks share one result cache for the session, so replays that
recur across figures (e.g. the no-prefetch baselines) execute once.
``REPRO_BENCH_CACHE_DIR`` pins the cache to a persistent directory (reuse
across pytest invocations); ``REPRO_BENCH_JOBS`` fans replays out over a
process pool. Both default to the deterministic serial behaviour.
"""

import os

import pytest

from repro.experiments.runner import ExecutionContext, ResultCache, use_context
from repro.workloads.compiled import (
    TRACE_CACHE_ENV,
    TraceStore,
    use_trace_store,
)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """``value`` scaled by ``REPRO_BENCH_SCALE``, rounded to the nearest int.

    Rounds (banker's rounding via :func:`round`) rather than truncates, so a
    fractional scale shrinks small step/epoch counts consistently across
    benchmarks — ``scaled(5)`` at scale 0.5 is 2, not the 2-vs-1 lottery
    truncation made of nearby counts. The result never drops below
    ``minimum`` (default 1): every loop still executes at least once no
    matter how small the scale.
    """
    return max(minimum, round(value * bench_scale()))


@pytest.fixture(scope="session", autouse=True)
def experiment_context(tmp_path_factory):
    """Install a session-wide execution context (shared cache across tests)."""
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if not cache_dir:
        cache_dir = tmp_path_factory.mktemp("repro-cache")
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    context = ExecutionContext(jobs=jobs, cache=ResultCache(cache_dir))
    # Compiled traces are kept as rows of the same result store, so
    # repeated benchmark invocations skip workload generation entirely. The
    # environment variable makes pool workers pick the same directory up.
    previous_env = os.environ.get(TRACE_CACHE_ENV)
    os.environ[TRACE_CACHE_ENV] = str(cache_dir)
    store = TraceStore(cache_dir)
    try:
        with use_trace_store(store), use_context(context):
            yield context
    finally:
        if previous_env is None:
            os.environ.pop(TRACE_CACHE_ENV, None)
        else:
            os.environ[TRACE_CACHE_ENV] = previous_env
