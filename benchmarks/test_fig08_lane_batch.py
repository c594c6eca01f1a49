"""Figure 8 replication sweep on both replay paths: lane batch vs scalar.

The two benchmarks run the *same* reduced Figure 8 seed-replication sweep
(same workloads, trace length, replicates, seeds) through the batched lane
kernel (``REPRO_LANE_KERNEL=1``, auto mode — this narrow 35-lane sweep
resolves to the dict kernel) and the PR 3 scalar kernel one lane at a time
(``REPRO_LANE_KERNEL=0``). They quantify this PR's speedup (committed
baseline: ``BENCH_PR6.json``; CI gates regressions via
``python -m repro.perf``) and double-check bit-identical sweep output
across the two paths.

The swept workloads are the three streaming tune-set members
(bwaves06/libquantum06/lbm06, ~12.5% L1 miss rate at this scale) whose
replay cost is dominated by the lane-invariant front end the batch kernel
vectorizes. The L1-thrashing tune-set members (milc06, cactus06,
omnetpp06), where every record takes the per-lane memory-side path, have
their own wide-sweep benchmark in ``test_fig08_lane_thrash.py`` gated by
``BENCH_PR10.json``.

Each test installs its own *uncached* execution context: replay task keys
do not encode ``REPRO_LANE_KERNEL``, so the session cache shared by the
other figure benchmarks would serve the second path the first path's
results and measure nothing. Compiled traces are pre-warmed outside the
timed region so both paths measure replay, not workload generation.
"""

import os

from conftest import scaled

from repro.core_model.lane_kernel import LANE_KERNEL_ENV
from repro.experiments.figures import fig08_replication_sweep
from repro.experiments.runner import ExecutionContext, use_context
from repro.workloads.compiled import compiled_trace_for
from repro.workloads.suites import spec_by_name

TRACE_LENGTH = scaled(20000)
REPLICATES = 24
WORKLOADS = ("bwaves06", "libquantum06", "lbm06")

#: Cross-test stash so the scalar-path run can check bit-identity against
#: the lane-path run without paying for a third sweep.
_RESULTS = {}


def _run_uncached(lane: bool):
    previous = os.environ.get(LANE_KERNEL_ENV)
    os.environ[LANE_KERNEL_ENV] = "1" if lane else "0"
    try:
        with use_context(ExecutionContext(jobs=1, cache=None)):
            return fig08_replication_sweep(
                trace_length=TRACE_LENGTH,
                replicates=REPLICATES,
                workloads=[spec_by_name(name) for name in WORKLOADS],
                seed=0,
            )
    finally:
        if previous is None:
            os.environ.pop(LANE_KERNEL_ENV, None)
        else:
            os.environ[LANE_KERNEL_ENV] = previous


def _warm_traces():
    for name in WORKLOADS:
        compiled_trace_for(name, TRACE_LENGTH, seed=0)


def test_fig08_lane_batch_kernel(run_once):
    _warm_traces()
    result = run_once(_run_uncached, lane=True)
    _RESULTS["lane"] = result
    print(f"\nlane path bandit gmean: {result['all']['bandit_gmean']:.3f}")
    assert result["all"]["bandit_gmean"] > 0.9


def test_fig08_lane_batch_scalar(run_once):
    _warm_traces()
    result = run_once(_run_uncached, lane=False)
    print(f"\nscalar path bandit gmean: {result['all']['bandit_gmean']:.3f}")
    assert result["all"]["bandit_gmean"] > 0.9
    if "lane" in _RESULTS:
        assert result == _RESULTS["lane"], (
            "lane and scalar paths diverged on identical inputs"
        )
