"""L1-thrashing replication sweep on both replay paths: lane batch vs scalar.

The streaming benchmark (``test_fig08_lane_batch.py``) measures the lane
kernel where the shared front end dominates; *this* file measures the
opposite regime. The swept workloads are the three L1-thrashing tune-set
members (milc06, cactus06, omnetpp06) whose records overwhelmingly miss
L1, so nearly every record takes the per-lane memory-side path — the
~1.35x case under the old dict-based per-lane hierarchy. The
array-resident hierarchy (packed ``(lanes, sets, ways)`` tag/flag arrays,
vectorized victim selection and fill engine) turns that path into a
handful of masked array ops per record, which is the speedup the
committed ``BENCH_PR10.json`` baseline records.

The replicate count is deliberately large (400 bandit seeds, 411 lanes):
the scalar path is linear in lane count while the array path amortizes
its per-record dispatch across lanes, and wide sweeps are exactly the
shape the auto kernel mode routes to the array path. The trace length
matters too — eviction steady state (full sets, every fill selecting a
victim) only arrives a few thousand records in, so short traces would
understate the miss-path cost both kernels pay.

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
REPLICATES = 400
WORKLOADS = ("milc06", "cactus06", "omnetpp06")

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


def test_fig08_lane_thrash_kernel(run_once):
    _warm_traces()
    result = run_once(_run_uncached, lane=True)
    _RESULTS["lane"] = result
    print(f"\nlane path bandit gmean: {result['all']['bandit_gmean']:.3f}")
    assert result["all"]["bandit_gmean"] > 0.9


def test_fig08_lane_thrash_scalar(run_once):
    _warm_traces()
    result = run_once(_run_uncached, lane=False)
    print(f"\nscalar path bandit gmean: {result['all']['bandit_gmean']:.3f}")
    assert result["all"]["bandit_gmean"] > 0.9
    if "lane" in _RESULTS:
        assert result == _RESULTS["lane"], (
            "lane and scalar paths diverged on identical inputs"
        )
