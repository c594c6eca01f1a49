"""Figure 8 seed-replication sweep on streaming and L1-thrashing traces.

``fig08_replication_sweep`` replays each workload's 11 static arms and its
bandit seeds as one batch of lanes. It runs here on the three streaming
tune-set members (bwaves06, libquantum06, lbm06, about 12.5 % L1 misses)
and the three L1-thrashing ones (milc06, cactus06, omnetpp06). On both
trios the bandit's gmean IPC over no-prefetching must stay above 0.9.

Single-core DUCB never draws from its random number generator, so all 24
bandit lanes replay one episode bit for bit, and the lane kernel replays it
once. More seeds would change no number.
"""

import pytest

from conftest import scaled

from repro.experiments.figures import fig08_replication_sweep
from repro.experiments.reporting import format_table
from repro.workloads.suites import spec_by_name

TRIOS = {
    "streaming": ("bwaves06", "libquantum06", "lbm06"),
    "thrashing": ("milc06", "cactus06", "omnetpp06"),
}


@pytest.mark.parametrize("trio", sorted(TRIOS))
def test_fig08_replication_sweep(trio):
    names = TRIOS[trio]
    result = fig08_replication_sweep(
        trace_length=scaled(20_000),
        replicates=24,
        workloads=[spec_by_name(name) for name in names],
        seed=0,
    )
    rows = [
        (name, result[name]["best_static_arm"],
         f"{result[name]['best_static_norm']:.3f}",
         f"{result[name]['bandit_mean']:.3f}")
        for name in names
    ]
    print()
    print(format_table(
        ["workload", "best arm", "best static", "bandit"], rows,
        title=f"Figure 8 replication sweep ({trio} trio): "
              "IPC normalized to no-prefetching",
    ))
    print(f"bandit gmean: {result['all']['bandit_gmean']:.3f}")
    assert result["all"]["bandit_gmean"] > 0.9
