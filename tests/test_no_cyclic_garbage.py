"""No task leaves a reference cycle behind.

``run_checked`` pauses the cycle collector for a whole replay, on the
grounds that reference counting alone frees everything a replay builds.
This file is what makes that sound: with the collector off, one small task
of each kind runs, and a full collection afterwards must find nothing
unreachable. A cycle here (Pythia's bandwidth probe once held the
hierarchy that holds Pythia) would keep a whole hierarchy alive until the
next full collection.
"""

import gc

import pytest

from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.runner import (
    bandit_prefetch_task,
    fixed_arm_task,
    fixed_prefetcher_task,
    multicore_bandit_task,
    multicore_fixed_task,
    smt_bandit_task,
    smt_static_task,
)
from repro.experiments.smt import SMTScale
from repro.smt.pg_policy import CHOI_POLICY
from repro.workloads.compiled import TraceStore, use_trace_store

TRACE = dict(spec_name="mcf06", trace_length=600)
MULTICORE = dict(spec_names=["mcf06"] * 4, trace_length=300,
                 seeds=[0, 1, 2, 3])
SMT = dict(thread_names=("gcc", "lbm"),
           scale=SMTScale(epoch_cycles=200, total_epochs=20))

CASES = [
    *(
        pytest.param(fixed_prefetcher_task,
                     dict(TRACE, prefetcher_name=name), id=f"fixed-{name}")
        for name in ("none", "stride", "bingo", "mlop", "pythia", "ipcp")
    ),
    pytest.param(fixed_prefetcher_task,
                 dict(TRACE, prefetcher_name="pythia", l1_kind="stride2"),
                 id="fixed-stride2-pythia"),
    pytest.param(fixed_arm_task, dict(TRACE, arm=5), id="fixed-arm"),
    pytest.param(bandit_prefetch_task,
                 dict(TRACE, params=PREFETCH_BANDIT_CONFIG), id="bandit"),
    pytest.param(multicore_fixed_task,
                 dict(MULTICORE, prefetcher_name="pythia"),
                 id="multicore-pythia"),
    pytest.param(multicore_bandit_task,
                 dict(MULTICORE, params=PREFETCH_BANDIT_CONFIG),
                 id="multicore-bandit"),
    pytest.param(smt_static_task,
                 dict(SMT, policy_mnemonic=CHOI_POLICY.mnemonic),
                 id="smt-static"),
    pytest.param(smt_bandit_task, dict(SMT), id="smt-bandit"),
    pytest.param(smt_bandit_task, dict(SMT, algorithm_name="UCB"),
                 id="smt-bandit-ucb"),
]


@pytest.mark.parametrize("task, kwargs", CASES)
def test_task_leaves_no_cyclic_garbage(task, kwargs):
    with use_trace_store(TraceStore()):
        # A first run imports what the task imports and fills the store, so
        # the measured run leaves only what every replay leaves.
        task(**kwargs)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            task(**kwargs)
            unreachable = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
    assert unreachable == 0
