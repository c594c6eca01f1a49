"""Extension bench: the §9 two-level (hyperparameter-selecting) bandit.

§9 proposes running several DUCB instances with different (γ, c) values
under a high-level bandit. We compare a MetaBandit over three DUCB children
against the single tuned DUCB on a phase-changing trace, expecting the meta
level to stay competitive without knowing the right hyperparameters ahead
of time.
"""

from dataclasses import replace

from conftest import scaled

from repro.bandit.base import BanditConfig
from repro.bandit.ducb import DUCB
from repro.bandit.meta import MetaBandit
from repro.experiments.configs import PREFETCH_BANDIT_CONFIG
from repro.experiments.prefetch import run_bandit_prefetch
from repro.experiments.reporting import format_table
from repro.workloads.suites import spec_by_name


PARAMS = replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=60)


def run_extension(trace_length):
    trace = spec_by_name("mcf06").trace(trace_length, seed=0)
    tuned = DUCB(BanditConfig(num_arms=11, gamma=0.98, exploration_c=0.04,
                              seed=0))
    tuned_ipc = run_bandit_prefetch(trace, algorithm=tuned, params=PARAMS).ipc
    children = [
        DUCB(BanditConfig(num_arms=11, gamma=gamma, exploration_c=c, seed=i))
        for i, (gamma, c) in enumerate(((0.9, 0.02), (0.98, 0.04), (0.999, 0.08)))
    ]
    meta = MetaBandit(children)
    meta_ipc = run_bandit_prefetch(trace, algorithm=meta, params=PARAMS).ipc
    return {"tuned DUCB": tuned_ipc, "MetaBandit": meta_ipc}


def test_ext_meta_bandit():
    result = run_extension(scaled(15_000))
    print()
    print(format_table(
        ["agent", "IPC"],
        [(name, f"{value:.3f}") for name, value in result.items()],
        title="Extension (§9): two-level hyperparameter-selecting bandit",
    ))
    assert result["MetaBandit"] >= result["tuned DUCB"] * 0.85
