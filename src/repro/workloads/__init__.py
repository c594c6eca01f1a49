"""Synthetic workloads standing in for the paper's trace suites.

The paper evaluates on DPC-3/CRC-2/Pythia traces of SPEC06, SPEC17, PARSEC,
Ligra, and CloudSuite, and on SPEC17 simpoints for the SMT use case. Those
artifacts are not redistributable, so this package provides seeded synthetic
generators that reproduce the *properties* the paper's mechanisms exploit:

- per-workload dominance of a small set of prefetch configurations (temporal
  homogeneity, §3.1) with cross-workload diversity,
- coarse-grained phase changes inside some workloads (Figure 7's mcf),
- asymmetric shared-resource appetite across SMT threads (§3.3's lbm).

See DESIGN.md §2 for the substitution rationale.
"""

from repro.workloads.generators import (
    GeneratorParams,
    generate_trace,
    mixed_trace,
    phased_trace,
    pointer_chase_trace,
    region_trace,
    stream_trace,
    strided_trace,
)
from repro.workloads.smt import (
    SMT_MIX_NAMES,
    ThreadProfile,
    smt_eval_mixes,
    smt_tune_mixes,
    thread_profile,
)
from repro.workloads.suites import (
    ALL_SUITES,
    WorkloadSpec,
    eval_specs,
    spec_by_name,
    tune_specs,
)
from repro.workloads.trace import TraceRecord, read_trace, write_trace

__all__ = [
    "ALL_SUITES",
    "GeneratorParams",
    "SMT_MIX_NAMES",
    "ThreadProfile",
    "TraceRecord",
    "WorkloadSpec",
    "eval_specs",
    "generate_trace",
    "mixed_trace",
    "phased_trace",
    "pointer_chase_trace",
    "read_trace",
    "region_trace",
    "smt_eval_mixes",
    "smt_tune_mixes",
    "spec_by_name",
    "stream_trace",
    "strided_trace",
    "thread_profile",
    "tune_specs",
    "write_trace",
]
