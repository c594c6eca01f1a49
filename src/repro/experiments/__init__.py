"""Experiment configurations and runners regenerating the paper's evaluation.

- :mod:`repro.experiments.configs` — Tables 4/5/6/7 as code.
- :mod:`repro.experiments.prefetch` — single-/multi-core prefetching runners.
- :mod:`repro.experiments.smt` — SMT fetch PG policy runners.
- :mod:`repro.experiments.figures` — one entry point per paper table/figure.
- :mod:`repro.experiments.runner` — parallel task execution, result cache,
  telemetry.
- :mod:`repro.experiments.reporting` — text-table formatting helpers.
"""

from repro.experiments.configs import (
    ALT_HIERARCHY_CONFIG,
    BASELINE_HIERARCHY_CONFIG,
    PREFETCH_BANDIT_CONFIG,
    SMT_BANDIT_TABLE6,
    prefetch_bandit_algorithm,
)
from repro.experiments.prefetch import (
    PrefetchRunResult,
    best_static_arm,
    make_prefetcher,
    run_bandit_prefetch,
    run_fixed_prefetcher,
    run_multicore_bandit,
    run_multicore_fixed,
)
from repro.experiments.runner import (
    ExecutionContext,
    ResultCache,
    RunTelemetry,
    Task,
    run_parallel,
    use_context,
)
from repro.experiments.smt import (
    SMTRunResult,
    run_smt_bandit,
    run_smt_static,
    smt_best_static_arm,
)

__all__ = [
    "ExecutionContext",
    "ResultCache",
    "RunTelemetry",
    "Task",
    "run_parallel",
    "use_context",
    "ALT_HIERARCHY_CONFIG",
    "BASELINE_HIERARCHY_CONFIG",
    "PREFETCH_BANDIT_CONFIG",
    "PrefetchRunResult",
    "SMTRunResult",
    "SMT_BANDIT_TABLE6",
    "best_static_arm",
    "make_prefetcher",
    "prefetch_bandit_algorithm",
    "run_bandit_prefetch",
    "run_fixed_prefetcher",
    "run_multicore_bandit",
    "run_multicore_fixed",
    "run_smt_bandit",
    "run_smt_static",
    "smt_best_static_arm",
]
