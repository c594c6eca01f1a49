"""Fidelity & determinism static analysis for the reproduction.

A custom AST-based linter with repo-specific rules that check, *before any
simulation runs*, the invariants the runtime test suite can only exercise:

- **R1 determinism** — no ambient RNG (module-level ``random.*`` /
  ``np.random.*`` calls, unseeded ``random.Random()``), no wall-clock reads
  (``time.time()``, ``datetime.now()``), no salted ``hash()`` seeding, and
  no iteration over set expressions (unordered across ``PYTHONHASHSEED``).
- **R11 cache-key completeness** — every input a pool worker consumes
  must reach its ``task_key`` fingerprint: no ``*args``/``**kwargs``
  workers, no worker-reachable env-var reads (unless waived with
  ``# repro: cache-invariant[NAME]`` for provably path-equivalent gates),
  no ``None``-defaulted worker parameters substituted downstream with a
  module constant the key never saw.

R1 checks one module at a time. R11 runs over an inter-procedural symbol
table and call graph (:mod:`repro.analysis.symbols` /
:mod:`repro.analysis.callgraph`) built from all scanned files at once.

Rule codes are stable across releases; the gaps are retired rules whose
guarantees now come from ruff's B006, the runtime ``task_key`` checks,
``tests/test_constants.py``, ``PrefetchBanditController``'s step-contract
test, the runtime sanitizer, and the differential, lane-property and
golden tests.

Findings can be suppressed per line with ``# repro: ignore`` or
``# repro: ignore[R1,R11]``.

Run it as ``python -m repro.analysis src tests benchmarks examples
perfbench`` (``--format json`` emits a machine-readable report for CI
artifacts).
"""

from repro.analysis.core import Finding, ParsedModule, default_rules, run_analysis
from repro.analysis.project_rules import PROJECT_RULES, ProjectRule
from repro.analysis.rules import ALL_RULES, Rule
from repro.analysis.symbols import Project, build_project

__all__ = [
    "ALL_RULES",
    "Finding",
    "ParsedModule",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "Rule",
    "build_project",
    "default_rules",
    "run_analysis",
]
