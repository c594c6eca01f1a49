"""Fidelity & determinism static analysis for the reproduction.

A custom AST-based linter with repo-specific rules that check, *before any
simulation runs*, the invariants the runtime test suite can only exercise:

- **R1 determinism** — no ambient RNG (module-level ``random.*`` /
  ``np.random.*`` calls, unseeded ``random.Random()``), no wall-clock reads
  (``time.time()``, ``datetime.now()``), no salted ``hash()`` seeding, and
  no iteration over set expressions (unordered across ``PYTHONHASHSEED``).
- **R2 paper-constant provenance** — Table 6/7 values bound to their
  parameter names in ``repro/bandit``, ``repro/smt`` and
  ``repro/experiments`` must come from :mod:`repro.constants`, never be
  re-typed inline.
- **R3 pickle safety** — task functions handed to the parallel runner
  (``Task(...)`` / ``run_parallel``) must be module-level functions;
  lambdas, closures and locally defined functions fail inside a worker
  only once ``--jobs > 1``.
- **R4 step hygiene** — a replay loop that calls ``observe()`` /
  ``end_step()`` / a prefetch controller's ``on_record()`` must also reach
  ``flush_step()``, ``cancel_selection()`` or the controller's ``finish()``
  so the trailing partial bandit step is never silently dropped.
- **R5 float equality** — ``==``/``!=`` against float literals.

The project-wide rules run over an inter-procedural symbol table and call
graph (:mod:`repro.analysis.symbols` / :mod:`repro.analysis.callgraph`)
built from all scanned files at once:

- **R8 seed provenance** — every RNG construction must trace, through
  assignments, parameters (followed to every caller) and wrappers, back
  to :func:`repro.util.rng.derive_seed` or an explicit config seed; any
  entropy source (``hash()``, wall clock, ``os.urandom``/``getpid``,
  uuid/secrets) in the flow is flagged.
- **R11 cache-key completeness** — every input a pool worker consumes
  must reach its ``task_key`` fingerprint: no ``*args``/``**kwargs``
  workers, no worker-reachable env-var reads (unless waived with
  ``# repro: cache-invariant[NAME]`` for provably path-equivalent gates),
  no ``None``-defaulted worker parameters substituted downstream with a
  module constant the key never saw.
- **R12 worker purity** — a fixpoint effect system
  (:mod:`repro.analysis.effects`) classifies every function as pure /
  reads-env / writes-global / does-IO / spawns-RNG; functions reachable
  from a pool submission site must not write module-level state or
  construct unseeded RNGs (deliberate per-process memos are acknowledged
  with ``# repro: ignore[R12]``).
- **R13 dtype contracts** — ``# repro: dtype[name: spec]`` annotations on
  kernel arrays (e.g. ``float64`` accumulators, ``int bits<=3`` packed
  cache-line state) are checked per module: implicit ``np.array`` dtypes,
  cross-family stores, mixed-dtype promotion, and masks or shifts outside
  the declared bit budget.

Rule codes are stable across releases, so baseline keys stay valid; the
gaps (R6, R7, R9, R10, R14–R17) are retired rules whose guarantees now
come from ruff's B006, the perf harness, the runtime sanitizer and the
differential property tests.

Findings can be suppressed per line with ``# repro: ignore`` or
``# repro: ignore[R1,R4]``, or burned down incrementally through a checked
in baseline file (``--baseline``; prune dead entries with ``--prune``).

Run it as ``python -m repro.analysis src/`` (add ``--jobs N`` to fan the
per-module pass out over a process pool; ``--format json`` emits a
machine-readable report for CI artifacts).
"""

from repro.analysis.baseline import load_baseline, write_baseline
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
    "load_baseline",
    "run_analysis",
    "write_baseline",
]
