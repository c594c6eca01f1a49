"""The repo's own code must satisfy its fidelity linter.

This is the same check the ``lint-analysis`` CI job runs; keeping it in the
tier-1 suite means a new violation fails locally before it reaches CI.
"""

from pathlib import Path

from repro.analysis.core import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_tests_benchmarks_examples_and_perfbench_are_clean():
    """No baseline: a finding that cannot be fixed takes a targeted
    ``# repro: ignore[CODE]`` on its line. ``examples`` and ``perfbench``
    seed and drive the simulator too."""
    findings = run_analysis(
        [REPO_ROOT / name
         for name in ("src", "tests", "benchmarks", "examples", "perfbench")],
        root=REPO_ROOT,
    )
    assert findings == [], "\n".join(f.format() for f in findings)
