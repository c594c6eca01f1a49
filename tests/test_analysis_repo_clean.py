"""The repo's own code must satisfy its fidelity linter.

This is the same check the ``lint-analysis`` CI job runs; keeping it in the
tier-1 suite means a new violation fails locally before it reaches CI.
"""

from pathlib import Path

from repro.analysis.core import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_tests_and_benchmarks_are_clean():
    """No baseline: a finding that cannot be fixed takes a targeted
    ``# repro: ignore[CODE]`` on its line."""
    findings = run_analysis(
        [REPO_ROOT / name for name in ("src", "tests", "benchmarks")],
        root=REPO_ROOT,
    )
    assert findings == [], "\n".join(f.format() for f in findings)
