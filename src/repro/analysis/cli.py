"""Command-line front end: ``python -m repro.analysis [paths...]``.

Collects every finding in one pass, prints them with a per-rule summary
table (via :func:`repro.experiments.reporting.format_table`, the same
renderer the experiment tables use), and exits non-zero when there are
any — so CI output is actionable in a single run instead of dying on the
first hit.

``--format json`` swaps the human-readable report for one JSON document
on stdout (findings plus per-rule counts), so CI can archive the run as
an artifact and downstream tooling can diff reports without scraping the
table.  Exit codes are identical in both formats.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, default_rules, run_analysis
from repro.analysis.rules import Rule

#: Every rule the CLI knows: per-module R1 plus project-wide R11.
ACTIVE_RULES: Tuple[Rule, ...] = default_rules()

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ACTIVE_RULES}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Fidelity & determinism static analysis.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (e.g. R1,R11); default: all",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--root", type=Path, default=Path.cwd(),
        help="paths in the report are relative to this directory",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report format: human-readable table (default) or one JSON "
        "document suitable for CI artifacts",
    )
    return parser


def _select_rules(selection: Optional[str]) -> Sequence[Rule]:
    if selection is None:
        return ACTIVE_RULES
    rules: List[Rule] = []
    for code in selection.split(","):
        code = code.strip().upper()
        if code not in RULES_BY_CODE:
            known = ", ".join(sorted(RULES_BY_CODE))
            raise SystemExit(
                f"error: unknown rule {code!r} (known: {known})"
            )
        rules.append(RULES_BY_CODE[code])
    return rules


def _counts(
    rules: Sequence[Rule], findings: Sequence[Finding]
) -> Dict[str, int]:
    counts = {rule.code: 0 for rule in rules}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def summarize(rules: Sequence[Rule], findings: Sequence[Finding]) -> str:
    """Per-rule summary table rendered like the experiment tables."""
    from repro.experiments.reporting import format_table

    counts = _counts(rules, findings)
    rows = [(rule.code, rule.name, counts[rule.code]) for rule in rules]
    rows.append(("total", "", len(findings)))
    return format_table(
        ["rule", "name", "findings"], rows, title="repro.analysis summary",
    )


def render_json(rules: Sequence[Rule], findings: Sequence[Finding]) -> str:
    """One JSON document mirroring the table report.

    Keys are sorted and the document ends in a newline so artifacts diff
    cleanly across runs.
    """
    document = {
        "rules": [
            {"code": rule.code, "name": rule.name} for rule in rules
        ],
        "counts": _counts(rules, findings),
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "source_line": finding.source_line,
            }
            for finding in findings
        ],
        "total": len(findings),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule in ACTIVE_RULES:
            print(f"{rule.code}  {rule.name:<18} {rule.description}")
        return 0

    rules = _select_rules(args.select)
    try:
        findings = run_analysis(
            [Path(p) for p in args.paths], rules=rules, root=args.root
        )
    except (FileNotFoundError, SyntaxError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        sys.stdout.write(render_json(rules, findings))
        return 1 if findings else 0

    for finding in findings:
        print(finding.format())
    print(summarize(rules, findings))
    if findings:
        print(
            f"{len(findings)} finding(s); fix them or suppress with "
            "`# repro: ignore[CODE]`",
        )
        return 1
    return 0
