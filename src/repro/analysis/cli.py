"""Command-line front end: ``python -m repro.analysis [paths...]``.

Collects every finding in one pass, prints them with a per-rule summary
table (via :func:`repro.experiments.reporting.format_table`, the same
renderer the experiment tables use), and exits non-zero only when there
are findings not covered by the baseline — so CI output is actionable in
a single run instead of dying on the first hit.

``--format json`` swaps the human-readable report for one JSON document
on stdout (findings plus per-rule counts), so CI can archive the run as
an artifact and downstream tooling can diff reports without scraping the
table.  Exit codes are identical in both formats.

Exit codes: 0 clean (or fully baselined), 1 new findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.baseline import (
    load_baseline,
    prune_baseline,
    split_by_baseline,
    stale_entries,
    write_baseline,
)
from repro.analysis.core import Finding, default_rules, run_analysis
from repro.analysis.rules import Rule

#: Every rule the CLI knows: per-module R1–R5 and R13 plus project-wide
#: R8, R11 and R12.
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
        "--baseline", type=Path, default=None, metavar="FILE",
        help="JSON baseline of accepted findings; new findings still fail",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record the current findings into --baseline and exit 0",
    )
    parser.add_argument(
        "--prune", action="store_true",
        help="drop baseline entries whose finding no longer exists, then lint",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (e.g. R1,R4); default: all",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--root", type=Path, default=Path.cwd(),
        help="paths in output/baseline keys are relative to this directory",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="on-disk symbol-table cache (default: $REPRO_ANALYSIS_CACHE_DIR)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse/lint modules in a process pool of N workers",
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


def summarize(
    rules: Sequence[Rule],
    new: Sequence[Finding],
    baselined: Sequence[Finding],
) -> str:
    """Per-rule summary table rendered like the experiment tables."""
    from repro.experiments.reporting import format_table

    counts: Dict[str, Tuple[int, int]] = {}
    for rule in rules:
        counts[rule.code] = (0, 0)
    for finding in new:
        first, second = counts.get(finding.rule, (0, 0))
        counts[finding.rule] = (first + 1, second)
    for finding in baselined:
        first, second = counts.get(finding.rule, (0, 0))
        counts[finding.rule] = (first, second + 1)
    rows = [
        (
            rule.code,
            rule.name,
            counts[rule.code][0],
            counts[rule.code][1],
        )
        for rule in rules
    ]
    rows.append(("total", "", len(new), len(baselined)))
    return format_table(
        ["rule", "name", "new", "baselined"], rows,
        title="repro.analysis summary",
    )


def render_json(
    rules: Sequence[Rule],
    new: Sequence[Finding],
    baselined: Sequence[Finding],
) -> str:
    """One JSON document mirroring the table report.

    Every finding (new *and* baselined) appears under ``findings`` with a
    ``baselined`` flag, so an archived artifact records the full burn-down
    state of the run, not just what failed it.  Keys are sorted and the
    document ends in a newline so artifacts diff cleanly across runs.
    """

    def encode(finding: Finding, accepted: bool) -> Dict[str, object]:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
            "source_line": finding.source_line,
            "baselined": accepted,
        }

    counts: Dict[str, Dict[str, int]] = {
        rule.code: {"new": 0, "baselined": 0} for rule in rules
    }
    for finding in new:
        counts.setdefault(finding.rule, {"new": 0, "baselined": 0})
        counts[finding.rule]["new"] += 1
    for finding in baselined:
        counts.setdefault(finding.rule, {"new": 0, "baselined": 0})
        counts[finding.rule]["baselined"] += 1
    document = {
        "rules": [
            {"code": rule.code, "name": rule.name} for rule in rules
        ],
        "counts": counts,
        "findings": [
            *(encode(finding, False) for finding in new),
            *(encode(finding, True) for finding in baselined),
        ],
        "new": len(new),
        "baselined": len(baselined),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ACTIVE_RULES:
            print(f"{rule.code}  {rule.name:<18} {rule.description}")
        return 0

    if args.write_baseline and args.baseline is None:
        parser.error("--write-baseline requires --baseline FILE")
    if args.prune and args.baseline is None:
        parser.error("--prune requires --baseline FILE")

    paths = [Path(p) for p in args.paths]

    if args.prune:
        removed = prune_baseline(args.baseline, args.root)
        if removed:
            print(
                f"pruned {len(removed)} stale baseline entr"
                f"{'y' if len(removed) == 1 else 'ies'} from {args.baseline}"
            )

    rules = _select_rules(args.select)
    try:
        findings = run_analysis(
            paths,
            rules=rules,
            root=args.root,
            cache_dir=args.cache_dir,
            jobs=max(1, args.jobs),
        )
    except (FileNotFoundError, SyntaxError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"wrote {len(findings)} finding(s) to baseline {args.baseline}"
        )
        return 0

    accepted = load_baseline(args.baseline) if args.baseline else set()
    if accepted and not args.prune:
        stale = stale_entries(accepted, args.root)
        if stale:
            print(
                f"warning: {len(stale)} baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'} no longer match any "
                "source line; run with --prune to drop them",
                file=sys.stderr,
            )
    new, baselined = split_by_baseline(findings, accepted)

    if args.format == "json":
        sys.stdout.write(render_json(rules, new, baselined))
        return 1 if new else 0

    for finding in new:
        print(finding.format())
    print(summarize(rules, new, baselined))
    if new:
        print(
            f"{len(new)} new finding(s); fix them, suppress with "
            "`# repro: ignore[CODE]`, or record them with --write-baseline",
        )
        return 1
    return 0
