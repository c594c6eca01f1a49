"""Engine of the fidelity linter: findings, module parsing, rule driving.

The engine is deliberately dependency-free (stdlib ``ast`` only) so that
``python -m repro.analysis`` works in any environment that can import the
package — CI, pre-commit, or a bare container.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.rules import Rule

#: Trailing-comment suppression marker: ``# repro: ignore`` silences every
#: rule on that line, ``# repro: ignore[R1,R11]`` only the listed rules.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    source_line: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class ParsedModule:
    """One parsed source file, as handed to every rule."""

    path: str
    source: str
    lines: Sequence[str]
    tree: ast.Module

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = self.lines[line - 1].strip() if line <= len(self.lines) else ""
        return Finding(rule, self.path, line, col, message, text)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.line > len(self.lines):
            return False
        match = _SUPPRESS_RE.search(self.lines[finding.line - 1])
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        codes = {code.strip() for code in listed.split(",")}
        return finding.rule in codes


def parse_module(path: Path, display_path: Optional[str] = None) -> ParsedModule:
    """Parse one file into the form the rules consume."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ParsedModule(
        path=display_path if display_path is not None else path.as_posix(),
        source=source,
        lines=source.splitlines(),
        tree=tree,
    )


def relative_display_path(file_path: Path, root: Optional[Path]) -> str:
    """``file_path`` relative to ``root`` when it lies under it."""
    if root is not None:
        try:
            return file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return file_path.as_posix()


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return found


def check_module(module: ParsedModule, rules: Iterable["Rule"]) -> List[Finding]:
    """Run ``rules`` over one parsed module, honouring suppressions."""
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def default_rules() -> tuple["Rule", ...]:
    """Fresh instances of the full rule set: R1, then the project rule R11."""
    from repro.analysis.project_rules import PROJECT_RULES
    from repro.analysis.rules import ALL_RULES

    return (*ALL_RULES, *PROJECT_RULES)


def run_analysis(
    paths: Sequence[Path],
    rules: Optional[Sequence["Rule"]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; returns all findings.

    Runs in two passes: the per-module rule (R1) file by file, then — if
    R11 is selected — the inter-procedural pass over the whole file set at
    once, via the project symbol table.

    ``root`` controls how paths are displayed (relative to it when given),
    which keeps reports machine-independent.
    """
    from repro.analysis.project_rules import ProjectRule

    if rules is None:
        rules = default_rules()
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        module = parse_module(file_path, relative_display_path(file_path, root))
        findings.extend(check_module(module, module_rules))

    if project_rules:
        from repro.analysis.symbols import build_project

        project = build_project(paths, root=root)
        for rule in project_rules:
            for finding in rule.check_project(project):
                owner = project.module_for_path(finding.path)
                if owner is not None and owner.is_suppressed(finding):
                    continue
                findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
