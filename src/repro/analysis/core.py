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
#: rule on that line, ``# repro: ignore[R1,R4]`` only the listed rules.
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

    def key(self) -> str:
        """Stable identity for baseline matching.

        Keyed on the rule, the file, and the *text* of the offending line
        (not its number), so unrelated edits above a baselined finding do
        not resurrect it.
        """
        return f"{self.rule}|{self.path}|{self.source_line}"

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
    """Fresh instances of the full default rule set.

    Per-module rules come first (R1–R5, then R13), then the project rules.
    """
    from repro.analysis.dtype_rules import DtypeContractRule
    from repro.analysis.project_rules import PROJECT_RULES
    from repro.analysis.rules import ALL_RULES

    return (*ALL_RULES, DtypeContractRule(), *PROJECT_RULES)


def _module_pass_worker(
    path_str: str, display: str, codes: tuple[str, ...]
) -> List[Finding]:
    """Parse one file and run the named per-module rules over it.

    Runs in a pool worker, so it takes only picklable inputs: rule
    instances are reconstructed from their codes via
    :func:`default_rules`. Pure by construction — no environment reads,
    no module state — which is exactly what R12 demands of it.
    """
    from repro.analysis.project_rules import ProjectRule

    rules = [
        rule for rule in default_rules()
        if rule.code in codes and not isinstance(rule, ProjectRule)
    ]
    module = parse_module(Path(path_str), display)
    return check_module(module, rules)


def run_analysis(
    paths: Sequence[Path],
    rules: Optional[Sequence["Rule"]] = None,
    root: Optional[Path] = None,
    cache_dir: Optional[Path] = None,
    jobs: int = 1,
) -> List[Finding]:
    """Lint every Python file under ``paths``; returns all findings.

    Runs in two passes: the per-module rules (R1–R5, R13) file by file,
    then — if any project rule is selected — the inter-procedural pass
    (R8, R11, R12) over the whole file set at once, via the project
    symbol table.

    ``root`` controls how paths are displayed/keyed (relative to it when
    given), which keeps baseline keys machine-independent.
    ``cache_dir`` enables the on-disk symbol-table cache
    (see :func:`repro.analysis.symbols.build_project`). ``jobs > 1``
    fans the parse/lint of the per-module pass (and the symbol-table
    parse) out over a process pool; results are order-stable either way.
    """
    from repro.analysis.project_rules import ProjectRule

    if rules is None:
        rules = default_rules()
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    displays: List[tuple[Path, str]] = []
    for file_path in iter_python_files(paths):
        display = file_path
        if root is not None:
            try:
                display = file_path.resolve().relative_to(root.resolve())
            except ValueError:
                display = file_path
        displays.append((file_path, display.as_posix()))

    findings: List[Finding] = []
    registry = {rule.code for rule in default_rules()}
    codes = tuple(rule.code for rule in module_rules)
    if jobs > 1 and all(code in registry for code in codes):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_module_pass_worker, str(file_path), display, codes)
                for file_path, display in displays
            ]
            for future in futures:
                findings.extend(future.result())
    else:
        for file_path, display in displays:
            module = parse_module(file_path, display)
            findings.extend(check_module(module, module_rules))

    if project_rules:
        from repro.analysis.symbols import build_project

        project = build_project(
            paths, root=root, cache_dir=cache_dir, jobs=jobs
        )
        for rule in project_rules:
            for finding in rule.check_project(project):
                owner = project.module_for_path(finding.path)
                if owner is not None and owner.is_suppressed(finding):
                    continue
                findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
