"""Pass 2 of the inter-procedural engine: the project call graph.

Built on top of the symbol table (:mod:`repro.analysis.symbols`), the call
graph records every call site whose target resolves to a project (or
recognizably external) qualified name, indexed by caller (what does this
function invoke?) — which is how R11 walks a worker's call tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.symbols import Project, iter_scopes

#: Scope pseudo-name for calls made at module level.
MODULE_SCOPE = "<module>"

#: (first line, last line, scope qname, enclosing class name).
_Span = Tuple[int, int, str, Optional[str]]


@dataclass(frozen=True)
class CallSite:
    """One call expression, attributed to its enclosing scope."""

    caller: str  #: qualified name of the enclosing scope (see MODULE_SCOPE)
    module: str  #: dotted module name the call appears in
    callee: Optional[str]  #: resolved qualified target, if resolvable
    node: ast.Call


@dataclass
class CallGraph:
    sites: List[CallSite] = field(default_factory=list)
    by_caller: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, site: CallSite) -> None:
        self.sites.append(site)
        self.by_caller.setdefault(site.caller, []).append(site)


def _scope_of(
    module: str, call: ast.Call, spans: List[_Span]
) -> Tuple[str, Optional[str]]:
    """Innermost function scope containing ``call``: (qname, class name)."""
    line = call.lineno
    best: Optional[_Span] = None
    for span in spans:
        if span[0] <= line <= span[1]:
            if best is None or span[0] >= best[0]:
                best = span
    if best is None:
        return f"{module}.{MODULE_SCOPE}", None
    return best[2], best[3]


def build_callgraph(project: Project) -> CallGraph:
    """Resolve every call site in every project module."""
    graph = CallGraph()
    for module_name, module in project.modules.items():
        spans: List[_Span] = [
            (node.lineno, node.end_lineno or node.lineno, qname, class_name)
            for node, qname, class_name in iter_scopes(module_name, module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            scope_qname, class_name = _scope_of(module_name, node, spans)
            # A method's ``self.x(...)`` resolves against the class the
            # *scope* is defined in, not where the call textually sits.
            info = project.functions.get(scope_qname)
            self_class = info.class_name if info is not None else class_name
            callee = project.resolve_call(module_name, node.func, self_class)
            graph.add(CallSite(scope_qname, module_name, callee, node))
    return graph
