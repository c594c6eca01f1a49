"""Pass 1 of the inter-procedural engine: the project symbol table.

:func:`build_project` parses every module under the scanned paths once and
resolves *names to definitions* across module boundaries: functions,
classes, methods, module-level constants, and the import aliases that
connect them. The resulting :class:`Project` is what the project-wide
rule R11 and the call graph (:mod:`repro.analysis.callgraph`) consume — no
rule re-parses or re-resolves anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import ParsedModule, parse_module, relative_display_path


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, addressable by qualified name."""

    qname: str  #: e.g. ``repro.util.rng.make_rng`` / ``pkg.mod.Class.method``
    module: str  #: dotted module name the definition lives in
    node: ast.AST  #: the ``FunctionDef`` / ``AsyncFunctionDef``
    class_name: Optional[str]  #: immediate enclosing class, if a method
    params: Tuple[str, ...]  #: parameter names, ``self``/``cls`` stripped


@dataclass
class Project:
    """The project-wide symbol table (pass 1 output)."""

    #: dotted module name -> parsed module
    modules: Dict[str, ParsedModule] = field(default_factory=dict)
    #: module names that are packages (``__init__.py``)
    packages: Set[str] = field(default_factory=set)
    #: qualified name -> function/method definition
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: qualified name -> class definition
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: qualified name of a module-level binding -> its value expression
    constants: Dict[str, ast.expr] = field(default_factory=dict)
    #: module -> local name -> qualified target (import aliases)
    imports: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module -> modules it imports (project modules only)
    import_graph: Dict[str, Set[str]] = field(default_factory=dict)
    #: display path -> dotted module name (for suppression lookups)
    path_index: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------- lookups

    def module_for_path(self, display_path: str) -> Optional[ParsedModule]:
        name = self.path_index.get(display_path)
        return self.modules.get(name) if name is not None else None

    def is_known(self, qname: str) -> bool:
        return (
            qname in self.functions
            or qname in self.classes
            or qname in self.constants
            or qname in self.modules
        )

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve ``dotted`` as written in ``module`` to a qualified name.

        Handles import aliases (``import x.y as z``, ``from m import n``)
        and module-local definitions; returns ``None`` for names the
        project cannot see (builtins, third-party modules the scan does
        not cover, dynamic attributes).
        """
        parts = dotted.split(".")
        head = parts[0]
        table = self.imports.get(module, {})
        if head in table:
            target = table[head]
            rest = parts[1:]
            return ".".join([target, *rest]) if rest else target
        candidate = f"{module}.{dotted}"
        if self.is_known(candidate):
            return candidate
        if self.is_known(f"{module}.{head}"):
            return candidate
        if self.is_known(dotted):
            return dotted
        return None

    def resolve_call(
        self,
        module: str,
        func: ast.expr,
        self_class: Optional[str] = None,
    ) -> Optional[str]:
        """Qualified name of a call target expression, where resolvable.

        ``self_class`` names the enclosing class so ``self.method(...)``
        resolves to that class's method.
        """
        if isinstance(func, ast.Name):
            return self.resolve(module, func.id)
        if isinstance(func, ast.Attribute):
            parts: List[str] = []
            current: ast.expr = func
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if not isinstance(current, ast.Name):
                return None
            parts.reverse()
            if current.id == "self" and self_class is not None:
                if len(parts) == 1:
                    candidate = f"{module}.{self_class}.{parts[0]}"
                    if self.is_known(candidate):
                        return candidate
                return None
            return self.resolve(module, ".".join([current.id, *parts]))
        return None


def iter_scopes(
    module_name: str, tree: ast.Module
) -> Iterator[Tuple[ast.AST, str, Optional[str]]]:
    """Yield every function/method def as ``(node, qname, class_name)``.

    ``qname`` is fully qualified (module included); nested defs carry
    their enclosing function names (``mod.outer.inner``).
    """

    def visit(
        node: ast.AST, scope: Tuple[str, ...], in_class: Optional[str]
    ) -> Iterator[Tuple[ast.AST, str, Optional[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = ".".join((module_name, *scope, child.name))
                yield child, qname, in_class
                yield from visit(child, (*scope, child.name), None)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, (*scope, child.name), child.name)
            else:
                yield from visit(child, scope, in_class)

    yield from visit(tree, (), None)


# ------------------------------------------------------------ construction


def _module_files(
    paths: Sequence[Path],
) -> List[Tuple[Path, str, bool]]:
    """Expand scan paths to ``(file, dotted module name, is_package)``.

    Module names are relative to the scanned directory (``src/repro/util/
    rng.py`` scanned at ``src`` becomes ``repro.util.rng``), mirroring how
    the code imports itself.
    """
    out: List[Tuple[Path, str, bool]] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                parts = list(file.relative_to(path).with_suffix("").parts)
                is_package = parts[-1] == "__init__"
                if is_package:
                    parts = parts[:-1]
                name = ".".join(parts) if parts else path.name
                out.append((file, name, is_package))
        elif path.suffix == ".py":
            out.append((path, path.stem, False))
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return out


def _collect_imports(
    module_name: str, is_package: bool, tree: ast.Module
) -> Dict[str, str]:
    """Local name -> qualified target for every import in the module."""
    table: Dict[str, str] = {}
    pkg_parts = module_name.split(".")
    if not is_package:
        pkg_parts = pkg_parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; dotted uses resolve later.
                    head = alias.name.split(".")[0]
                    table.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                kept = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(
                    [*kept, node.module] if node.module else kept
                )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def _collect_definitions(project: Project, name: str, tree: ast.Module) -> None:
    """Record functions, classes, and module-level constants of one module."""
    for node, qname, in_class in iter_scopes(name, tree):
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        params = [
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if in_class is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        project.functions[qname] = FunctionInfo(
            qname=qname,
            module=name,
            node=node,
            class_name=in_class,
            params=tuple(params),
        )

    def visit_classes(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                project.classes[".".join((name, *scope, child.name))] = child
                visit_classes(child, (*scope, child.name))
            elif not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                visit_classes(child, scope)

    visit_classes(tree, ())

    def visit_constants(node: ast.AST) -> None:
        # Module level only (including inside ``if``/``try`` blocks);
        # function and class bodies are scoped separately.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        project.constants[f"{name}.{target.id}"] = child.value
            elif isinstance(child, ast.AnnAssign):
                if isinstance(child.target, ast.Name) and child.value is not None:
                    project.constants[f"{name}.{child.target.id}"] = child.value
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                visit_constants(child)

    visit_constants(tree)


def build_project(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Project:
    """Build the symbol table for every Python file under ``paths``."""
    files = _module_files(paths)
    project = Project()
    for file_path, name, is_package in files:
        module = parse_module(file_path, relative_display_path(file_path, root))
        project.modules[name] = module
        if is_package:
            project.packages.add(name)
        project.path_index[module.path] = name
        project.imports[name] = _collect_imports(name, is_package, module.tree)
        _collect_definitions(project, name, module.tree)
    # Project-internal import graph (targets restricted to scanned modules).
    for name, table in project.imports.items():
        edges: Set[str] = set()
        for target in table.values():
            if target in project.modules:
                edges.add(target)
            else:
                parent = target.rsplit(".", 1)[0]
                if parent in project.modules:
                    edges.add(parent)
        edges.discard(name)
        project.import_graph[name] = edges
    return project
