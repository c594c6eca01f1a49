"""Inter-procedural effect and provenance inference (R11/R12's engine).

Built on the symbol table and call graph, this layer answers two questions
about the functions the experiment runner ships to pool workers:

- *What does this function touch besides its arguments?*
  :func:`direct_effects` extracts per-function effect sites —
  environment-variable reads, module-global writes and unseeded RNG
  construction — and :func:`reachable_functions` gives the call tree a
  worker can reach, so a rule checks the sites of every function in it.
- *Which functions are workers at all?* :func:`find_worker_roots` collects
  every function submitted to the parallel engine — the first argument of
  a ``Task(...)`` construction or of an executor ``.submit(...)`` call —
  so the rules can restrict themselves to code that actually crosses a
  process boundary.

An effect that is *known* not to influence a task's result can be waived
at the site with ``# repro: cache-invariant[NAME]`` (on the reading line
or the line above); ``NAME`` is the environment variable or global being
read, or ``*`` for everything on that line. The canonical examples are the
``REPRO_LANE_KERNEL``/``REPRO_SMT_KERNEL``/``REPRO_SANITIZE`` gates, whose
two implementation paths are bit-identical by construction (sanitizer-
verified), and ``REPRO_TRACE_CACHE_DIR``, which only relocates a
content-keyed store.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.core import ParsedModule
from repro.analysis.symbols import FunctionInfo, Project

#: Waiver marker for effects that provably cannot change a task's result.
_WAIVER_RE = re.compile(
    r"#\s*repro:\s*cache-invariant\[([A-Za-z0-9_.\-*,\s]+)\]"
)

#: Effect-site kinds (``EffectSite.kind``).
ENV_READ = "env-read"
GLOBAL_WRITE = "global-write"
RNG_UNSEEDED = "rng-unseeded"

#: RNG constructors whose *argument-less* form draws a nondeterministic
#: per-process seed (matched on the resolved qualified name).
_RNG_CTORS = ("random.Random",)
_RNG_CTOR_SUFFIXES = (".default_rng",)


@dataclass(frozen=True)
class EffectSite:
    """One effectful operation, attributed to its enclosing function."""

    kind: str  #: :data:`ENV_READ` / :data:`GLOBAL_WRITE` / ...
    module: str  #: dotted module name the site appears in
    function: str  #: qualified name of the enclosing function
    node: ast.AST
    detail: str  #: env var name, global qname, or callee — for messages


@dataclass(frozen=True)
class WorkerRoot:
    """One function handed to the parallel engine at one submission site."""

    qname: str  #: qualified name of the submitted function
    via: str  #: ``"Task"`` or ``"submit"``
    module: str  #: module of the submission site
    node: ast.Call


# -------------------------------------------------------------- waivers


def waived_invariants(module: ParsedModule, line: int) -> Set[str]:
    """Names waived by ``# repro: cache-invariant[...]`` at ``line``.

    Both the site line and the line directly above it are honoured, so the
    waiver survives line-length limits on long reading expressions.
    """
    names: Set[str] = set()
    for candidate in (line, line - 1):
        if 1 <= candidate <= len(module.lines):
            for match in _WAIVER_RE.finditer(module.lines[candidate - 1]):
                names |= {n.strip() for n in match.group(1).split(",")}
    return {n for n in names if n}


# -------------------------------------------------------- worker discovery


def _first_callable_argument(call: ast.Call) -> Optional[ast.expr]:
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return None


def find_worker_roots(project: Project, graph: CallGraph) -> List[WorkerRoot]:
    """Every project function submitted to the parallel engine.

    Two submission shapes are recognized: ``Task(fn, ...)`` where the call
    target resolves to a project class named ``Task``, and
    ``<executor>.submit(fn, ...)`` — the raw ``ProcessPoolExecutor``
    protocol the engine itself (and the analyzer's own parallel driver)
    uses. The submitted expression must resolve to a project function.
    """
    roots: List[WorkerRoot] = []
    for site in graph.sites:
        via: Optional[str] = None
        if site.callee is not None and (
            site.callee in project.classes
            and site.callee.rsplit(".", 1)[-1] == "Task"
        ):
            via = "Task"
        elif (
            isinstance(site.node.func, ast.Attribute)
            and site.node.func.attr == "submit"
        ):
            via = "submit"
        if via is None:
            continue
        argument = _first_callable_argument(site.node)
        if argument is None:
            continue
        info = project.functions.get(site.caller)
        self_class = info.class_name if info is not None else None
        target = None
        if isinstance(argument, (ast.Name, ast.Attribute)):
            target = project.resolve_call(site.module, argument, self_class)
        if target is not None and target in project.functions:
            roots.append(WorkerRoot(target, via, site.module, site.node))
    return roots


# ------------------------------------------------------------ reachability


def reachable_functions(
    project: Project, graph: CallGraph, root: str
) -> Set[str]:
    """Qualified names of every function ``root`` can reach.

    Follows resolved call edges, class constructions (``Cls(...)`` reaches
    ``Cls.__init__``), and nesting: a function's nested defs (closures)
    execute within its dynamic extent, so ``f`` reaches every ``f.inner``.
    """
    nested: Dict[str, List[str]] = {}
    for qname in project.functions:
        parent = qname.rsplit(".", 1)[0]
        if parent in project.functions:
            nested.setdefault(parent, []).append(qname)

    seen: Set[str] = set()
    frontier = [root]
    while frontier:
        current = frontier.pop()
        if current in seen or current not in project.functions:
            continue
        seen.add(current)
        frontier.extend(nested.get(current, ()))
        for site in graph.by_caller.get(current, ()):
            callee = site.callee
            if callee is None:
                continue
            if callee in project.classes:
                callee = f"{callee}.__init__"
            if callee in project.functions and callee not in seen:
                frontier.append(callee)
    return seen


# ----------------------------------------------------------- direct effects


def _dotted(expr: ast.expr) -> Optional[str]:
    parts: List[str] = []
    current = expr
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _env_var_name(project: Project, module: str, arg: ast.expr) -> str:
    """Best-effort name of the environment variable being read."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        resolved = project.resolve(module, arg.id)
        if resolved is not None and resolved in project.constants:
            value = project.constants[resolved]
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return value.value
    dotted = _dotted(arg)
    if dotted is not None:
        resolved = project.resolve(module, dotted)
        if resolved is not None and resolved in project.constants:
            value = project.constants[resolved]
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return value.value
    return "<dynamic>"


def _local_names(node: ast.AST) -> Set[str]:
    """Names bound locally in one function body (nested defs excluded)."""
    names: Set[str] = set()
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        names.add(arg.arg)

    def visit(parent: ast.AST) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Store
            ):
                names.add(child.id)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(child.target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
            visit(child)

    visit(node)
    return names


def _function_effects(
    project: Project, info: FunctionInfo
) -> List[EffectSite]:
    """Direct effect sites of one function body (nested defs excluded)."""
    sites: List[EffectSite] = []
    module = info.module
    declared_global: Set[str] = set()
    body_nodes: List[ast.AST] = []

    def collect(parent: ast.AST) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body_nodes.append(child)
            collect(child)

    collect(info.node)
    for node in body_nodes:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    locals_ = _local_names(info.node) - declared_global

    def add(kind: str, node: ast.AST, detail: str) -> None:
        sites.append(EffectSite(kind, module, info.qname, node, detail))

    for node in body_nodes:
        # ---- environment reads -------------------------------------
        if isinstance(node, ast.Call):
            target = _dotted(node.func)
            resolved = (
                project.resolve(module, target) or target
                if target is not None else None
            )
            if resolved is not None:
                if resolved == "os.getenv" or resolved.endswith(
                    "environ.get"
                ):
                    arg = node.args[0] if node.args else None
                    name = (
                        _env_var_name(project, module, arg)
                        if arg is not None else "<dynamic>"
                    )
                    add(ENV_READ, node, name)
                elif resolved in _RNG_CTORS or resolved.endswith(
                    _RNG_CTOR_SUFFIXES
                ):
                    if not node.args and not node.keywords:
                        add(RNG_UNSEEDED, node, resolved)
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ):
            base = _dotted(node.value)
            if base is not None and (
                base == "os.environ"
                or (project.resolve(module, base) or "") == "os.environ"
            ):
                add(ENV_READ, node,
                    _env_var_name(project, module, node.slice))

        # ---- module-global writes ----------------------------------
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and (
                    target.id in declared_global
                ):
                    add(GLOBAL_WRITE, node, f"{module}.{target.id}")
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = target.value
                    if isinstance(base, ast.Name) and (
                        base.id not in locals_
                    ):
                        qname = f"{module}.{base.id}"
                        if qname in project.constants:
                            add(GLOBAL_WRITE, node, qname)
    return sites


def direct_effects(project: Project) -> Dict[str, List[EffectSite]]:
    """Per-function direct effect sites for every project function."""
    return {
        qname: _function_effects(project, info)
        for qname, info in project.functions.items()
    }


# -------------------------------------------- None-default substitutions


@dataclass(frozen=True)
class Substitution:
    """A ``None``-defaulted parameter replaced downstream by a constant."""

    parameter: str  #: parameter name on the worker root
    function: str  #: qualified name where the substitution happens
    constant: str  #: qualified name of the substituted module constant
    node: ast.AST  #: the substituting expression/statement


def _constant_reference(
    project: Project, module: str, expr: ast.expr
) -> Optional[str]:
    """A module-level constant referenced by ``expr``, if any."""
    for node in ast.walk(expr):
        dotted: Optional[str] = None
        if isinstance(node, ast.Name):
            dotted = node.id
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
        if dotted is None:
            continue
        resolved = project.resolve(module, dotted)
        if resolved is not None and resolved in project.constants:
            return resolved
    return None


def _substitutions_in(
    project: Project, info: FunctionInfo, param: str
) -> List[Tuple[ast.AST, str]]:
    """``(node, constant)`` pairs replacing ``param`` when it is None."""
    found: List[Tuple[ast.AST, str]] = []

    def is_param(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Name) and expr.id == param

    def none_test(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and is_param(test.left)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )

    for node in ast.walk(info.node):
        replacement: Optional[ast.expr] = None
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            if node.values and is_param(node.values[0]):
                replacement = node.values[-1]
        elif isinstance(node, ast.IfExp) and none_test(node.test):
            replacement = node.body
        elif isinstance(node, ast.If) and none_test(node.test):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == param
                    for t in stmt.targets
                ):
                    replacement = stmt.value
        if replacement is None or is_param(replacement):
            continue
        constant = _constant_reference(project, info.module, replacement)
        if constant is not None:
            found.append((node, constant))
    return found


def none_default_substitutions(
    project: Project, graph: CallGraph, root: str
) -> List[Substitution]:
    """Substitutions of the root's ``None``-defaulted parameters.

    Each ``None``-defaulted parameter of ``root`` is threaded through call
    sites (an argument that is the bare parameter name aliases the
    callee's parameter) and every aliased function is searched for the
    ``x or DEFAULT`` / ``x if x is not None``-style substitution patterns
    that replace ``None`` with a module-level constant — the value the
    task actually consumed, invisible to a fingerprint that only ever saw
    ``None``.
    """
    info = project.functions.get(root)
    if info is None:
        return []
    none_params: List[str] = []
    args = info.node.args  # type: ignore[union-attr]
    positional = [*args.posonlyargs, *args.args]
    for arg, default in zip(
        positional[::-1], list(args.defaults)[::-1]
    ):
        if isinstance(default, ast.Constant) and default.value is None:
            none_params.append(arg.arg)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if (
            kw_default is not None
            and isinstance(kw_default, ast.Constant)
            and kw_default.value is None
        ):
            none_params.append(arg.arg)

    found: List[Substitution] = []
    for param in none_params:
        worklist: List[Tuple[str, str]] = [(root, param)]
        visited: Set[Tuple[str, str]] = set()
        while worklist:
            qname, alias = worklist.pop()
            if (qname, alias) in visited:
                continue
            visited.add((qname, alias))
            fn = project.functions.get(qname)
            if fn is None:
                continue
            for node, constant in _substitutions_in(project, fn, alias):
                found.append(Substitution(param, qname, constant, node))
            for site in graph.by_caller.get(qname, ()):
                callee = site.callee
                if callee is None or callee not in project.functions:
                    continue
                callee_info = project.functions[callee]
                bound = _bound_parameter(site.node, callee_info, alias)
                if bound is not None:
                    worklist.append((callee, bound))
    return found


def _bound_parameter(
    call: ast.Call, callee: FunctionInfo, alias: str
) -> Optional[str]:
    """Callee parameter receiving the bare name ``alias`` at ``call``."""
    for keyword in call.keywords:
        if (
            keyword.arg is not None
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id == alias
        ):
            return keyword.arg if keyword.arg in callee.params else None
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return None
        if isinstance(arg, ast.Name) and arg.id == alias:
            if index < len(callee.params):
                return callee.params[index]
    return None


# ----------------------------------------------------------------- helpers


def roots_by_qname(roots: Iterable[WorkerRoot]) -> Dict[str, WorkerRoot]:
    """First submission site per distinct worker function."""
    unique: Dict[str, WorkerRoot] = {}
    for root in roots:
        unique.setdefault(root.qname, root)
    return unique
