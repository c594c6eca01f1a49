"""The per-module rule set R1–R5 of the fidelity linter.

Each rule is a small AST pass over one :class:`~repro.analysis.core.ParsedModule`.
Rules never execute the code under analysis; everything here is derived
from the syntax tree plus the import table of the module.

The project-wide rules R8, R11 and R12 (seed provenance, cache-key
completeness, worker purity) live in :mod:`repro.analysis.project_rules`;
they subclass :class:`Rule` but run over the whole project symbol table at
once. The dtype-contract rule R13 lives in :mod:`repro.analysis.dtype_rules`.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ParsedModule
from repro.constants import PAPER_CONSTANTS


class Rule:
    """One static check. Subclasses set the metadata and implement check()."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------- import tracking


class ImportTable:
    """Which local names refer to the modules/objects the rules care about."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}  # local name -> module path
        self.object_aliases: Dict[str, str] = {}  # local name -> "module.attr"
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.object_aliases[local] = f"{node.module}.{alias.name}"

    def resolves_to_module(self, name: str, module: str) -> bool:
        return self.module_aliases.get(name) == module

    def object_target(self, name: str) -> Optional[str]:
        return self.object_aliases.get(name)


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# ------------------------------------------------------------------ R1


#: ``random`` module functions that draw from (or reseed) the *ambient*
#: module-level generator. ``random.Random`` is excluded: constructing an
#: explicitly seeded instance is exactly what this rule steers code toward.
_AMBIENT_RANDOM_FNS = {
    "random", "randrange", "randint", "randbytes", "uniform", "choice",
    "choices", "shuffle", "sample", "seed", "getrandbits", "expovariate",
    "gauss", "normalvariate", "betavariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate", "gammavariate",
    "binomialvariate",
}

_WALL_CLOCK_TIME_FNS = {"time", "time_ns"}
_WALL_CLOCK_DT_FNS = {"now", "utcnow", "today"}


class DeterminismRule(Rule):
    """R1: simulation code must be a pure function of its seeds.

    Flags ambient ``random.*`` calls, unseeded ``random.Random()``,
    ``np.random`` usage, wall-clock reads (``time.time``,
    ``datetime.now``), salted ``hash()`` seeding, and iteration over set
    expressions (whose order varies with ``PYTHONHASHSEED``).
    """

    code = "R1"
    name = "determinism"
    description = "ambient RNG, wall clock, hash() seeding, set iteration"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, imports, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_np_random(module, imports, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_set_iteration(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_set_iteration(module, generator.iter)

    def _check_call(
        self, module: ParsedModule, imports: ImportTable, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        # random.<fn>(...) on the random module itself.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if imports.resolves_to_module(base, "random"):
                if attr in _AMBIENT_RANDOM_FNS:
                    yield module.finding(
                        self.code, node,
                        f"call to ambient `random.{attr}()`; draw from an "
                        "explicitly seeded stream (repro.util.rng.make_rng)",
                    )
                elif attr in ("Random", "SystemRandom") and not node.args:
                    yield module.finding(
                        self.code, node,
                        f"`random.{attr}()` without a seed is "
                        "nondeterministic; seed it from config",
                    )
            if imports.resolves_to_module(base, "time") and (
                attr in _WALL_CLOCK_TIME_FNS
            ):
                yield module.finding(
                    self.code, node,
                    f"wall-clock `time.{attr}()` in simulation code; "
                    "simulated time must come from the simulator clock",
                )
            if attr in _WALL_CLOCK_DT_FNS:
                # datetime.now(...) via `from datetime import datetime`.
                if (
                    isinstance(func.value, ast.Name)
                    and imports.object_target(func.value.id)
                    in ("datetime.datetime", "datetime.date")
                ):
                    yield module.finding(
                        self.code, node,
                        f"wall-clock `{func.value.id}.{attr}()` in "
                        "simulation code",
                    )
        # datetime.datetime.now(...) via `import datetime`.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _WALL_CLOCK_DT_FNS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and imports.resolves_to_module(func.value.value.id, "datetime")
            and func.value.attr in ("datetime", "date")
        ):
            yield module.finding(
                self.code, node,
                f"wall-clock `datetime.{func.value.attr}.{func.attr}()` "
                "in simulation code",
            )
        if isinstance(func, ast.Name):
            target = imports.object_target(func.id)
            # `from random import random/randrange/...` then bare call.
            if target is not None and target.startswith("random."):
                fn = target.split(".", 1)[1]
                if fn in _AMBIENT_RANDOM_FNS:
                    yield module.finding(
                        self.code, node,
                        f"call to ambient `random.{fn}()` (imported as "
                        f"`{func.id}`); use a seeded stream",
                    )
                elif fn in ("Random", "SystemRandom") and not node.args:
                    yield module.finding(
                        self.code, node,
                        f"`{func.id}()` (random.{fn}) without a seed is "
                        "nondeterministic; seed it from config",
                    )
            if target == "time.time" or target == "time.time_ns":
                yield module.finding(
                    self.code, node,
                    f"wall-clock `{target}()` in simulation code",
                )
            if func.id == "hash" and target is None:
                yield module.finding(
                    self.code, node,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED); derive seeds via "
                    "repro.util.rng.derive_seed instead",
                )

    def _check_np_random(
        self, module: ParsedModule, imports: ImportTable, node: ast.Attribute
    ) -> Iterator[Finding]:
        # np.random / numpy.random attribute chains.
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and imports.resolves_to_module(node.value.id, "numpy")
        ):
            yield module.finding(
                self.code, node,
                "`numpy.random` uses global state; use a seeded "
                "`numpy.random.Generator` created once from config",
            )

    def _check_set_iteration(
        self, module: ParsedModule, iterable: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            yield module.finding(
                self.code, iterable,
                "iteration over a set expression: order varies with "
                "PYTHONHASHSEED; sort it or use a sequence",
            )
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        ):
            yield module.finding(
                self.code, iterable,
                f"iteration over `{iterable.func.id}(...)`: order varies "
                "with PYTHONHASHSEED; use sorted(...) instead",
            )


# ------------------------------------------------------------------ R2


#: Path fragments that scope R2: the modules that realize Tables 6/7.
_R2_SCOPE = ("bandit/", "smt/", "experiments/")


class PaperConstantRule(Rule):
    """R2: Table 6/7 values must be imported from :mod:`repro.constants`.

    Flags ``name=<literal>`` bindings (call keywords, annotated dataclass
    field defaults, plain assignments) where ``name`` is a registered
    parameter and the literal equals a registered paper value.
    """

    code = "R2"
    name = "paper-constants"
    description = "Table 6/7 literals re-typed instead of repro.constants"

    def __init__(
        self, registry: Optional[Dict[str, FrozenSet[float]]] = None
    ) -> None:
        self.registry = PAPER_CONSTANTS if registry is None else registry

    def _in_scope(self, path: str) -> bool:
        if path.endswith("constants.py"):
            return False
        return any(fragment in path for fragment in _R2_SCOPE)

    def _is_paper_literal(self, name: str, node: ast.expr) -> bool:
        if not isinstance(node, ast.Constant):
            return False
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        allowed = self.registry.get(name)
        return allowed is not None and value in allowed

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if not self._in_scope(module.path):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg and self._is_paper_literal(
                        keyword.arg, keyword.value
                    ):
                        yield self._finding(module, keyword.value, keyword.arg)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.value is not None
                    and self._is_paper_literal(node.target.id, node.value)
                ):
                    yield self._finding(module, node.value, node.target.id)
            elif isinstance(node, ast.Assign):
                if (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._is_paper_literal(node.targets[0].id, node.value)
                ):
                    yield self._finding(module, node.value, node.targets[0].id)
            elif isinstance(node, ast.arg):
                continue
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(module, node)

    def _check_defaults(
        self, module: ParsedModule, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        positional = node.args.posonlyargs + node.args.args
        for arg, default in zip(positional[::-1], node.args.defaults[::-1]):
            if default is not None and self._is_paper_literal(arg.arg, default):
                yield self._finding(module, default, arg.arg)
        for arg, kw_default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if kw_default is not None and self._is_paper_literal(
                arg.arg, kw_default
            ):
                yield self._finding(module, kw_default, arg.arg)

    def _finding(
        self, module: ParsedModule, node: ast.expr, name: str
    ) -> Finding:
        return module.finding(
            self.code, node,
            f"paper constant `{name}` re-typed inline; import the value "
            "from repro.constants (single source for Table 6/7)",
        )


# ------------------------------------------------------------------ R3


class PickleSafetyRule(Rule):
    """R3: parallel task functions must be module-level (picklable by ref).

    Flags lambdas, locally defined functions, and bound methods passed as
    the ``fn`` of ``Task(...)`` or inside ``run_parallel(...)`` calls.
    """

    code = "R3"
    name = "pickle-safety"
    description = "non-picklable task fns handed to the parallel runner"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        local_defs = self._local_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _call_name(node)
            if callee == "Task":
                fn_arg = self._task_fn_argument(node)
                if fn_arg is not None:
                    yield from self._check_fn(module, fn_arg, local_defs)
            elif callee == "run_parallel":
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Lambda):
                            yield module.finding(
                                self.code, sub,
                                "lambda inside a run_parallel task list "
                                "cannot be pickled into a worker",
                            )

    @staticmethod
    def _task_fn_argument(node: ast.Call) -> Optional[ast.expr]:
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "fn":
                return keyword.value
        return None

    @staticmethod
    def _local_function_names(tree: ast.Module) -> Set[str]:
        """Names of defs/lambda-assignments nested inside another function."""
        local: Set[str] = set()

        def visit(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if inside_function:
                        local.add(child.name)
                    visit(child, True)
                elif isinstance(child, ast.Assign) and isinstance(
                    child.value, ast.Lambda
                ):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            local.add(target.id)
                    visit(child, inside_function)
                else:
                    visit(child, inside_function)

        visit(tree, False)
        return local

    def _check_fn(
        self, module: ParsedModule, fn_arg: ast.expr, local_defs: Set[str]
    ) -> Iterator[Finding]:
        if isinstance(fn_arg, ast.Lambda):
            yield module.finding(
                self.code, fn_arg,
                "lambda task fn cannot be pickled into a worker; define a "
                "module-level function",
            )
        elif isinstance(fn_arg, ast.Name) and fn_arg.id in local_defs:
            yield module.finding(
                self.code, fn_arg,
                f"task fn `{fn_arg.id}` is defined inside a function; "
                "workers pickle task fns by reference, so it must be "
                "module-level",
            )
        elif isinstance(fn_arg, ast.Attribute):
            yield module.finding(
                self.code, fn_arg,
                "bound-method task fn; pass a module-level function and "
                "its inputs as picklable kwargs instead",
            )
        elif isinstance(fn_arg, ast.Call):
            yield module.finding(
                self.code, fn_arg,
                "task fn built by a call (closure/partial) is not "
                "picklable by reference; use a module-level function",
            )


# ------------------------------------------------------------------ R4


class StepHygieneRule(Rule):
    """R4: replay loops that train a bandit must flush the trailing step.

    A loop body that calls ``<agent>.observe(reward)`` (single-argument
    form), ``<bandit>.end_step(...)`` or a prefetch controller's
    ``on_record(...)`` leaves a selection awaiting its reward when the
    loop exits early or the trace runs out; the enclosing function must
    therefore also reach ``flush_step()``, ``cancel_selection()`` or the
    controller's ``finish()`` on some path.
    """

    code = "R4"
    name = "step-hygiene"
    description = "replay loops with observe()/end_step()/on_record() but no flush"

    #: Loop calls that leave a step open; ``observe`` counts only in its
    #: one-argument (reward) form, checked separately.
    _TRIGGERS = ("end_step", "on_record")
    _RESOLUTIONS = ("flush_step", "cancel_selection", "finish")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _method_calls(self, node: ast.AST) -> Set[str]:
        calls: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                calls.add(sub.func.attr)
        return calls

    def _trigger_in_loop(self, loop: ast.AST) -> Optional[ast.Call]:
        for sub in ast.walk(loop):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                name = sub.func.attr
                if name in self._TRIGGERS:
                    return sub
                if (
                    name == "observe"
                    and len(sub.args) == 1
                    and not sub.keywords
                ):
                    return sub
        return None

    def _check_function(
        self,
        module: ParsedModule,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        resolutions = self._method_calls(function)
        if any(name in resolutions for name in self._RESOLUTIONS):
            return
        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                trigger = self._trigger_in_loop(node)
                if trigger is not None:
                    yield module.finding(
                        self.code, trigger,
                        f"replay loop in `{function.name}` trains the "
                        "bandit but the function never reaches "
                        "flush_step()/cancel_selection()/finish(); the "
                        "trailing partial step is dropped",
                    )
                    break


# ------------------------------------------------------------------ R5


class FloatEqualityRule(Rule):
    """R5: ``==``/``!=`` against float literals is a fidelity hazard."""

    code = "R5"
    name = "float-equality"
    description = "exact comparison against float literals"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands: List[ast.expr] = [node.left, *node.comparators]
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                    for operand in operands
                ):
                    yield module.finding(
                        self.code, node,
                        "exact ==/!= against a float literal; use "
                        "math.isclose or an integer representation",
                    )
                    break


#: The per-module rules, in code order. The engine and CLI append the
#: project-wide rules from :mod:`repro.analysis.project_rules`.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    PaperConstantRule(),
    PickleSafetyRule(),
    StepHygieneRule(),
    FloatEqualityRule(),
)

#: Rule metadata for `--list-rules` and the summary table.
RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
