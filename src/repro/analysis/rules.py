"""The per-module rule R1 of the fidelity linter.

Each rule is a small AST pass over one :class:`~repro.analysis.core.ParsedModule`.
Rules never execute the code under analysis; everything here is derived
from the syntax tree plus the import table of the module.

The project-wide rule R11 (cache-key completeness) lives in
:mod:`repro.analysis.project_rules`; it subclasses :class:`Rule` but runs
over the whole project symbol table at once.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.core import Finding, ParsedModule


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


#: The per-module rules. The engine and CLI append the project-wide rule
#: from :mod:`repro.analysis.project_rules`.
ALL_RULES: Tuple[Rule, ...] = (DeterminismRule(),)

#: Rule metadata for `--list-rules` and the summary table.
RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
