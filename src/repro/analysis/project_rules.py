"""Project-wide rules R8, R11 and R12, driven by the inter-procedural engine.

Unlike R1–R5 and R13 (one module at a time), these rules see the whole
project: the symbol table and call graph (:mod:`repro.analysis.symbols`,
:mod:`repro.analysis.callgraph`), the seed dataflow classifier
(:mod:`repro.analysis.dataflow`), and the effect/provenance layer
(:mod:`repro.analysis.effects`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.analysis.core import Finding, ParsedModule
from repro.analysis.dataflow import Origin, classify_seed_expr
from repro.analysis.rules import Rule
from repro.analysis.symbols import Project


class ProjectRule(Rule):
    """A rule that checks the whole project instead of one module.

    ``check`` (the per-module entry point) is a no-op; the engine calls
    :meth:`check_project` once after the symbol table is built.
    """

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


def _finding(
    module: ParsedModule, rule: str, node: ast.AST, message: str
) -> Finding:
    return module.finding(rule, node, message)


# ------------------------------------------------------------------ R8


#: RNG constructors whose seed argument R8 traces. Matched on the resolved
#: qualified name.
_RNG_CONSTRUCTORS = ("random.Random",)
_RNG_CONSTRUCTOR_SUFFIXES = (".default_rng",)

#: Approved-root calls whose *arguments* are still checked for entropy.
_SEED_DERIVERS = ("derive_seed", "make_rng")


class SeedProvenanceRule(ProjectRule):
    """R8: every RNG seed must trace back to derive_seed or a config seed.

    For each ``random.Random(seed)`` / ``numpy.random.default_rng(seed)``
    construction — and each ``derive_seed``/``make_rng`` call — the seed
    expression is classified through assignments, parameters (followed to
    every caller through the call graph), module constants, and wrapper
    returns. Forbidden entropy (``hash()``, wall clock, ``os.urandom``,
    ``os.getpid``, ``id()``, uuid/secrets) anywhere in the flow is a
    finding, as is a flow with no approved origin at all.
    """

    code = "R8"
    name = "seed-provenance"
    description = "RNG seeds not traceable to derive_seed/config (dataflow)"

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = build_callgraph(project)
        for site in graph.sites:
            callee = site.callee
            if callee is None:
                continue
            module = project.modules[site.module]
            if callee == "random.SystemRandom" or callee.endswith(
                ".SystemRandom"
            ):
                yield _finding(
                    module, self.code, site.node,
                    "`random.SystemRandom` draws OS entropy; simulations "
                    "must use seeded `random.Random` streams",
                )
                continue
            is_ctor = callee in _RNG_CONSTRUCTORS or callee.endswith(
                _RNG_CONSTRUCTOR_SUFFIXES
            )
            is_deriver = callee.rsplit(".", 1)[-1] in _SEED_DERIVERS
            if not is_ctor and not is_deriver:
                continue
            seed_args = [
                *site.node.args,
                *[kw.value for kw in site.node.keywords],
            ]
            if is_ctor and not seed_args:
                continue  # unseeded construction is R1's finding
            scope = project.functions.get(site.caller)
            for argument in seed_args:
                origins = classify_seed_expr(
                    project, graph, site.module, scope, argument
                )
                yield from self._judge(
                    module, site.node, callee, origins, is_deriver
                )

    def _judge(
        self,
        module: ParsedModule,
        node: ast.Call,
        callee: str,
        origins: Set[Origin],
        is_deriver: bool,
    ) -> Iterator[Finding]:
        bad = sorted(o[4:] for o in origins if o.startswith("bad:"))
        target = callee.rsplit(".", 1)[-1]
        if bad:
            yield _finding(
                module, self.code, node,
                f"seed flowing into `{target}(...)` comes from "
                f"{'; '.join(bad)}; derive it via "
                "repro.util.rng.derive_seed from a config seed",
            )
            return
        if is_deriver:
            return  # approved root; only tainted arguments matter
        if not origins & {"derived", "literal", "config"}:
            yield _finding(
                module, self.code, node,
                f"seed of `{target}(...)` cannot be traced to "
                "repro.util.rng.derive_seed, a literal, or a config seed "
                "through any caller; thread an explicit seed through",
            )


# ------------------------------------------------------------------ R11


class CacheKeyCompletenessRule(ProjectRule):
    """R11: every input a pool worker consumes must reach its cache key.

    ``task_key`` fingerprints a worker function's qualified name plus the
    kwargs it was submitted with. Anything else that influences the
    result — an environment variable read somewhere down the worker's
    call tree, or a ``None``-defaulted parameter silently replaced by a
    module constant after the key was computed — makes two different
    computations share a fingerprint, and a cached figure goes stale
    without a single test failing. Three checks:

    - workers taking ``*args``/``**kwargs`` (the fingerprint cannot see
      through forwarding);
    - env-var reads reachable from a worker body, unless waived with
      ``# repro: cache-invariant[NAME]`` on or above the reading line
      (for gates whose paths are provably equivalent, e.g. the
      sanitizer-verified kernel toggles);
    - ``None``-defaulted worker parameters substituted downstream with a
      module-level constant (``x or DEFAULT`` and friends) — the value
      the task actually used never reached the key.
    """

    code = "R11"
    name = "cache-key-completeness"
    description = "worker inputs invisible to the task_key fingerprint"

    def check_project(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.effects import (
            ENV_READ,
            direct_effects,
            find_worker_roots,
            none_default_substitutions,
            reachable_functions,
            roots_by_qname,
            waived_invariants,
        )

        graph = build_callgraph(project)
        roots = roots_by_qname(find_worker_roots(project, graph))
        if not roots:
            return
        effects = direct_effects(project)
        seen_env: Set[Tuple[str, int, int, str]] = set()
        seen_subs: Set[Tuple[str, str]] = set()
        for qname in sorted(roots):
            info = project.functions[qname]
            module = project.modules[info.module]
            args = info.node.args  # type: ignore[union-attr]
            for vararg, star in ((args.vararg, "*"), (args.kwarg, "**")):
                if vararg is not None:
                    yield _finding(
                        module, self.code, info.node,
                        f"worker `{qname}` takes {star}{vararg.arg}; the "
                        "task fingerprint cannot see through argument "
                        "forwarding — use explicit parameters",
                    )
            for sub in none_default_substitutions(project, graph, qname):
                key = (qname, sub.parameter)
                if key in seen_subs:
                    continue
                seen_subs.add(key)
                yield _finding(
                    module, self.code, info.node,
                    f"parameter `{sub.parameter}` of worker `{qname}` "
                    f"defaults to None and is replaced with "
                    f"`{sub.constant}` inside `{sub.function}`; the "
                    "substituted value never reaches the task fingerprint "
                    "— make the real default explicit at the worker",
                )
            for fn in sorted(reachable_functions(project, graph, qname)):
                for site in effects.get(fn, ()):
                    if site.kind != ENV_READ:
                        continue
                    site_module = project.modules[site.module]
                    waived = waived_invariants(
                        site_module, site.node.lineno
                    )
                    if site.detail in waived or "*" in waived:
                        continue
                    key = (
                        site.module, site.node.lineno,
                        site.node.col_offset, site.detail,
                    )
                    if key in seen_env:
                        continue
                    seen_env.add(key)
                    yield _finding(
                        site_module, self.code, site.node,
                        f"env var `{site.detail}` read by `{fn}` (reachable "
                        f"from worker `{qname}`) is not part of the task "
                        "fingerprint and can diverge between host and "
                        "worker; key it or waive with "
                        f"`# repro: cache-invariant[{site.detail}]`",
                    )


# ------------------------------------------------------------------ R12


class WorkerPurityRule(ProjectRule):
    """R12: pool workers must not mutate shared state or spawn ambient RNG.

    The effect layer (:mod:`repro.analysis.effects`) lists every
    function's module-global writes and unseeded RNG constructions; any
    function reachable from a pool submission site that *writes a
    module-level binding* is flagged — the write lands in the
    worker process and silently vanishes (or, under a fork start method,
    leaks between tasks). Unseeded RNG construction in a worker's call
    tree is likewise flagged: every stream must trace to ``derive_seed``
    (seeded constructions are already proven by R8, project-wide, so the
    worker case is subsumed). A deliberate per-process memo can be
    acknowledged with ``# repro: ignore[R12]`` on the writing line.
    """

    code = "R12"
    name = "worker-purity"
    description = "pool workers writing shared state or spawning ambient RNG"

    def check_project(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.effects import (
            GLOBAL_WRITE,
            RNG_UNSEEDED,
            direct_effects,
            find_worker_roots,
            reachable_functions,
            roots_by_qname,
        )

        graph = build_callgraph(project)
        roots = roots_by_qname(find_worker_roots(project, graph))
        if not roots:
            return
        effects = direct_effects(project)
        reported: Set[Tuple[str, int, str]] = set()
        for qname in sorted(roots):
            for fn in sorted(reachable_functions(project, graph, qname)):
                for site in effects.get(fn, ()):
                    if site.kind not in (GLOBAL_WRITE, RNG_UNSEEDED):
                        continue
                    key = (site.module, site.node.lineno, site.detail)
                    if key in reported:
                        continue
                    reported.add(key)
                    site_module = project.modules[site.module]
                    if site.kind == GLOBAL_WRITE:
                        yield _finding(
                            site_module, self.code, site.node,
                            f"`{fn}` (reachable from worker `{qname}`) "
                            f"writes module global `{site.detail}`; pool "
                            "workers must not mutate shared state — return "
                            "the value instead, or mark a deliberate "
                            "per-process memo with `# repro: ignore[R12]`",
                        )
                    else:
                        yield _finding(
                            site_module, self.code, site.node,
                            f"`{fn}` (reachable from worker `{qname}`) "
                            f"constructs `{site.detail}` with no seed; "
                            "worker RNG streams must derive from "
                            "repro.util.rng.derive_seed",
                        )


#: Project-rule instances, in code order (appended to ALL_RULES).
PROJECT_RULES: Tuple[ProjectRule, ...] = (
    SeedProvenanceRule(),
    CacheKeyCompletenessRule(),
    WorkerPurityRule(),
)
