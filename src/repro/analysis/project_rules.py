"""Project-wide rule R11, driven by the inter-procedural engine.

Unlike R1 (one module at a time), R11 sees the whole project: the symbol
table and call graph (:mod:`repro.analysis.symbols`,
:mod:`repro.analysis.callgraph`) and the effect/provenance layer
(:mod:`repro.analysis.effects`).
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.analysis.core import Finding, ParsedModule
from repro.analysis.effects import (
    ENV_READ,
    direct_effects,
    find_worker_roots,
    none_default_substitutions,
    reachable_functions,
    roots_by_qname,
    waived_invariants,
)
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
                    yield module.finding(
                        self.code, info.node,
                        f"worker `{qname}` takes {star}{vararg.arg}; the "
                        "task fingerprint cannot see through argument "
                        "forwarding — use explicit parameters",
                    )
            for sub in none_default_substitutions(project, graph, qname):
                key = (qname, sub.parameter)
                if key in seen_subs:
                    continue
                seen_subs.add(key)
                yield module.finding(
                    self.code, info.node,
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
                    yield site_module.finding(
                        self.code, site.node,
                        f"env var `{site.detail}` read by `{fn}` (reachable "
                        f"from worker `{qname}`) is not part of the task "
                        "fingerprint and can diverge between host and "
                        "worker; key it or waive with "
                        f"`# repro: cache-invariant[{site.detail}]`",
                    )


#: Project-rule instances (appended to ALL_RULES).
PROJECT_RULES: Tuple[ProjectRule, ...] = (CacheKeyCompletenessRule(),)
