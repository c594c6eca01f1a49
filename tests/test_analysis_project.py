"""Tests for the inter-procedural engine and the seed-provenance rule R8.

Covers the symbol table and call graph (pass 1/2), the seed-provenance
dataflow classifier and rule, and a clean run of every project rule over
the real source tree.
"""

import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_callgraph
from repro.analysis.core import run_analysis
from repro.analysis.dataflow import classify_seed_expr
from repro.analysis.project_rules import PROJECT_RULES, SeedProvenanceRule
from repro.analysis.symbols import build_project

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path, files):
    """Write ``{relative_path: source}`` under ``tmp_path / 'src'``."""
    for relative, source in files.items():
        target = tmp_path / "src" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def project_of(tmp_path):
    return build_project([tmp_path / "src"], root=tmp_path)


def lint_project(tmp_path, rules):
    return run_analysis([tmp_path / "src"], rules=rules, root=tmp_path)


# --------------------------------------------------------------- pass 1/2


class TestSymbolTable:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/util.py": """
            LIMIT = 8


            def helper(value):
                return value + LIMIT


            class Box:
                def get(self):
                    return helper(1)
        """,
        "pkg/main.py": """
            from pkg.util import helper as h

            import pkg.util


            def entry(seed):
                return h(seed)
        """,
    }

    def test_definitions_and_constants(self, tmp_path):
        project = project_of(make_tree(tmp_path, self.FILES))
        assert "pkg" in project.packages
        assert "pkg.util.helper" in project.functions
        assert "pkg.util.Box.get" in project.functions
        assert project.functions["pkg.util.Box.get"].class_name == "Box"
        assert "pkg.util.LIMIT" in project.constants
        assert project.functions["pkg.main.entry"].params == ("seed",)

    def test_import_alias_resolution(self, tmp_path):
        project = project_of(make_tree(tmp_path, self.FILES))
        assert project.resolve("pkg.main", "h") == "pkg.util.helper"
        assert project.resolve("pkg.main", "pkg.util.LIMIT") == "pkg.util.LIMIT"
        assert project.resolve("pkg.main", "nowhere") is None
        # `import pkg.util` also binds the head package name.
        assert project.import_graph["pkg.main"] >= {"pkg.util"}

    def test_path_index_uses_display_paths(self, tmp_path):
        project = project_of(make_tree(tmp_path, self.FILES))
        module = project.module_for_path("src/pkg/util.py")
        assert module is not None and module.path == "src/pkg/util.py"

    def test_cache_round_trip(self, tmp_path):
        tree = make_tree(tmp_path, self.FILES)
        cache = tmp_path / "cache"
        first = build_project([tree / "src"], root=tree, cache_dir=cache)
        entries = list(cache.glob("symtab-*.pkl"))
        assert len(entries) == 1
        second = build_project([tree / "src"], root=tree, cache_dir=cache)
        assert set(second.functions) == set(first.functions)
        # An edit changes the content hash: a new entry appears.
        (tree / "src" / "pkg" / "util.py").write_text(
            "LIMIT = 9\n", encoding="utf-8"
        )
        build_project([tree / "src"], root=tree, cache_dir=cache)
        assert len(list(cache.glob("symtab-*.pkl"))) == 2

    def test_cache_invalidates_when_analyzer_changes(
        self, tmp_path, monkeypatch
    ):
        """The cache key folds in a digest of the analyzer's own sources,
        so upgrading the engine can never serve a stale symbol table."""
        import repro.analysis.symbols as symbols

        tree = make_tree(tmp_path, self.FILES)
        cache = tmp_path / "cache"
        build_project([tree / "src"], root=tree, cache_dir=cache)
        assert len(list(cache.glob("symtab-*.pkl"))) == 1
        monkeypatch.setattr(symbols, "_engine_digest", lambda: "0" * 16)
        build_project([tree / "src"], root=tree, cache_dir=cache)
        assert len(list(cache.glob("symtab-*.pkl"))) == 2


class TestCallGraph:
    def test_sites_and_reverse_edges(self, tmp_path):
        tree = make_tree(tmp_path, {
            "mod.py": """
                def callee(seed):
                    return seed


                def caller():
                    return callee(41)
            """,
        })
        project = project_of(tree)
        graph = build_callgraph(project)
        callers = graph.callers_of.get("mod.callee", [])
        assert [site.caller for site in callers] == ["mod.caller"]

    def test_method_call_through_self(self, tmp_path):
        tree = make_tree(tmp_path, {
            "mod.py": """
                class Runner:
                    def step(self, seed):
                        return seed

                    def run(self):
                        return self.step(3)
            """,
        })
        graph = build_callgraph(project_of(tree))
        callers = graph.callers_of.get("mod.Runner.step", [])
        assert [site.caller for site in callers] == ["mod.Runner.run"]


class TestDataflow:
    def classify(self, tmp_path, files, module, function, argument_of):
        """Origins of the first argument of the named call in ``function``."""
        import ast

        project = project_of(make_tree(tmp_path, files))
        graph = build_callgraph(project)
        scope = project.functions[f"{module}.{function}"]
        for node in ast.walk(scope.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == argument_of
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == argument_of
            ):
                return classify_seed_expr(
                    project, graph, module, scope, node.args[0]
                )
        raise AssertionError(f"no call to {argument_of} in {function}")

    def test_literal_and_derive_seed(self, tmp_path):
        files = {
            "mod.py": """
                import random

                from repro.util.rng import derive_seed


                def fresh(seed):
                    return random.Random(derive_seed(seed, "x"))


                def fixed():
                    return random.Random(1234)
            """,
        }
        assert self.classify(
            tmp_path, files, "mod", "fresh", "Random"
        ) == {"derived"}
        assert self.classify(
            tmp_path, files, "mod", "fixed", "Random"
        ) == {"literal"}

    def test_parameter_follows_callers(self, tmp_path):
        files = {
            "mod.py": """
                import random
                import time


                def make(seed):
                    return random.Random(seed)


                def bad_entry():
                    return make(int(time.time()))
            """,
        }
        origins = self.classify(tmp_path, files, "mod", "make", "Random")
        assert any(o.startswith("bad:") for o in origins)
        assert any("wall clock" in o for o in origins)

    def test_uncalled_seed_parameter_is_config(self, tmp_path):
        files = {
            "mod.py": """
                import random


                def make(base_seed):
                    return random.Random(base_seed)
            """,
        }
        assert self.classify(
            tmp_path, files, "mod", "make", "Random"
        ) == {"config"}


# -------------------------------------------------------------------- R8


class TestSeedProvenanceRule:
    RULES = (SeedProvenanceRule(),)

    def r8(self, tmp_path, files):
        findings = lint_project(make_tree(tmp_path, files), self.RULES)
        assert all(f.rule == "R8" for f in findings)
        return findings

    def test_hash_seed_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random


                def make(name):
                    return random.Random(hash(name))
            """,
        })
        assert len(findings) == 1
        assert "hash" in findings[0].message

    def test_system_random_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random

                rng = random.SystemRandom()
            """,
        })
        assert len(findings) == 1
        assert "SystemRandom" in findings[0].message

    def test_entropy_laundered_into_deriver_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import os

                from repro.util.rng import derive_seed


                def make():
                    return derive_seed(os.getpid(), "stream")
            """,
        })
        assert len(findings) == 1
        assert "os.getpid" in findings[0].message

    def test_untraceable_seed_is_flagged(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random


                def make(knob):
                    return random.Random(knob)


                def entry(payload):
                    return make(payload.version)
            """,
        })
        assert len(findings) == 1
        assert "cannot be traced" in findings[0].message

    def test_default_rng_checked_too(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import time

                import numpy as np


                def make():
                    return np.random.default_rng(int(time.time_ns()))
            """,
        })
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_clean_flows_pass(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random

                from repro.util.rng import derive_seed

                DEFAULT_SEED = 1234


                def fresh(seed):
                    return random.Random(derive_seed(seed, "x"))


                def from_constant():
                    return random.Random(DEFAULT_SEED)


                def unseeded():
                    return random.Random()


                def entry(config_seed):
                    return fresh(config_seed)
            """,
        })
        assert findings == []

    def test_inline_suppression_applies(self, tmp_path):
        findings = self.r8(tmp_path, {
            "mod.py": """
                import random


                def make(name):
                    return random.Random(hash(name))  # repro: ignore[R8]
            """,
        })
        assert findings == []


def test_real_tree_is_clean_under_project_rules():
    """The shipped tree passes every project rule."""
    findings = run_analysis(
        [REPO_ROOT / "src"], rules=PROJECT_RULES, root=REPO_ROOT
    )
    assert findings == []
