"""Tests for the inter-procedural engine.

Covers the symbol table and call graph (pass 1/2) and a clean run of every
project rule over the real source tree.
"""

import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_callgraph
from repro.analysis.core import run_analysis
from repro.analysis.project_rules import PROJECT_RULES
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


class TestCallGraph:
    def test_sites_and_caller_edges(self, tmp_path):
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
        sites = graph.by_caller.get("mod.caller", [])
        assert [site.callee for site in sites] == ["mod.callee"]

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
        sites = graph.by_caller.get("mod.Runner.run", [])
        assert [site.callee for site in sites] == ["mod.Runner.step"]


def test_real_tree_is_clean_under_project_rules():
    """The shipped tree passes every project rule."""
    findings = run_analysis(
        [REPO_ROOT / "src"], rules=PROJECT_RULES, root=REPO_ROOT
    )
    assert findings == []
