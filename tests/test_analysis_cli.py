"""End-to-end tests for ``python -m repro.analysis``: exit codes, the
summary table, and the JSON report."""

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.core import run_analysis

DIRTY_SOURCE = """\
import random


def jitter():
    return random.random()
"""

CLEAN_SOURCE = """\
def double(value):
    return value * 2
"""


@pytest.fixture
def tree(tmp_path):
    """A small lintable tree with one dirty and one clean module."""
    package = tmp_path / "src"
    package.mkdir()
    (package / "dirty.py").write_text(DIRTY_SOURCE, encoding="utf-8")
    (package / "clean.py").write_text(CLEAN_SOURCE, encoding="utf-8")
    return tmp_path


def run_cli(tree, *extra):
    return main([str(tree / "src"), "--root", str(tree), *extra])


class TestExitCodes:
    def test_findings_exit_nonzero_with_summary(self, tree, capsys):
        assert run_cli(tree) == 1
        out = capsys.readouterr().out
        assert "src/dirty.py" in out
        assert "repro.analysis summary" in out
        assert "R1" in out
        assert "1 finding(s)" in out

    def test_clean_tree_exits_zero(self, tree, capsys):
        (tree / "src" / "dirty.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        assert run_cli(tree) == 0
        assert "0" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nope.txt"), "--root", str(tmp_path)]) == 2

    def test_syntax_error_is_usage_error(self, tree):
        (tree / "src" / "dirty.py").write_text("def broken(:\n")
        assert run_cli(tree) == 2

    def test_unknown_rule_selection_rejected(self, tree):
        with pytest.raises(SystemExit):
            run_cli(tree, "--select", "R99")

    def test_select_limits_rules(self, tree):
        # The only finding is R1, so selecting R11 alone must come up clean.
        assert run_cli(tree, "--select", "R11") == 0
        assert run_cli(tree, "--select", "R1,R11") == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        codes = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert codes == {"R1", "R11"}


class TestJsonFormat:
    def test_json_report_round_trips(self, tree, capsys):
        assert run_cli(tree, "--select", "R1", "--format", "json") == 1
        document = json.loads(capsys.readouterr().out)
        assert document["total"] == 1
        assert document["counts"] == {"R1": 1}
        (finding,) = document["findings"]
        assert finding["rule"] == "R1"
        assert finding["path"] == "src/dirty.py"
        assert "random.random()" in finding["source_line"]

    def test_json_report_clean_exit(self, tree, capsys):
        (tree / "src" / "dirty.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        assert run_cli(tree, "--select", "R1,R11", "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document["total"] == 0
        assert document["findings"] == []
        assert {r["code"] for r in document["rules"]} == {"R1", "R11"}


def test_relative_root_keeps_keys_machine_independent(tree):
    findings = run_analysis([tree / "src"], root=tree)
    assert findings
    assert all(f.path == "src/dirty.py" for f in findings)
