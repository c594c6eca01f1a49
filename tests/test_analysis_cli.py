"""End-to-end tests for ``python -m repro.analysis``: exit codes, the
summary table, the JSON report, and the baseline burn-down mechanism."""

import json

import pytest

from repro.analysis.baseline import (
    load_baseline,
    split_by_baseline,
    write_baseline,
)
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
        assert "new finding(s)" in out

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
        # The only finding is R1, so selecting R5 alone must come up clean.
        assert run_cli(tree, "--select", "R5") == 0
        assert run_cli(tree, "--select", "R1,R5") == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        codes = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert codes == {
            "R1", "R2", "R3", "R4", "R5", "R8", "R11", "R12", "R13",
        }


class TestParallelJobs:
    def test_jobs_matches_serial_run(self, tree, capsys):
        assert run_cli(tree) == 1
        serial = capsys.readouterr().out
        assert run_cli(tree, "--jobs", "2") == 1
        assert capsys.readouterr().out == serial

    def test_jobs_on_clean_tree(self, tree):
        (tree / "src" / "dirty.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        assert run_cli(tree, "--jobs", "2") == 0

    def test_nonpositive_jobs_is_serial(self, tree):
        assert run_cli(tree, "--jobs", "0") == 1


class TestJsonFormat:
    def test_json_report_round_trips(self, tree, capsys):
        assert run_cli(tree, "--select", "R1", "--format", "json") == 1
        document = json.loads(capsys.readouterr().out)
        assert document["new"] == 1
        assert document["baselined"] == 0
        assert document["counts"]["R1"] == {"new": 1, "baselined": 0}
        (finding,) = document["findings"]
        assert finding["rule"] == "R1"
        assert finding["baselined"] is False
        assert finding["path"] == "src/dirty.py"
        assert "random.random()" in finding["source_line"]

    def test_json_report_clean_exit(self, tree, capsys):
        (tree / "src" / "dirty.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        assert run_cli(tree, "--select", "R1,R5,R8", "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document["new"] == 0
        assert document["findings"] == []
        assert {r["code"] for r in document["rules"]} == {"R1", "R5", "R8"}


class TestBaseline:
    def test_write_then_pass(self, tree, capsys):
        baseline = tree / "baseline.json"
        assert run_cli(tree, "--baseline", str(baseline),
                       "--write-baseline") == 0
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert document["version"] == 1
        assert len(document["entries"]) == 1
        capsys.readouterr()

        # Baselined findings no longer fail, but stay visible in the table.
        assert run_cli(tree, "--baseline", str(baseline)) == 0
        assert "baselined" in capsys.readouterr().out

    def test_new_finding_still_fails_with_baseline(self, tree):
        baseline = tree / "baseline.json"
        run_cli(tree, "--baseline", str(baseline), "--write-baseline")
        (tree / "src" / "clean.py").write_text(
            "def check(x):\n    return x == 0.5\n", encoding="utf-8"
        )
        assert run_cli(tree, "--baseline", str(baseline)) == 1

    def test_editing_baselined_line_resurfaces_it(self, tree):
        baseline = tree / "baseline.json"
        run_cli(tree, "--baseline", str(baseline), "--write-baseline")
        (tree / "src" / "dirty.py").write_text(
            DIRTY_SOURCE.replace(
                "random.random()", "random.random() + random.random()"
            ),
            encoding="utf-8",
        )
        assert run_cli(tree, "--baseline", str(baseline)) == 1

    def test_missing_baseline_file_is_empty(self, tree):
        assert load_baseline(tree / "absent.json") == set()

    def test_malformed_baseline_rejected(self, tree):
        bad = tree / "bad.json"
        bad.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)
        bad.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_round_trip_and_split(self, tree):
        findings = run_analysis([tree / "src"], root=tree)
        assert findings
        baseline = tree / "baseline.json"
        write_baseline(baseline, findings)
        accepted = load_baseline(baseline)
        new, baselined = split_by_baseline(findings, accepted)
        assert new == []
        assert baselined == findings

    def test_write_baseline_requires_file(self, tree):
        with pytest.raises(SystemExit):
            run_cli(tree, "--write-baseline")

    def test_prune_requires_baseline(self, tree):
        with pytest.raises(SystemExit):
            run_cli(tree, "--prune")


class TestStaleBaseline:
    def _make_stale(self, tree):
        baseline = tree / "baseline.json"
        run_cli(tree, "--baseline", str(baseline), "--write-baseline")
        # Fixing the dirty module leaves its baseline entry matching no line.
        (tree / "src" / "dirty.py").write_text(CLEAN_SOURCE, encoding="utf-8")
        return baseline

    def test_stale_entries_warn_without_failing(self, tree, capsys):
        baseline = self._make_stale(tree)
        assert run_cli(tree, "--baseline", str(baseline)) == 0
        err = capsys.readouterr().err
        assert "no longer match" in err
        assert "--prune" in err
        # The file itself is untouched without --prune.
        assert len(json.loads(baseline.read_text())["entries"]) == 1

    def test_prune_drops_stale_entries(self, tree, capsys):
        baseline = self._make_stale(tree)
        assert run_cli(tree, "--baseline", str(baseline), "--prune") == 0
        out = capsys.readouterr()
        assert "pruned 1 stale" in out.out
        assert json.loads(baseline.read_text())["entries"] == []
        # A second prune finds nothing stale and stays quiet.
        assert run_cli(tree, "--baseline", str(baseline), "--prune") == 0
        assert "pruned" not in capsys.readouterr().out

    def test_deleted_file_makes_entry_stale(self, tree, capsys):
        baseline = tree / "baseline.json"
        run_cli(tree, "--baseline", str(baseline), "--write-baseline")
        (tree / "src" / "dirty.py").unlink()
        assert run_cli(tree, "--baseline", str(baseline), "--prune") == 0
        capsys.readouterr()
        assert json.loads(baseline.read_text())["entries"] == []

    def test_live_entries_survive_prune(self, tree, capsys):
        baseline = tree / "baseline.json"
        run_cli(tree, "--baseline", str(baseline), "--write-baseline")
        assert run_cli(tree, "--baseline", str(baseline), "--prune") == 0
        capsys.readouterr()
        assert len(json.loads(baseline.read_text())["entries"]) == 1


def test_relative_root_keeps_keys_machine_independent(tree):
    findings = run_analysis([tree / "src"], root=tree)
    assert all(f.path == "src/dirty.py" for f in findings)
    assert all(str(tree) not in f.key() for f in findings)
