"""Tests for the profiling harness behind the CLI's ``--profile`` flag."""

import json

import pytest

from repro.perf import profile_call


class TestProfileCall:
    def test_writes_dump_and_summary(self, tmp_path):
        result, summary_path = profile_call(
            lambda: sum(range(1000)), tmp_path / "probe", label="probe"
        )
        assert result == sum(range(1000))
        summary = json.loads(summary_path.read_text())
        assert summary["label"] == "probe"
        assert summary["wall_seconds"] >= 0
        assert summary["top_cumulative"]
        assert (tmp_path / "probe.prof").is_file()

    def test_propagates_exceptions(self, tmp_path):
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            profile_call(boom, tmp_path / "boom")

    def test_dotted_stem_does_not_collapse_onto_sibling(self, tmp_path):
        """``fig08.bandit`` must emit fig08.bandit.{prof,json}, not
        overwrite a sibling profile named ``fig08``."""
        _, summary_path = profile_call(
            lambda: 1, tmp_path / "fig08.bandit", label="bandit"
        )
        assert summary_path.name == "fig08.bandit.json"
        assert (tmp_path / "fig08.bandit.prof").is_file()
        assert not (tmp_path / "fig08.prof").exists()
        assert not (tmp_path / "fig08.json").exists()
