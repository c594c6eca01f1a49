"""Tests for the reporting helpers."""

import pytest

from repro.experiments.reporting import format_summary_table, format_table
from repro.util.stats import Summary


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["name", "ipc"], [["bwaves", 1.5], ["mcf", 0.2]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "bwaves" in lines[2]
        assert "0.2" in lines[3]

    def test_title(self):
        text = format_table(["a"], [[1]], title="Table 8")
        assert text.splitlines()[0] == "Table 8"

    def test_wide_cells_expand_columns(self):
        text = format_table(["x"], [["averyverylongvalue"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("averyverylongvalue")

    def test_short_rows_padded(self):
        text = format_table(["a", "b", "c"], [["x"], ["y", "z"]])
        lines = text.splitlines()
        assert lines[2].rstrip() == "x"
        assert "z" in lines[3]
        # Every rendered row aligns with the full header width.
        assert all(len(line) <= len(lines[1]) for line in lines[2:])

    def test_long_rows_rejected(self):
        with pytest.raises(ValueError, match="4 cells"):
            format_table(["a", "b", "c"], [["1", "2", "3", "4"]])

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [[], ["x", "y"]])
        assert "x" in text


class TestSummaryTable:
    def test_rows_and_columns(self):
        text = format_summary_table(
            {"DUCB": Summary(95.0, 101.6, 99.1), "UCB": Summary(88.6, 100.0, 98.8)}
        )
        assert "DUCB" in text
        assert "gmean" in text
        assert "99.1" in text
