"""README.md, EXPERIMENTS.md and the verify skill cite only numbers and
files that exist.

Two failure modes have shipped before: unfilled number placeholders (a
``PR<n>`` tag followed by a capitalized quantity name, meant to be
replaced by a measured value) and citations of files that were never
committed. These tests catch both.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]

#: Unfilled placeholders: a ``PR<n>`` tag fused to a capitalized quantity
#: name (``KERNEL``, ``SPEEDUP``), or a TBD/TODO/FIXME marker.
PLACEHOLDER = re.compile(r"\bPR\d+[A-Z]{2,}\b|\b(?:TBD|TODO|FIXME)\b")

#: Benchmark recordings, cited in prose or in code blocks.
BENCH_FILE = re.compile(r"\bBENCH_PR\d+\.json\b")

#: Inline code spans that name a file; a bare name means the repo root.
CODE_SPAN = re.compile(r"`([^`\s]+\.(?:json|txt|md|toml|cfg|yml|yaml|py))`")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def _text(name):
    return (ROOT / name).read_text(encoding="utf-8")


def _cited_file_exists(token):
    if any(char in token for char in "<>*"):
        return True  # a name pattern, not a file
    if "/" not in token:
        return (ROOT / token).is_file()
    return (ROOT / token).exists() or (ROOT / "src" / token).exists()


@pytest.mark.parametrize("name", DOCS)
def test_no_unfilled_placeholders(name):
    assert PLACEHOLDER.findall(_text(name)) == []


@pytest.mark.parametrize("name", DOCS)
def test_cited_bench_files_exist(name):
    missing = sorted(
        {cited for cited in BENCH_FILE.findall(_text(name))
         if not (ROOT / cited).is_file()}
    )
    assert missing == []


@pytest.mark.parametrize("name", DOCS)
def test_cited_files_exist(name):
    prose = FENCE.sub("", _text(name))
    missing = sorted(
        {token for token in CODE_SPAN.findall(prose)
         if not _cited_file_exists(token)}
    )
    assert missing == []
