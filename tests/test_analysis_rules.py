"""Rule-level tests for the fidelity linter's per-module rule R1.

Each check gets a fixture that must trigger it and one that must stay
clean, exercised through ``check_module`` exactly as the CLI does.
"""

import ast
import textwrap
from typing import List, Optional, Sequence

from repro.analysis.core import Finding, ParsedModule, check_module
from repro.analysis.rules import (
    ALL_RULES,
    RULES_BY_CODE,
    DeterminismRule,
    Rule,
)


def lint(
    source: str,
    path: str = "src/repro/fixture.py",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    source = textwrap.dedent(source)
    module = ParsedModule(
        path=path,
        source=source,
        lines=source.splitlines(),
        tree=ast.parse(source),
    )
    return check_module(module, ALL_RULES if rules is None else rules)


def codes(findings: Sequence[Finding]) -> List[str]:
    return [finding.rule for finding in findings]


class TestDeterminismRule:
    RULES = (DeterminismRule(),)

    def test_flags_ambient_random_call(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random()
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R1"]
        assert "ambient" in findings[0].message

    def test_flags_from_import_ambient_call(self):
        findings = lint(
            """
            from random import randint

            def roll():
                return randint(1, 6)
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R1"]

    def test_flags_unseeded_random_instance(self):
        findings = lint(
            """
            import random

            rng = random.Random()
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R1"]

    def test_seeded_random_instance_is_clean(self):
        findings = lint(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_flags_wall_clock(self):
        findings = lint(
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R1", "R1"]

    def test_flags_builtin_hash(self):
        findings = lint(
            """
            def seed_for(context):
                return hash(context) & 0xFFFF
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R1"]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_flags_set_iteration(self):
        findings = lint(
            """
            def order(items):
                for item in set(items):
                    yield item
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R1"]

    def test_sorted_set_iteration_is_clean(self):
        findings = lint(
            """
            def order(items):
                seen = set(items)
                for item in sorted(seen):
                    yield item
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_flags_numpy_random(self):
        findings = lint(
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
            rules=self.RULES,
        )
        assert "R1" in codes(findings)


class TestSuppression:
    def test_ignore_comment_silences_a_finding(self):
        findings = lint(
            """
            import random

            noise = random.random()  # repro: ignore[R1]
            """,
        )
        assert findings == []

    def test_ignore_with_other_code_does_not_silence(self):
        findings = lint(
            """
            import random

            noise = random.random()  # repro: ignore[R11]
            """,
        )
        assert codes(findings) == ["R1"]

    def test_bare_ignore_silences_everything(self):
        findings = lint(
            """
            import random
            import time

            def check(ipc):
                noise = random.random()
                return time.time() or random.random()  # repro: ignore
            """,
        )
        # Both findings on the marked line are silenced; the unmarked
        # draw one line up is not.
        assert codes(findings) == ["R1"]


def test_rule_catalogue_is_consistent():
    assert [rule.code for rule in ALL_RULES] == ["R1"]
    for code, rule in RULES_BY_CODE.items():
        assert rule.code == code
        assert rule.name
        assert rule.description
