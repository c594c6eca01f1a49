"""Rule-level tests for the fidelity linter (repro.analysis rules R1-R5).

Each rule gets at least one fixture that must trigger it and one that must
stay clean, exercised through ``check_module`` exactly as the CLI does.
"""

import ast
import textwrap
from typing import List, Optional, Sequence

from repro.analysis.core import Finding, ParsedModule, check_module
from repro.analysis.rules import (
    ALL_RULES,
    RULES_BY_CODE,
    DeterminismRule,
    FloatEqualityRule,
    PaperConstantRule,
    PickleSafetyRule,
    Rule,
    StepHygieneRule,
)

#: In-scope display path for rules that are path-scoped (R2).
BANDIT_PATH = "src/repro/bandit/fixture.py"


def lint(
    source: str,
    path: str = BANDIT_PATH,
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


class TestPaperConstantRule:
    RULES = (PaperConstantRule(),)

    def test_flags_registered_literal_keyword(self):
        findings = lint(
            """
            def build(config_cls):
                return config_cls(num_arms=11, gamma=0.999)
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R2"]
        assert "gamma" in findings[0].message

    def test_flags_dataclass_field_default(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Params:
                exploration_c: float = 0.04
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R2"]

    def test_flags_function_defaults(self):
        findings = lint(
            """
            def run(gamma=0.975, *, epsilon=0.1):
                return gamma, epsilon
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R2", "R2"]

    def test_unregistered_value_is_clean(self):
        # 0.98 is the reproduction-scale gamma, not a Table 6 value.
        findings = lint("GAMMA = 0.98\n", rules=self.RULES)
        assert findings == []

    def test_unregistered_name_is_clean(self):
        # The value 0.04 is registered for `exploration_c`, not for
        # arbitrary names such as a workload's branch fraction.
        findings = lint("branch_fraction = 0.04\n", rules=self.RULES)
        assert findings == []

    def test_out_of_scope_path_is_clean(self):
        findings = lint(
            "gamma = 0.999\n",
            path="src/repro/workloads/fixture.py",
            rules=self.RULES,
        )
        assert findings == []

    def test_constants_module_is_exempt(self):
        findings = lint(
            "PREFETCH_GAMMA = 0.999\ngamma = 0.999\n",
            path="src/repro/constants.py",
            rules=self.RULES,
        )
        assert findings == []


class TestPickleSafetyRule:
    RULES = (PickleSafetyRule(),)

    def test_flags_lambda_task_fn(self):
        findings = lint(
            """
            def schedule(Task):
                return Task(lambda: 1, kwargs={})
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R3"]

    def test_flags_locally_defined_task_fn(self):
        findings = lint(
            """
            def schedule(Task):
                def work():
                    return 1
                return Task(work, kwargs={})
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R3"]
        assert "module-level" in findings[0].message

    def test_flags_bound_method_and_factory_call(self):
        findings = lint(
            """
            def schedule(Task, runner, make_fn):
                return [Task(runner.step), Task(fn=make_fn())]
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R3", "R3"]

    def test_flags_lambda_inside_run_parallel(self):
        findings = lint(
            """
            def fan_out(run_parallel, Task):
                return run_parallel([Task(fn) for fn in (lambda: 0,)])
            """,
            rules=self.RULES,
        )
        assert "R3" in codes(findings)

    def test_module_level_fn_is_clean(self):
        findings = lint(
            """
            def work():
                return 1

            def schedule(Task):
                return Task(work, kwargs={})
            """,
            rules=self.RULES,
        )
        assert findings == []


class TestStepHygieneRule:
    RULES = (StepHygieneRule(),)

    def test_flags_unflushed_observe_loop(self):
        findings = lint(
            """
            def replay(agent, rewards):
                for reward in rewards:
                    agent.select_arm()
                    agent.observe(reward)
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R4"]
        assert "replay" in findings[0].message

    def test_flags_unflushed_end_step_loop(self):
        findings = lint(
            """
            def replay(bandit, trace, counters):
                for record in trace:
                    bandit.end_step(counters())
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R4"]

    def test_flush_step_resolves(self):
        findings = lint(
            """
            def replay(bandit, trace, counters):
                for record in trace:
                    bandit.end_step(counters())
                bandit.flush_step(counters())
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_cancel_selection_resolves(self):
        findings = lint(
            """
            def replay(agent, rewards):
                for reward in rewards:
                    agent.observe(reward)
                if agent.awaiting_reward:
                    agent.cancel_selection()
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_flags_unfinished_controller_loop(self):
        findings = lint(
            """
            def replay(controller, core, trace, stats):
                for record in trace:
                    core.execute(record)
                    controller.on_record(
                        stats.l2_demand_accesses, core.counters()
                    )
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R4"]
        assert "finish()" in findings[0].message

    def test_controller_finish_resolves(self):
        findings = lint(
            """
            def replay(controller, core, trace, stats):
                for record in trace:
                    core.execute(record)
                    controller.on_record(
                        stats.l2_demand_accesses, core.counters()
                    )
                controller.finish(core.counters(), stats.l2_demand_accesses)
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_prefetcher_observe_is_not_a_trigger(self):
        # Prefetcher.observe(pc, block, cycle, hit) is a different protocol
        # from MABAlgorithm.observe(reward); only the 1-argument form counts.
        findings = lint(
            """
            def train(prefetcher, trace):
                for record in trace:
                    prefetcher.observe(record.pc, record.block, 0.0, True)
            """,
            rules=self.RULES,
        )
        assert findings == []


class TestFloatEqualityRule:
    RULES = (FloatEqualityRule(),)

    def test_flags_float_literal_comparison(self):
        findings = lint(
            """
            def check(ipc):
                return ipc == 0.5
            """,
            rules=self.RULES,
        )
        assert codes(findings) == ["R5"]

    def test_integer_comparison_is_clean(self):
        findings = lint(
            """
            def check(count):
                return count == 5 and count != 0
            """,
            rules=self.RULES,
        )
        assert findings == []


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

            noise = random.random()  # repro: ignore[R5]
            """,
        )
        assert codes(findings) == ["R1"]

    def test_bare_ignore_silences_everything(self):
        findings = lint(
            """
            import random

            def check(ipc):
                noise = random.random()
                return ipc == 0.5 or random.random()  # repro: ignore
            """,
        )
        # Both findings on the marked line (R5, R1) are silenced; the
        # unmarked draw one line up is not.
        assert codes(findings) == ["R1"]


def test_rule_catalogue_is_consistent():
    assert [rule.code for rule in ALL_RULES] == ["R1", "R2", "R3", "R4", "R5"]
    for code, rule in RULES_BY_CODE.items():
        assert rule.code == code
        assert rule.name
        assert rule.description
