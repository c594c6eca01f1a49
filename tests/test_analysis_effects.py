"""Tests for the effect/provenance layer and the rules built on it.

Covers worker-root discovery (``Task(...)`` and ``.submit(...)`` shapes),
per-function effect extraction, ``cache-invariant`` waiver parsing,
None-default substitution threading, and the project rules R11 (cache-key
completeness) and R12 (worker purity) — positive and negative cases each.
"""

from repro.analysis.callgraph import build_callgraph
from repro.analysis.effects import (
    ENV_READ,
    GLOBAL_WRITE,
    RNG_UNSEEDED,
    direct_effects,
    find_worker_roots,
    none_default_substitutions,
    reachable_functions,
    roots_by_qname,
    waived_invariants,
)
from repro.analysis.project_rules import (
    CacheKeyCompletenessRule,
    WorkerPurityRule,
)

from tests.test_analysis_project import lint_project, make_tree, project_of

FILES = {
    "pkg/__init__.py": "",
    "pkg/engine.py": """
        class Task:
            def __init__(self, fn, kwargs):
                self.fn = fn
                self.kwargs = kwargs
    """,
    "pkg/tasks.py": """
        import os
        import random

        from pkg.engine import Task

        DEFAULT_DEPTH = 4
        _MEMO = {}
        _COUNT = 0


        def clean_worker(n):
            return n + 1


        def env_worker(n):
            return n + int(os.environ.get("REPRO_KNOB", "0"))


        def waived_worker(n):
            # repro: cache-invariant[REPRO_GATE]
            flag = os.environ.get("REPRO_GATE")
            return n if flag else -n


        def star_worker(*args):
            return sum(args)


        def memo_worker(n):
            _MEMO[n] = n * 2
            return _MEMO[n]


        def counter_worker(n):
            global _COUNT
            _COUNT = _COUNT + n
            return _COUNT


        def rng_worker(n):
            stream = random.Random()
            return stream.random() + n


        def depth_worker(n, depth=None):
            return run(n, depth)


        def run(n, depth):
            depth = depth or DEFAULT_DEPTH
            return n * depth


        def nested_worker(n):
            def inner(m):
                return m + int(os.environ.get("REPRO_INNER", "0"))

            return inner(n)


        def schedule(pool):
            tasks = [
                Task(clean_worker, {"n": 1}),
                Task(env_worker, {"n": 1}),
                Task(waived_worker, {"n": 1}),
                Task(star_worker, {}),
                Task(memo_worker, {"n": 1}),
                Task(counter_worker, {"n": 1}),
                Task(fn=depth_worker, kwargs={"n": 1}),
                Task(nested_worker, {"n": 1}),
            ]
            future = pool.submit(rng_worker, 3)
            return tasks, future
    """,
}


def _analysis(tmp_path):
    project = project_of(make_tree(tmp_path, FILES))
    return project, build_callgraph(project)


# ---------------------------------------------------------- worker roots


class TestWorkerRoots:
    def test_task_and_submit_shapes(self, tmp_path):
        project, graph = _analysis(tmp_path)
        roots = roots_by_qname(find_worker_roots(project, graph))
        assert "pkg.tasks.clean_worker" in roots
        assert roots["pkg.tasks.clean_worker"].via == "Task"
        assert "pkg.tasks.rng_worker" in roots
        assert roots["pkg.tasks.rng_worker"].via == "submit"
        # fn= keyword submission is recognized too.
        assert "pkg.tasks.depth_worker" in roots
        # Non-submitted helpers are not roots.
        assert "pkg.tasks.run" not in roots
        assert "pkg.tasks.schedule" not in roots


# --------------------------------------------------------- direct effects


class TestDirectEffects:
    def test_kinds_and_details(self, tmp_path):
        project, _ = _analysis(tmp_path)
        effects = direct_effects(project)

        def kinds(qname):
            return {(s.kind, s.detail) for s in effects[qname]}

        assert kinds("pkg.tasks.clean_worker") == set()
        assert (ENV_READ, "REPRO_KNOB") in kinds("pkg.tasks.env_worker")
        assert (GLOBAL_WRITE, "pkg.tasks._MEMO") in kinds(
            "pkg.tasks.memo_worker"
        )
        assert (GLOBAL_WRITE, "pkg.tasks._COUNT") in kinds(
            "pkg.tasks.counter_worker"
        )
        assert (RNG_UNSEEDED, "random.Random") in kinds(
            "pkg.tasks.rng_worker"
        )

    def test_nested_def_effects_belong_to_inner(self, tmp_path):
        project, _ = _analysis(tmp_path)
        effects = direct_effects(project)
        # The outer body is clean; the env read lives in the closure.
        assert not any(
            s.kind == ENV_READ
            for s in effects["pkg.tasks.nested_worker"]
        )
        assert any(
            s.kind == ENV_READ and s.detail == "REPRO_INNER"
            for s in effects["pkg.tasks.nested_worker.inner"]
        )


# ----------------------------------------------------------- reachability


class TestReachability:
    def test_follows_calls_and_nesting(self, tmp_path):
        project, graph = _analysis(tmp_path)
        reach = reachable_functions(project, graph, "pkg.tasks.depth_worker")
        assert "pkg.tasks.run" in reach
        reach = reachable_functions(
            project, graph, "pkg.tasks.nested_worker"
        )
        assert "pkg.tasks.nested_worker.inner" in reach
        reach = reachable_functions(project, graph, "pkg.tasks.clean_worker")
        assert reach == {"pkg.tasks.clean_worker"}


# ---------------------------------------------------------------- waivers


class TestWaivers:
    def test_site_line_and_line_above(self, tmp_path):
        project, _ = _analysis(tmp_path)
        module = project.modules["pkg.tasks"]
        read_line = next(
            index + 1
            for index, text in enumerate(module.lines)
            if "REPRO_GATE" in text and "environ" in text
        )
        assert "REPRO_GATE" in waived_invariants(module, read_line)
        # The comment itself also waives its own line.
        assert "REPRO_GATE" in waived_invariants(module, read_line - 1)
        # Unrelated lines carry no waiver.
        assert waived_invariants(module, 1) == set()

    def test_comma_list_and_wildcard(self, tmp_path):
        tree = make_tree(tmp_path, {
            "m.py": """
                # repro: cache-invariant[A, B]
                x = 1
                # repro: cache-invariant[*]
                y = 2
            """,
        })
        module = project_of(tree).modules["m"]
        assert waived_invariants(module, 2) == {"A", "B"}
        assert "*" in waived_invariants(module, 4)


# -------------------------------------------- None-default substitutions


class TestNoneDefaultSubstitutions:
    def test_threads_through_bare_name_call(self, tmp_path):
        project, graph = _analysis(tmp_path)
        subs = none_default_substitutions(
            project, graph, "pkg.tasks.depth_worker"
        )
        assert any(
            s.parameter == "depth"
            and s.function == "pkg.tasks.run"
            and s.constant == "pkg.tasks.DEFAULT_DEPTH"
            for s in subs
        )

    def test_if_is_none_pattern(self, tmp_path):
        tree = make_tree(tmp_path, {
            "m.py": """
                LIMIT = 9


                def worker(cap=None):
                    if cap is None:
                        cap = LIMIT
                    return cap
            """,
        })
        project = project_of(tree)
        graph = build_callgraph(project)
        subs = none_default_substitutions(project, graph, "m.worker")
        assert [s.constant for s in subs] == ["m.LIMIT"]

    def test_explicit_default_is_not_flagged(self, tmp_path):
        tree = make_tree(tmp_path, {
            "m.py": """
                LIMIT = 9


                def worker(cap=LIMIT):
                    return cap
            """,
        })
        project = project_of(tree)
        graph = build_callgraph(project)
        assert none_default_substitutions(project, graph, "m.worker") == []


# --------------------------------------------------------------- R11 rule


class TestCacheKeyCompletenessRule:
    def findings(self, tmp_path):
        return lint_project(
            make_tree(tmp_path, FILES), [CacheKeyCompletenessRule()]
        )

    def test_unwaived_env_read_is_flagged(self, tmp_path):
        findings = self.findings(tmp_path)
        assert any(
            "REPRO_KNOB" in f.message and f.rule == "R11" for f in findings
        )
        # The closure's env read is reachable from its worker too.
        assert any("REPRO_INNER" in f.message for f in findings)

    def test_waived_env_read_is_not_flagged(self, tmp_path):
        findings = self.findings(tmp_path)
        assert not any("REPRO_GATE" in f.message for f in findings)

    def test_star_args_worker_is_flagged(self, tmp_path):
        findings = self.findings(tmp_path)
        assert any(
            "star_worker" in f.message and "*args" in f.message
            for f in findings
        )

    def test_none_default_substitution_is_flagged(self, tmp_path):
        findings = self.findings(tmp_path)
        assert any(
            "depth_worker" in f.message
            and "pkg.tasks.DEFAULT_DEPTH" in f.message
            for f in findings
        )

    def test_clean_worker_produces_no_finding(self, tmp_path):
        findings = self.findings(tmp_path)
        assert not any("clean_worker" in f.message for f in findings)

    def test_no_workers_means_no_findings(self, tmp_path):
        tree = make_tree(tmp_path, {
            "m.py": """
                import os


                def reader():
                    return os.environ.get("ANYTHING")
            """,
        })
        assert lint_project(tree, [CacheKeyCompletenessRule()]) == []


# --------------------------------------------------------------- R12 rule


class TestWorkerPurityRule:
    def findings(self, tmp_path):
        return lint_project(make_tree(tmp_path, FILES), [WorkerPurityRule()])

    def test_global_writes_are_flagged(self, tmp_path):
        findings = self.findings(tmp_path)
        assert any(
            f.rule == "R12" and "pkg.tasks._MEMO" in f.message
            for f in findings
        )
        assert any("pkg.tasks._COUNT" in f.message for f in findings)

    def test_unseeded_rng_is_flagged(self, tmp_path):
        findings = self.findings(tmp_path)
        assert any(
            "random.Random" in f.message and "no seed" in f.message
            for f in findings
        )

    def test_env_reads_are_r11_not_r12(self, tmp_path):
        findings = self.findings(tmp_path)
        assert not any("REPRO_KNOB" in f.message for f in findings)

    def test_ignore_marker_suppresses(self, tmp_path):
        files = dict(FILES)
        files["pkg/tasks.py"] = FILES["pkg/tasks.py"].replace(
            "_MEMO[n] = n * 2",
            "_MEMO[n] = n * 2  # repro: ignore[R12]",
        )
        findings = lint_project(
            make_tree(tmp_path, files), [WorkerPurityRule()]
        )
        assert not any("pkg.tasks._MEMO" in f.message for f in findings)

    def test_seeded_rng_is_not_flagged(self, tmp_path):
        tree = make_tree(tmp_path, {
            "engine.py": """
                class Task:
                    def __init__(self, fn, kwargs):
                        self.fn = fn
            """,
            "m.py": """
                import random

                from engine import Task


                def worker(seed):
                    return random.Random(seed).random()


                def schedule():
                    return Task(worker, {"seed": 1})
            """,
        })
        assert lint_project(tree, [WorkerPurityRule()]) == []
