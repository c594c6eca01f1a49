"""Per-layer attribution for the traced run, from outside the program.

The tracer wraps the public entry points of each layer where they are looked
up at call time, records one span per call (name, start, end, parent span,
iteration id) in memory, and restores every patch on exit. No per-record
function is wrapped, so tracing adds a few microseconds per task.

A layer's self time is the duration of its spans minus the time their child
spans cover. The harness opens one root span per iteration around the
figure call; its self time is the figure code itself (``figures.self_s``),
so the self times of one iteration sum to its duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: ``(module, attribute path, layer metric)`` for every wrapped entry point.
#: Names are patched in the namespace that looks them up: the figures
#: module's imported ``run_parallel``, the runner module's imported replay
#: and trace functions, class attributes, and the two kernels' module
#: attributes (both are imported at call time).
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.figures", "run_parallel", "runner.self_s"),
    ("repro.experiments.runner", "task_key", "runner.task_key_s"),
    ("repro.experiments.runner", "ResultCache.get", "runner.cache_get_s"),
    ("repro.experiments.runner", "ResultCache.put", "runner.cache_put_s"),
    ("repro.experiments.runner", "compiled_trace_for", "workloads.trace_s"),
    ("repro.experiments.runner", "run_fixed_prefetcher", "replay.self_s"),
    ("repro.experiments.runner", "run_fixed_arm", "replay.self_s"),
    ("repro.experiments.runner", "run_bandit_prefetch", "replay.self_s"),
    ("repro.core_model.trace_core", "TraceCore.run_compiled", "replay_kernel.s"),
    ("repro.core_model.lane_kernel", "run_lane_batch", "lane_kernel.s"),
    ("repro.experiments.runner", "run_smt_static", "smt.controller_s"),
    ("repro.experiments.runner", "run_smt_bandit", "smt.controller_s"),
    ("repro.core_model.smt_kernel", "run_smt_epochs_kernel", "smt_kernel.s"),
)

#: Layer metric of the root span the harness opens around each iteration.
ROOT_METRIC = "figures.self_s"

#: Every layer self-time metric, in report order.
LAYER_METRICS: Tuple[str, ...] = (ROOT_METRIC,) + tuple(
    dict.fromkeys(metric for _, _, metric in PATCHES)
)


class Tracer:
    """In-memory span recorder; each span is ``(name, start, end, parent, iteration)``.

    A span's slot is reserved when it opens and filled with a tuple of plain
    values when it closes; such tuples drop out of the garbage collector's
    tracking, so thousands of retained spans do not slow the traced program.
    """

    def __init__(self) -> None:
        self.spans: List[Any] = []
        self._stack: List[int] = []
        self._metric_of: Dict[str, str] = {"iteration": ROOT_METRIC}
        self.iteration = 0

    def wrap(self, name: str, metric: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call, attributed to ``metric``."""
        self._metric_of[name] = metric
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration)

        return traced

    def root(self, iteration: int) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator giving a call the root span of traced iteration ``iteration``."""
        self.iteration = iteration
        return lambda fn: self.wrap("iteration", ROOT_METRIC, fn)

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install every wrapper; restore the original objects on exit."""
        restore: List[Tuple[Any, str, Any]] = []
        try:
            for module_name, path, metric in PATCHES:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(f"{module_name}.{path}", metric, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def self_times(self, iteration: int) -> Dict[str, float]:
        """Summed self time per layer metric over one iteration's spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYER_METRICS, 0.0)
        for index, (name, start, end, _, span_iteration) in enumerate(self.spans):
            if span_iteration == iteration:
                totals[self._metric_of[name]] += end - start - child_time[index]
        return totals

    def records(self, iteration: int) -> List[Dict[str, Any]]:
        """One iteration's spans as JSON-ready dicts, times relative to its first."""
        chosen = [(index, span) for index, span in enumerate(self.spans)
                  if span[4] == iteration]
        origin = chosen[0][1][1] if chosen else 0.0
        return [
            dict(index=index, name=name, start=start - origin, end=end - origin,
                 parent=parent, iteration=span_iteration)
            for index, (name, start, end, parent, span_iteration) in chosen
        ]
