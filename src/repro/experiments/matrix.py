"""Declarative scenario-matrix engine: axis grids expanded to frozen tasks.

The paper's evaluation is inherently a *grid* — workload suite x prefetcher
lineup x bandit algorithm x scale x replicate seed — yet the per-figure
fanouts started life as hand-written nested loops. This module makes the
grid a first-class value:

- :class:`MatrixSpec` — an ordered set of named axes plus GitHub-Actions
  style ``include``/``exclude`` filters, frozen and hashable.
- :func:`expand` — the deterministic point list of a spec: the cartesian
  product in axis-declaration order (last axis fastest), minus excluded
  points, plus included ones, in that order. Expansion is a pure function
  of the spec, so two processes expanding the same spec submit the same
  task list in the same order.
- scenario bindings — :func:`prefetch_task_for_point` /
  :func:`smt_task_for_point` map one point to the *same frozen*
  :class:`~repro.experiments.runner.Task` the hand-enumerated fanouts in
  :mod:`repro.experiments.figures` used to build (same function, same
  kwargs, same label, same cache key), so the figures become matrix
  instances without perturbing a single cached result.
- :func:`run_prefetch_matrix` — the self-contained sweep behind the
  ``matrix`` CLI subcommand: expands a spec, derives the per-workload
  bandit step length from a no-prefetch baseline pass (exactly like the
  figures do), executes everything through :func:`run_parallel`, and
  returns per-point rows.

Scenario grammar (the ``scenario`` axis): a comparator prefetcher name
(``none``/``stride``/``bingo``/``mlop``/``pythia``/...), ``arm<K>`` for the
K-th fixed Table 7 ensemble arm, ``bandit`` for the paper's default DUCB
controller, or a Table 8 lineup row (``Single``/``Periodic``/``eGreedy``/
``UCB``/``DUCB``) for an alternative algorithm. The SMT grammar mirrors it
with PG-policy arms (``arm<K>``), ``choi``, ``icount``, a raw policy
mnemonic, ``bandit``, and the Table 9 lineup rows.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace as dc_replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    TABLE8_ALGORITHM_NAMES,
    PrefetchBanditParams,
    scaled_prefetch_params,
)
from repro.experiments.runner import (
    Task,
    bandit_prefetch_task,
    fixed_arm_task,
    fixed_prefetcher_task,
    run_parallel,
    smt_bandit_task,
    smt_static_task,
)
from repro.uncore.hierarchy import HierarchyConfig

#: Axis values must be canonical scalars: they flow into cache keys and
#: JSON specs unchanged.
AxisValue = Union[None, bool, int, float, str]

#: One expanded matrix point: ``{axis name: value}`` in axis order.
Point = Dict[str, AxisValue]

#: The two axes every scenario binding reads.
WORKLOAD_AXIS = "workload"
SCENARIO_AXIS = "scenario"

_ARM_SCENARIO = re.compile(r"arm(\d+)\Z")


def _freeze_point(
    point: Mapping[str, AxisValue], order: Sequence[str]
) -> Tuple[Tuple[str, AxisValue], ...]:
    """``point`` as a tuple of pairs following the axis declaration order."""
    return tuple((name, point[name]) for name in order if name in point)


@dataclass(frozen=True)
class MatrixSpec:
    """A compact sweep description: axes plus include/exclude filters.

    Construct via :meth:`build` (keyword-friendly, validates) or
    :meth:`from_dict` (JSON spec files); the raw tuple layout exists only
    to keep the dataclass frozen and hashable.

    - ``axes`` — ordered ``(name, values)`` pairs. Expansion order is the
      cartesian product with the *last* declared axis varying fastest.
    - ``exclude`` — partial assignments; a product point matching every
      pair of an entry is dropped.
    - ``include`` — full assignments appended after the filtered product,
      in declaration order. Includes are exempt from ``exclude`` (they are
      explicit opt-ins) and may carry values outside the declared axis
      lists — that is how one-off corner points enter a sweep.
    """

    axes: Tuple[Tuple[str, Tuple[AxisValue, ...]], ...]
    include: Tuple[Tuple[Tuple[str, AxisValue], ...], ...] = ()
    exclude: Tuple[Tuple[Tuple[str, AxisValue], ...], ...] = ()

    @classmethod
    def build(
        cls,
        axes: Union[
            Mapping[str, Sequence[AxisValue]],
            Sequence[Tuple[str, Sequence[AxisValue]]],
        ],
        include: Sequence[Mapping[str, AxisValue]] = (),
        exclude: Sequence[Mapping[str, AxisValue]] = (),
    ) -> "MatrixSpec":
        """Validating constructor from mappings/sequences.

        Rejects empty or duplicate axes, duplicate values within an axis,
        filters naming unknown axes, exclude values outside the declared
        axis values (such a filter can never match — always a typo), and
        include entries that do not assign every axis.
        """
        pairs = list(axes.items()) if isinstance(axes, Mapping) else list(axes)
        if not pairs:
            raise ValueError("matrix spec needs at least one axis")
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names!r}")
        frozen_axes: List[Tuple[str, Tuple[AxisValue, ...]]] = []
        for name, values in pairs:
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            if len(set(values)) != len(values):
                raise ValueError(f"axis {name!r} repeats a value: {values!r}")
            frozen_axes.append((name, values))
        by_name = dict(frozen_axes)
        for entry in exclude:
            for key, value in entry.items():
                if key not in by_name:
                    raise ValueError(f"exclude names unknown axis {key!r}")
                if value not in by_name[key]:
                    raise ValueError(
                        f"exclude value {value!r} is not on axis {key!r}; "
                        "it could never match"
                    )
        for entry in include:
            missing = set(names) - set(entry)
            if missing:
                raise ValueError(
                    f"include entry {dict(entry)!r} must assign every axis; "
                    f"missing {sorted(missing)!r}"
                )
            extra = set(entry) - set(names)
            if extra:
                raise ValueError(
                    f"include entry names unknown axes {sorted(extra)!r}"
                )
        return cls(
            axes=tuple(frozen_axes),
            include=tuple(_freeze_point(entry, names) for entry in include),
            exclude=tuple(
                _freeze_point(entry, names) for entry in exclude
            ),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MatrixSpec":
        """Parse the JSON spec format (see EXPERIMENTS.md).

        ``{"axes": {name: [values...]}, "include": [{...}], "exclude":
        [{...}]}`` — any other top-level key is rejected so typos fail
        loudly instead of silently shrinking a sweep.
        """
        unknown = set(payload) - {"axes", "include", "exclude"}
        if unknown:
            raise ValueError(f"unknown matrix spec keys {sorted(unknown)!r}")
        if "axes" not in payload:
            raise ValueError("matrix spec is missing 'axes'")
        return cls.build(
            axes=payload["axes"],
            include=payload.get("include", ()),
            exclude=payload.get("exclude", ()),
        )

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def without_axes(self, *names: str) -> "MatrixSpec":
        """The sub-matrix over the remaining axes (for baseline passes).

        Only legal while no include/exclude entry mentions a removed axis:
        a filter on a dropped axis has no well-defined projection.
        """
        removed = set(names)
        unknown = removed - set(self.axis_names)
        if unknown:
            raise KeyError(sorted(unknown))
        for entry in self.include + self.exclude:
            touched = removed & {key for key, _ in entry}
            if touched:
                raise ValueError(
                    f"cannot drop axes {sorted(touched)!r}: an include/"
                    "exclude entry mentions them"
                )
        return MatrixSpec(
            axes=tuple(
                (name, values)
                for name, values in self.axes
                if name not in removed
            ),
            include=self.include,
            exclude=self.exclude,
        )


def expand(spec: MatrixSpec) -> List[Point]:
    """The deterministic point list of ``spec``.

    Cartesian product in axis order (last axis fastest), excludes applied
    as subset matches, includes appended afterwards in declaration order.
    A duplicate point (include colliding with the product or another
    include) raises: a silently repeated task would double-count in every
    consumer that walks results positionally.
    """
    names = spec.axis_names
    excludes = [dict(entry) for entry in spec.exclude]
    points: List[Point] = []
    for combo in itertools.product(*(values for _, values in spec.axes)):
        point = dict(zip(names, combo))
        if any(
            all(point[key] == value for key, value in entry.items())
            for entry in excludes
        ):
            continue
        points.append(point)
    seen = {_freeze_point(point, names) for point in points}
    for entry in spec.include:
        frozen = _freeze_point(dict(entry), names)
        if frozen in seen:
            raise ValueError(
                f"include entry {dict(entry)!r} duplicates an existing point"
            )
        seen.add(frozen)
        points.append(dict(entry))
    return points


def matrix_size(spec: MatrixSpec) -> int:
    """``len(expand(spec))`` without materializing task objects."""
    return len(expand(spec))


# ======================================================= scenario bindings


def default_label(prefix: str, point: Point) -> str:
    """``prefix:v1:v2:...`` over the point's values in axis order."""
    values = ":".join(_format_axis_value(value) for value in point.values())
    return f"{prefix}:{values}" if prefix else values


def _format_axis_value(value: AxisValue) -> str:
    # %g keeps float axis labels short (2400.0 -> "2400"), matching the
    # hand-written fig10 labels.
    return f"{value:g}" if isinstance(value, float) else str(value)


def prefetch_task_for_point(
    point: Point,
    *,
    trace_length: int,
    params: Optional[PrefetchBanditParams] = None,
    seed: int = 0,
    label: str = "",
    hierarchy_config: Optional[HierarchyConfig] = None,
    algorithm_gamma: Optional[float] = None,
) -> Task:
    """The frozen prefetch Task for one matrix point.

    Dispatches on the ``scenario`` axis value (see the module docstring
    grammar). ``hierarchy_config=None`` omits the kwarg so the task
    carries the worker's default — byte-for-byte what the hand-enumerated
    fanouts submitted (defaults are folded into the cache key either way;
    see :func:`repro.experiments.runner.task_key`). ``params`` is only
    consulted for bandit scenarios; fixed replays ignore it. Per-point
    ``trace_length``/``seed`` axis values override the call-level ones, so
    scale and replicate-seed axes need no special casing.
    """
    scenario = str(point[SCENARIO_AXIS])
    workload = str(point[WORKLOAD_AXIS])
    trace_length = int(point.get("trace_length", trace_length))  # type: ignore[arg-type]
    seed = int(point.get("seed", seed))  # type: ignore[arg-type]
    kwargs: Dict[str, Any] = dict(
        spec_name=workload, trace_length=trace_length, seed=seed,
    )
    arm_match = _ARM_SCENARIO.match(scenario)
    if arm_match:
        kwargs["arm"] = int(arm_match.group(1))
        # Reorder to match best_static_arm_tasks' historical kwargs layout
        # (cosmetic only — dict equality and cache keys ignore order).
        kwargs = dict(
            spec_name=workload, trace_length=trace_length,
            arm=kwargs["arm"], seed=seed,
        )
        if hierarchy_config is not None:
            kwargs["hierarchy_config"] = hierarchy_config
        return Task(fixed_arm_task, kwargs, label=label)
    if scenario == "bandit" or scenario in TABLE8_ALGORITHM_NAMES:
        if params is None:
            raise ValueError(
                f"scenario {scenario!r} needs bandit params; pass params= "
                "or params_for= (derived from a no-prefetch baseline)"
            )
        kwargs["params"] = params
        if scenario != "bandit":
            kwargs["algorithm_name"] = scenario
            if algorithm_gamma is not None:
                kwargs["algorithm_gamma"] = algorithm_gamma
        if hierarchy_config is not None:
            kwargs["hierarchy_config"] = hierarchy_config
        return Task(bandit_prefetch_task, kwargs, label=label)
    if scenario != "none":
        kwargs["prefetcher_name"] = scenario
    if hierarchy_config is not None:
        kwargs["hierarchy_config"] = hierarchy_config
    return Task(fixed_prefetcher_task, kwargs, label=label)


def prefetch_matrix_tasks(
    spec: MatrixSpec,
    *,
    trace_length: int,
    seed: int = 0,
    params_for: Optional[Callable[[Point], PrefetchBanditParams]] = None,
    label_for: Optional[Callable[[Point], str]] = None,
    hierarchy_for: Optional[Callable[[Point], Optional[HierarchyConfig]]] = None,
    algorithm_gamma: Optional[float] = None,
    label_prefix: str = "matrix",
) -> List[Task]:
    """Expand ``spec`` into its frozen prefetch task list.

    ``params_for``/``hierarchy_for``/``label_for`` are per-point hooks so
    figure fanouts can thread baseline-derived step lengths, per-point
    hierarchies (e.g. a ``dram_mtps`` axis), and their historical label
    schemes through the expansion. ``params_for`` is invoked lazily, only
    for bandit scenarios.
    """
    tasks: List[Task] = []
    for point in expand(spec):
        scenario = str(point[SCENARIO_AXIS])
        needs_params = (
            scenario == "bandit" or scenario in TABLE8_ALGORITHM_NAMES
        )
        tasks.append(prefetch_task_for_point(
            point,
            trace_length=trace_length,
            seed=seed,
            params=params_for(point) if needs_params and params_for else None,
            label=(label_for(point) if label_for
                   else default_label(label_prefix, point)),
            hierarchy_config=hierarchy_for(point) if hierarchy_for else None,
            algorithm_gamma=algorithm_gamma,
        ))
    return tasks


def smt_task_for_point(
    point: Point,
    *,
    scale: Any,
    seed: int = 0,
    label: str = "",
) -> Task:
    """The frozen SMT Task for one matrix point.

    The ``workload`` axis holds a ``first-second`` mix string (SMT thread
    profile names never contain ``-``); the ``scenario`` axis holds
    ``arm<K>`` (K-th :data:`~repro.smt.pg_policy.BANDIT_PG_ARMS` member),
    ``choi``, ``icount``, a raw PG-policy mnemonic, ``bandit`` (the
    paper's DUCB controller), or a Table 9 lineup row.
    """
    from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY, ICOUNT_POLICY

    scenario = str(point[SCENARIO_AXIS])
    first, second = str(point[WORKLOAD_AXIS]).split("-", 1)
    names = (first, second)
    seed = int(point.get("seed", seed))  # type: ignore[arg-type]
    if scenario == "bandit" or scenario in TABLE8_ALGORITHM_NAMES:
        kwargs: Dict[str, Any] = dict(
            thread_names=names, scale=scale, seed=seed,
        )
        if scenario != "bandit":
            kwargs = dict(
                thread_names=names, scale=scale,
                algorithm_name=scenario, seed=seed,
            )
        return Task(smt_bandit_task, kwargs, label=label)
    arm_match = _ARM_SCENARIO.match(scenario)
    if arm_match:
        mnemonic = BANDIT_PG_ARMS[int(arm_match.group(1))].mnemonic
    elif scenario == "choi":
        mnemonic = CHOI_POLICY.mnemonic
    elif scenario == "icount":
        mnemonic = ICOUNT_POLICY.mnemonic
    else:
        mnemonic = scenario
    return Task(
        smt_static_task,
        dict(thread_names=names, policy_mnemonic=mnemonic,
             scale=scale, seed=seed),
        label=label,
    )


def smt_matrix_tasks(
    spec: MatrixSpec,
    *,
    scale: Any,
    seed: int = 0,
    label_for: Optional[Callable[[Point], str]] = None,
    label_prefix: str = "matrix",
) -> List[Task]:
    """Expand ``spec`` into its frozen SMT task list."""
    return [
        smt_task_for_point(
            point, scale=scale, seed=seed,
            label=(label_for(point) if label_for
                   else default_label(label_prefix, point)),
        )
        for point in expand(spec)
    ]


# ===================================================== self-contained sweep


def expand_workload_values(
    values: Sequence[AxisValue],
) -> Tuple[str, ...]:
    """Resolve ``suite:<name>`` workload-axis entries to suite members.

    Lets a spec say ``{"workload": ["suite:spec06_like"]}`` instead of
    enumerating members; plain names pass through untouched, order is
    preserved, and duplicates (a member listed both ways) are rejected.
    """
    from repro.workloads.suites import ALL_SUITES

    resolved: List[str] = []
    for value in values:
        name = str(value)
        if name.startswith("suite:"):
            suite = name[len("suite:"):]
            if suite not in ALL_SUITES:
                raise ValueError(
                    f"unknown suite {suite!r}; have {sorted(ALL_SUITES)!r}"
                )
            resolved.extend(spec.name for spec in ALL_SUITES[suite])
        else:
            resolved.append(name)
    if len(set(resolved)) != len(resolved):
        raise ValueError(f"workload axis repeats a member: {resolved!r}")
    return tuple(resolved)


@dataclass(frozen=True)
class MatrixRow:
    """One executed matrix point: the point, its IPC, and the baseline."""

    point: Tuple[Tuple[str, AxisValue], ...]
    ipc: float
    base_ipc: float

    @property
    def normalized_ipc(self) -> float:
        return self.ipc / self.base_ipc if self.base_ipc else float("nan")


def run_prefetch_matrix(
    spec: MatrixSpec,
    *,
    trace_length: int = 10_000,
    seed: int = 0,
    algorithm_gamma: Optional[float] = None,
) -> List[MatrixRow]:
    """Execute a prefetch scenario matrix end to end.

    Phase 1 runs one no-prefetch baseline per distinct (workload,
    trace_length, seed, dram_mtps) combination the points touch — the
    baseline both normalizes the reported IPC and derives the bandit step
    length (:func:`scaled_prefetch_params`), exactly as the figure
    fanouts do. Phase 2 submits every point through
    :func:`run_parallel`, so ``--jobs``/result-cache behaviour matches
    the figure commands.
    """
    points = expand(spec)
    BaseKey = Tuple[str, int, int, Optional[float]]

    def base_key(point: Point) -> BaseKey:
        return (
            str(point[WORKLOAD_AXIS]),
            int(point.get("trace_length", trace_length)),  # type: ignore[arg-type]
            int(point.get("seed", seed)),  # type: ignore[arg-type]
            (float(point["dram_mtps"])  # type: ignore[arg-type]
             if "dram_mtps" in point else None),
        )

    def hierarchy_for(point: Point) -> Optional[HierarchyConfig]:
        if "dram_mtps" in point:
            return dc_replace(
                BASELINE_HIERARCHY_CONFIG,
                dram_mtps=float(point["dram_mtps"]),  # type: ignore[arg-type]
            )
        return None

    base_keys: List[BaseKey] = []
    for point in points:
        key = base_key(point)
        if key not in base_keys:
            base_keys.append(key)
    base_tasks = []
    for workload, length, point_seed, mtps in base_keys:
        kwargs: Dict[str, Any] = dict(
            spec_name=workload, trace_length=length, seed=point_seed,
        )
        label = f"matrix:{workload}:none"
        if mtps is not None:
            kwargs["hierarchy_config"] = dc_replace(
                BASELINE_HIERARCHY_CONFIG, dram_mtps=mtps
            )
            label = f"matrix:{mtps:g}:{workload}:none"
        base_tasks.append(Task(fixed_prefetcher_task, kwargs, label=label))
    bases = dict(zip(base_keys, run_parallel(base_tasks)))

    def params_for(point: Point) -> PrefetchBanditParams:
        base = bases[base_key(point)]
        return scaled_prefetch_params(base.stats.l2_demand_accesses)

    tasks = prefetch_matrix_tasks(
        spec,
        trace_length=trace_length,
        seed=seed,
        params_for=params_for,
        hierarchy_for=hierarchy_for,
        algorithm_gamma=algorithm_gamma,
    )
    results = run_parallel(tasks)
    return [
        MatrixRow(
            point=_freeze_point(point, spec.axis_names),
            ipc=result.ipc,
            base_ipc=bases[base_key(point)].ipc,
        )
        for point, result in zip(points, results)
    ]
