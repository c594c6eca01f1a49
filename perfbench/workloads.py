"""The six pinned benchmark workloads: what one iteration runs, and its work.

Each workload is one call into :mod:`repro.experiments.figures` at a fixed
size. The workload seed (``--seed``) is the figure's ``seed`` argument: it
drives trace generation and the bandit and SMT seeds, so the simulator only
ever receives the generated inputs.

Sizes are chosen so one iteration takes 0.3-0.55 s on a 2-core host: a run
then holds dozens of timed iterations, and its fastest one is steady from
run to run even while the host's speed drifts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kwargs``/``smoke`` are the figure call at full and ``--smoke`` scale,
    in plain data: workload names stand for their specs and an ``scale``
    dict for an ``SMTScale``. ``work`` names what ``throughput`` counts:
    ``records`` (trace records replayed, each lane of a batch counted),
    ``tasks`` (tasks served from the result cache) or ``cycles`` (simulated
    SMT cycles).
    """

    name: str
    figure: str
    kwargs: Mapping[str, Any]
    smoke: Mapping[str, Any]
    work: str
    #: Figure calls per iteration; several when one call is too short to time.
    renders: int = 1
    #: Serve every iteration from a result cache filled before timing.
    cached: bool = False


_REP_STREAM = ("bwaves06", "libquantum06", "lbm06")
_REP_THRASH = ("milc06", "omnetpp06")
_SMT_SCALE = dict(epoch_cycles=300, total_epochs=20, step_epochs=2,
                  step_epochs_rr=2)

#: Why each workload was chosen is recorded beside its name in BENCHMARK.json.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="lineup",
        figure="fig08_singlecore",
        kwargs=dict(trace_length=400),
        smoke=dict(trace_length=300, suites=("SPEC06",)),
        work="records",
    ),
    Workload(
        name="lineup-cached",
        figure="fig08_singlecore",
        kwargs=dict(trace_length=400),
        smoke=dict(trace_length=300, suites=("SPEC06",)),
        work="tasks",
        renders=15,
        cached=True,
    ),
    Workload(
        name="rep-stream",
        figure="fig08_replication_sweep",
        kwargs=dict(trace_length=5000, replicates=24, workloads=_REP_STREAM),
        smoke=dict(trace_length=1000, replicates=24, workloads=_REP_STREAM[:1]),
        work="records",
    ),
    Workload(
        name="rep-thrash",
        figure="fig08_replication_sweep",
        kwargs=dict(trace_length=1000, replicates=24, workloads=_REP_THRASH),
        smoke=dict(trace_length=200, replicates=24, workloads=_REP_THRASH[:1]),
        work="records",
    ),
    Workload(
        name="rep-wide",
        figure="fig08_replication_sweep",
        kwargs=dict(trace_length=400, replicates=128, workloads=_REP_THRASH),
        smoke=dict(trace_length=200, replicates=128,
                   workloads=_REP_THRASH[:1]),
        work="records",
    ),
    Workload(
        name="smt-fetch",
        figure="fig13_smt_bandit_vs_choi",
        kwargs=dict(num_mixes=4, scale=_SMT_SCALE),
        smoke=dict(num_mixes=1, scale=dict(_SMT_SCALE, total_epochs=8)),
        work="cycles",
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


def figure_kwargs(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    """The figure call's keyword arguments, with plain data made concrete."""
    from repro.experiments.smt import SMTScale
    from repro.workloads.suites import spec_by_name

    kwargs = dict(workload.smoke if smoke else workload.kwargs, seed=seed)
    if "workloads" in kwargs:
        kwargs["workloads"] = [spec_by_name(name) for name in kwargs["workloads"]]
    if "scale" in kwargs:
        kwargs["scale"] = SMTScale(**kwargs["scale"])
    if "suites" in kwargs:
        kwargs["suites"] = list(kwargs["suites"])
    return kwargs


def trace_inputs(workload: Workload, smoke: bool) -> List[Tuple[str, int]]:
    """``(spec name, length)`` of every trace one iteration replays."""
    from repro.workloads.suites import ALL_SUITES

    kwargs = workload.smoke if smoke else workload.kwargs
    if "trace_length" not in kwargs:
        return []
    length = kwargs["trace_length"]
    if "workloads" in kwargs:
        names = list(kwargs["workloads"])
    else:
        suites = kwargs.get("suites", tuple(ALL_SUITES))
        names = [spec.name for suite in suites for spec in ALL_SUITES[suite]]
    return [(name, length) for name in names]


def smt_cycles_per_task(workload: Workload, smoke: bool) -> int:
    """Simulated cycles of one SMT task: every task runs the full budget."""
    scale = (workload.smoke if smoke else workload.kwargs).get("scale")
    return scale["total_epochs"] * scale["epoch_cycles"] if scale else 0


# ================================================================ digests


def _canonical(value: Any) -> Any:
    """JSON-ready form of a figure result with floats written by ``repr``.

    Kept apart from the runner's cache-key encoding, so a change there
    cannot move the pinned digests.
    """
    if isinstance(value, float):
        return ["@f", repr(value)]
    if isinstance(value, dict):
        return ["@dict", sorted(
            [json.dumps(_canonical(key)), _canonical(item)]
            for key, item in value.items()
        )]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"figure result holds a {type(value).__name__}")


def digest(result: Any) -> str:
    """sha256 of the canonical JSON of one figure result."""
    text = json.dumps(_canonical(result), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def all_finite(result: Any) -> bool:
    """Whether every float in a figure result is finite."""
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, dict):
        return all(all_finite(item) for item in result.values())
    if isinstance(result, (list, tuple)):
        return all(all_finite(item) for item in result)
    return True
