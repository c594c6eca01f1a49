"""Batched lane replay kernel: N independent runs advanced as array columns.

A *lane* is one independent replay of the same compiled trace — a fixed
ensemble arm, the no-prefetch baseline, or a seeded Micro-Armed Bandit run.
The replication sweeps (fig08/fig10, ``best_static_arm``) replay the same
trace through 11+ such lanes; the scalar path simulates them one at a time,
re-deriving per-record state that is in fact *lane-invariant*:

- **Core index stream.** Instruction indices, dispatch-cost increments, and
  the ROB-boundary anchor *record* depend only on the trace's ``inst_gap``
  sequence, so they are precomputed once with vectorized numpy (the anchor
  via one ``searchsorted`` over the cumulative index stream).
- **L1 contents.** L2 prefetch fills never touch the L1, and demand fills
  are trace-ordered, so L1 hit/miss, victim choice, and victim dirtiness are
  identical across lanes — simulated once in a shared pre-pass.
- **Prefetcher training.** The stride/stream tables train on the L1-miss
  stream regardless of the active degree (the ensemble property §5.2 leans
  on), and training reads only ``(pc, block)`` — lane-invariant. The
  pre-pass trains real ``StridePrefetcher``/``StreamPrefetcher`` instances
  once and records, per miss record, whether each component would emit and
  with what stride/direction; a lane's candidate list is then a pure
  function of its current arm degrees.

One driver, :func:`_lane_kernel`, owns everything core-side or
lane-invariant: the pre-pass, the ``(N,)`` retire/dispatch columns and
their ROB floors, the L1-hit rows (a few vector ops for all lanes), the
bandit hooks, the sanitizer checkpoints and the episode end. What diverges
per lane — L2/LLC contents, MSHR state, DRAM channel timing — lives in a
*memory side*, an exact per-lane transcription of
:func:`~repro.core_model.replay_kernel.run_replay_kernel` on L1-miss
records (all lanes miss together, because hit/miss is shared). A memory
side is a factory returning three closures: ``apply_arm(i, arm)`` loads
lane ``i``'s degree registers, ``miss_row(t, cycle, drain_to)`` runs
L1-miss record ``t`` on every lane and returns its demand-ready column,
and ``finish()`` drains the MSHRs and returns the per-lane counters.

- :func:`_dict_memory` keeps each lane's L2/LLC sets as insertion-ordered
  dicts and walks the lanes in a Python loop on every L1-miss record; its
  small per-lane state wins on narrow batches;
- :func:`_array_memory` packs every lane's L2/LLC into ``(N, sets, ways)``
  int arrays (``block * 8 + flags``: bit0 prefetched, bit1 used, bit2
  dirty; ``-1`` = empty way; recency in parallel last-touch stamps) and
  the MSHR into ``(N, mshr)`` fill-queue columns, so an L1-miss record
  updates all N lanes in a handful of masked array ops; it wins on wide
  batches of L1-thrashing traces, where nearly every record is a miss
  row. On streaming traces (~12.5 % miss rows) the dict side measured
  faster at every width tried, 411 lanes included.

``REPRO_LANE_KERNEL=auto`` (the default) picks the dict side below
``AUTO_ARRAY_MIN_LANES`` lanes and the array side at or above it, by lane
count alone; ``dict``/``array`` force one. Bandit lanes drive one
:class:`~repro.bandit.hardware.PrefetchBanditController` each
(:class:`_BanditLanes`).

The arithmetic is bit-identical to the scalar kernel: vector adds/maxima on
float64 columns perform the same IEEE-754 operations in the same order as
the scalar locals, so every lane's IPC, cycle counts, and hierarchy stats
match ``TraceCore.run_compiled`` exactly (asserted lane-by-lane under
``REPRO_SANITIZE=1``, and in ``tests/test_lane_kernel.py``).

``REPRO_LANE_KERNEL=0`` (or any ineligible lane/config) falls back to the
scalar runners, one process-visible result list either way; ineligibility
is reported as a human-readable fallback reason that the experiment
runner surfaces in telemetry manifests (see
:func:`lane_batch_fallback_reason`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.bandit.hardware import PrefetchBanditController
from repro.bandit.rewards import PerformanceCounters
from repro.constants import NUM_STREAM_TRACKERS, NUM_STRIDE_TRACKERS
from repro.core_model.sanitizer import StepRecord, sanitize_enabled
from repro.core_model.trace_core import CoreConfig
from repro.prefetch.ensemble import TABLE7_ARMS
from repro.prefetch.stream import StreamPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.uncore.hierarchy import (
    HierarchyConfig,
    HierarchyStats,
    PrefetchOutcome,
)
from repro.workloads.compiled import CompiledTrace

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.experiments.configs import PrefetchBanditParams
    from repro.experiments.prefetch import PrefetchRunResult

#: Set to ``0`` to force every lane batch down the scalar runner path.
LANE_KERNEL_ENV = "REPRO_LANE_KERNEL"

_INF = float("inf")

#: Lane kinds the kernel understands.
_KINDS = ("none", "arm", "bandit")


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a batch: a single independent replay configuration.

    ``kind`` is ``"none"`` (no prefetcher), ``"arm"`` (fixed ensemble arm —
    ``arm`` required), or ``"bandit"`` (Micro-Armed Bandit with ``seed``).
    """

    kind: str
    arm: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown lane kind {self.kind!r}")
        if self.kind == "arm" and self.arm is None:
            raise ValueError("arm lanes require an arm index")


#: Lane count at or above which ``auto`` mode gives a batch the array
#: memory side. Below it the dict side's small per-lane state beats the
#: array side's per-record dispatch floor. Above it the array side wins on
#: L1-thrashing traces, where nearly every record is a miss row; on
#: streaming traces the dict side stayed faster at every width measured
#: (lbm06, 5,000 records, 2-vCPU Xeon: 420 vs 883 ms at 139 lanes, 1,373
#: vs 1,693 ms at 411). The cutover ignores the miss-row share, so wide
#: streaming batches take the slower side. Both sides are bit-identical,
#: so the cutover is purely a performance choice.
AUTO_ARRAY_MIN_LANES = 128


def lane_kernel_mode() -> str:
    """The lane-kernel path selected by ``REPRO_LANE_KERNEL``.

    ``"auto"`` (the default) picks a memory side per batch: the array
    side for wide batches (>= ``AUTO_ARRAY_MIN_LANES`` lanes) and the dict
    side for narrow ones. ``"array"`` / ``"dict"`` force one batched
    path; ``"scalar"`` (also ``0``/``false``/``no``/``off``) forces the
    scalar runner fallback.
    """
    # All paths are bit-identical (sanitizer-verified), so the mode
    # cannot change any task result.
    # repro: cache-invariant[REPRO_LANE_KERNEL]
    value = os.environ.get(LANE_KERNEL_ENV, "auto").strip().lower()
    if value in ("0", "false", "no", "off", "scalar"):
        return "scalar"
    if value in ("dict", "array"):
        return value
    return "auto"


def resolve_lane_kernel_mode(num_lanes: int) -> str:
    """The kernel path a batch of ``num_lanes`` lanes will actually take.

    Resolves ``auto`` to ``"array"`` or ``"dict"`` by batch width; the
    experiment runner records this in telemetry manifests.
    """
    mode = lane_kernel_mode()
    if mode == "auto":
        return "array" if num_lanes >= AUTO_ARRAY_MIN_LANES else "dict"
    return mode


def lane_batch_fallback_reason(
    trace: object,
    lanes: Sequence[LaneSpec],
    params: "PrefetchBanditParams",
) -> Optional[str]:
    """Why this batch cannot run through the batched kernel, or ``None``.

    Requires a non-empty compiled trace, known lane kinds, and in-range
    arm ids.  The returned string is a
    stable, human-readable diagnosis that the experiment runner records
    in telemetry manifests when a sweep silently falls back to the
    scalar runners; it depends only on the task inputs (never on the
    ``REPRO_LANE_KERNEL`` mode), so it is safe inside cached payloads.
    """
    if not isinstance(trace, CompiledTrace):
        return "trace is not a CompiledTrace"
    if len(trace) == 0:
        return "empty trace"
    if not lanes:
        return "empty lane list"
    for lane in lanes:
        if lane.kind == "arm":
            if lane.arm is None or not 0 <= lane.arm < len(TABLE7_ARMS):
                return f"arm index {lane.arm!r} out of range"
        elif lane.kind == "bandit":
            # The kernel installs the post-first-hook threshold state
            # directly, which is only equivalent to the scalar kernel's
            # initial -inf thresholds when the first record cannot end a
            # bandit step on its own.
            if params.step_l2_accesses < 1:
                return "bandit lanes require step_l2_accesses >= 1"
        elif lane.kind != "none":
            return f"unknown lane kind {lane.kind!r}"
    return None


def run_lane_batch(
    trace: object,
    lanes: Sequence[LaneSpec],
    hierarchy_config: HierarchyConfig,
    core_config: CoreConfig,
    params: Optional["PrefetchBanditParams"] = None,
) -> List["PrefetchRunResult"]:
    """Replay ``trace`` through every lane; one result per lane, in order.

    Runs the batched kernel with the array memory side (wide batches) or
    the dict side (narrow batches, or ``REPRO_LANE_KERNEL=dict``), or —
    when disabled or ineligible — the scalar runners
    (`run_fixed_prefetcher`/`run_fixed_arm`/`run_bandit_prefetch`) lane
    by lane. Results are bit-identical every way; under
    ``REPRO_SANITIZE=1`` the batched kernel
    additionally replay every lane through the object path and assert
    lane-by-lane equivalence (see
    :func:`repro.core_model.sanitizer.verify_lane_batch`).
    """
    lanes = list(lanes)
    if params is None:
        from repro.experiments.configs import PREFETCH_BANDIT_CONFIG

        params = PREFETCH_BANDIT_CONFIG
    if not lanes:
        return []
    mode = resolve_lane_kernel_mode(len(lanes))
    if (
        mode == "scalar"
        or core_config.rob_size <= 0
        or lane_batch_fallback_reason(trace, lanes, params) is not None
    ):
        return _run_lanes_scalar(
            trace, lanes, hierarchy_config, core_config, params
        )
    sanitize = sanitize_enabled()
    memory = _dict_memory if mode == "dict" else _array_memory
    results, checkpoints, step_logs = _lane_kernel(
        trace, lanes, hierarchy_config, core_config, params, memory,
        collect_logs=sanitize,
    )
    if sanitize:
        from repro.core_model.sanitizer import verify_lane_batch

        verify_lane_batch(
            trace, lanes, results, checkpoints, step_logs,
            hierarchy_config, core_config, params, kernel_mode=mode,
        )
    return results


def _run_lanes_scalar(
    trace: object,
    lanes: Sequence[LaneSpec],
    hierarchy_config: HierarchyConfig,
    core_config: CoreConfig,
    params: "PrefetchBanditParams",
) -> List["PrefetchRunResult"]:
    """Scalar fallback: one full runner invocation per lane."""
    from repro.experiments.prefetch import (
        run_bandit_prefetch,
        run_fixed_arm,
        run_fixed_prefetcher,
    )

    results = []
    for lane in lanes:
        if lane.kind == "none":
            results.append(run_fixed_prefetcher(
                trace, "none", hierarchy_config, core_config
            ))
        elif lane.kind == "arm":
            results.append(run_fixed_arm(
                trace, lane.arm, hierarchy_config, core_config
            ))
        else:
            results.append(run_bandit_prefetch(
                trace, hierarchy_config=hierarchy_config,
                core_config=core_config, params=params, seed=lane.seed,
            ))
    return results


# ============================================================ shared pre-pass


def _shared_prepass(
    trace: CompiledTrace,
    hierarchy_config: HierarchyConfig,
    core_config: CoreConfig,
) -> Dict[str, Any]:
    """Compute every lane-invariant per-record quantity, once.

    Produces the core index/anchor stream (vectorized), the full L1
    simulation (hit flag + victim block/dirtiness per record), and the
    stride/stream training outcomes per L1-miss record (every lane's
    ensemble has the same ``NUM_STRIDE_TRACKERS``/``NUM_STREAM_TRACKERS``
    tables, so one pair trains for all of them).
    """
    pcs, blocks, flags_l, _ = trace.as_lists()
    total = len(pcs)
    commit_cost = 1.0 / core_config.commit_width
    dispatch_cost = 1.0 / core_config.dispatch_width

    # ---- core index / ROB anchor stream (vectorized) ----
    gaps_arr = trace.inst_gap.astype(np.int64)
    idx = np.cumsum(gaps_arr + 1)
    boundary = idx - core_config.rob_size
    # Anchor record for row t: the youngest earlier record whose index is
    # <= boundary_t (consumed window entries stay anchored — boundary is
    # strictly increasing, so "last consumed" == "largest index <= boundary").
    anchor_row = np.searchsorted(idx, boundary, side="right") - 1
    anchor_idx = np.where(anchor_row >= 0, idx[np.maximum(anchor_row, 0)], 0)
    behind = boundary - anchor_idx
    # floor = anchor_retire + behind*commit_cost when behind > 0, else
    # anchor_retire; adding +0.0 is a bit-exact identity on the non-negative
    # retire values, so a zeroed addend folds both cases into one add.
    boost = np.where(behind > 0, behind, 0).astype(np.float64) * commit_cost
    # Floor gather plan: the kernel's retire log keeps a permanent zero row
    # at index 0, so ``rlog[anchor_row + 1] + boost`` is the floor for every
    # row at once — anchor -1 (ROB never filled) gathers 0.0 and the
    # boost-only and no-floor cases collapse into the same (no-op) maximum.
    # Rows are grouped into blocks whose anchors all precede the block
    # start, so each block's floors gather from final rlog rows in two
    # vector ops; a row whose anchor lands inside the current block (ROB
    # span shorter than the block) simply opens a new block.
    anchor_l = anchor_row.tolist()
    floor_blocks = [0]
    cur = 0
    for t, a in enumerate(anchor_l):
        if a >= cur and t > cur:
            cur = t
            floor_blocks.append(t)

    # ---- shared L1 simulation + prefetcher training ----
    block_bytes = hierarchy_config.block_bytes
    l1_num_sets = hierarchy_config.l1_size_bytes // (
        hierarchy_config.l1_ways * block_bytes
    )
    l1_ways = hierarchy_config.l1_ways
    l1_sets: List[Dict[int, bool]] = [{} for _ in range(l1_num_sets)]
    hit = bytearray(total)
    l1_victim = [-1] * total
    l1_victim_dirty = bytearray(total)
    st_ok = bytearray(total)
    st_stride = [0] * total
    sm_ok = bytearray(total)
    sm_dir = [0] * total
    # Real component instances at degree 1: training is degree-independent,
    # and a non-empty emission directly yields (ok, stride/direction).
    stride_pf = StridePrefetcher(degree=1, num_trackers=NUM_STRIDE_TRACKERS)
    stream_pf = StreamPrefetcher(degree=1, num_trackers=NUM_STREAM_TRACKERS)
    stride_observe = stride_pf.observe
    stream_observe = stream_pf.observe
    stores = 0

    for t in range(total):
        block = blocks[t]
        is_write = flags_l[t] & 1
        if is_write:
            stores += 1
        cache_set = l1_sets[block % l1_num_sets]
        dirty = cache_set.pop(block, None)
        if dirty is not None:
            cache_set[block] = True if is_write else dirty
            hit[t] = 1
            continue
        # L1 miss: train the shared tables, record the emission outcome.
        st = stride_observe(pcs[t], block, 0.0, False)
        if st:
            st_ok[t] = 1
            st_stride[t] = st[0] - block
        sm = stream_observe(pcs[t], block, 0.0, False)
        if sm:
            sm_ok[t] = 1
            sm_dir[t] = sm[0] - block
        if len(cache_set) >= l1_ways:
            for victim_block in cache_set:
                break
            l1_victim[t] = victim_block
            l1_victim_dirty[t] = 1 if cache_set.pop(victim_block) else 0
        cache_set[block] = bool(is_write)

    return {
        "total": total,
        "blocks": blocks,
        "flags": flags_l,
        "idx": idx.tolist(),
        "anchor_gidx": anchor_row + 1,
        "boost_arr": boost,
        "floor_blocks": floor_blocks,
        "gap_retire": (gaps_arr.astype(np.float64) * commit_cost).tolist(),
        "gap_dispatch": (gaps_arr.astype(np.float64) * dispatch_cost).tolist(),
        "hit": hit,
        "l1_victim": l1_victim,
        "l1_victim_dirty": l1_victim_dirty,
        "st_ok": st_ok,
        "st_stride": st_stride,
        "sm_ok": sm_ok,
        "sm_dir": sm_dir,
        "loads": total - stores,
        "stores": stores,
        "commit_cost": commit_cost,
        "dispatch_cost": dispatch_cost,
    }



# ================================================================ the driver


def _lane_checkpoint(
    checkpoint_logs: List[List[StepRecord]],
    t: int,
    instructions: int,
    retire: np.ndarray,
    l2da: int,
) -> None:
    """Record one sanitizer checkpoint row for every lane."""
    retire_l = retire.tolist()
    for i, log in enumerate(checkpoint_logs):
        retire_i = retire_l[i]
        log.append(StepRecord(
            step=t + 1,
            instructions=instructions,
            cycles=retire_i,
            ipc=instructions / retire_i if retire_i else 0.0,
            l2_demand_accesses=l2da,
        ))


class _LaneCounters(NamedTuple):
    """A memory side's per-lane counters at episode end, one list each."""

    l2_demand_hits: List[int]
    llc_demand_accesses: List[int]
    llc_demand_hits: List[int]
    dram_demand_fills: List[int]
    writebacks: List[int]
    issued: List[int]
    timely: List[int]
    late: List[int]
    wrong: List[int]
    dropped: List[int]


#: A memory side's closures. ``apply_arm(i, arm)`` loads lane ``i``'s
#: degree registers (a lane never given an arm is a ``"none"`` lane).
#: ``miss_row(t, cycle, drain_to)`` runs L1-miss record ``t`` on every lane
#: (MSHR drain up to ``drain_to``, L2/in-flight/LLC/DRAM probe, L1-victim
#: writeback, prefetch emission) and returns a fresh demand-ready column.
#: ``finish()`` drains every fill, counts never-used prefetches as wrong
#: and returns the per-lane counters.
_MemorySide = Tuple[
    Callable[[int, int], None],
    Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    Callable[[], _LaneCounters],
]
#: Builds a memory side from ``(num_lanes, hierarchy config, pre-pass)``.
_MemoryFactory = Callable[[int, HierarchyConfig, Dict[str, Any]], _MemorySide]


def _assemble_results(
    lanes: List[LaneSpec],
    loads: int,
    stores: int,
    records: int,
    total_instructions: int,
    retire_final: List[float],
    l2da: int,
    counters: _LaneCounters,
    controllers: Dict[int, PrefetchBanditController],
) -> List["PrefetchRunResult"]:
    """One ``PrefetchRunResult`` per lane from the kernel's final counters."""
    from repro.experiments.prefetch import PrefetchRunResult

    results: List[PrefetchRunResult] = []
    for i, lane in enumerate(lanes):
        retire_i = retire_final[i]
        stats = HierarchyStats(
            loads=loads,
            stores=stores,
            l2_demand_accesses=l2da,
            l2_demand_hits=counters.l2_demand_hits[i],
            llc_demand_accesses=counters.llc_demand_accesses[i],
            llc_demand_hits=counters.llc_demand_hits[i],
            dram_demand_fills=counters.dram_demand_fills[i],
            writebacks=counters.writebacks[i],
            prefetch=PrefetchOutcome(
                issued=counters.issued[i],
                timely=counters.timely[i],
                late=counters.late[i],
                wrong=counters.wrong[i],
                dropped=counters.dropped[i],
            ),
        )
        arm_trace: List[Tuple[float, int]] = []
        if lane.kind == "bandit":
            arm_history = list(controllers[i].algorithm.selection_history)
            arm_trace = controllers[i].arm_trace
        else:
            arm_history = [lane.arm] if lane.kind == "arm" else []
        results.append(PrefetchRunResult(
            ipc=total_instructions / retire_i if retire_i else 0.0,
            instructions=total_instructions,
            cycles=retire_i,
            stats=stats,
            arm_history=arm_history,
            arm_trace=arm_trace,
            records=records,
        ))
    return results


class _BanditLanes:
    """The ``"bandit"`` lanes of a batch.

    One :class:`~repro.bandit.hardware.PrefetchBanditController` per
    bandit lane, with its hook thresholds held as ``(N,)`` float64 columns
    (``inf`` on other lanes), so the driver finds the lanes to call with
    one vector compare. The driver decides *when* controllers are called;
    what a call does is the controller's.
    """

    def __init__(
        self,
        lanes: Sequence[LaneSpec],
        params: "PrefetchBanditParams",
        apply_arm: Callable[[int, int], None],
        collect_logs: bool,
    ) -> None:
        from repro.experiments.configs import prefetch_bandit_algorithm

        num_lanes = len(lanes)
        self.controllers: Dict[int, PrefetchBanditController] = {}
        self.step_logs: Dict[int, List[StepRecord]] = {}
        self.hook_l2 = np.full(num_lanes, _INF)
        self.hook_cyc = np.full(num_lanes, _INF)
        bandit_lanes = [
            i for i, lane in enumerate(lanes) if lane.kind == "bandit"
        ]
        for i in bandit_lanes:
            step_log = self.step_logs.setdefault(i, []) if collect_logs else None
            controller = PrefetchBanditController(
                prefetch_bandit_algorithm(seed=lanes[i].seed, params=params),
                partial(apply_arm, i),
                params.step_l2_accesses,
                params.selection_latency_cycles,
                step_log=step_log,
            )
            self.controllers[i] = controller
            # The scalar kernel's initial -inf thresholds fire the hook
            # after the first record just to install real thresholds; with
            # step_l2_accesses >= 1 (enforced by eligibility) anything that
            # first fire could do — at most ending a step when record 0 is
            # an L2 access and the step budget is 1 — is reproduced by the
            # ordinary end-of-miss-row check, so the post-fire state is
            # installed directly: the l2 threshold is the first boundary
            # and no cycle threshold is armed.
            self.hook_l2[i] = controller.next_boundary
        #: L2 demand accesses are shared, so no lane fires below ``l2_min``;
        #: a cycle threshold exists only while ``cyc_armed``.
        self.l2_min = float(self.hook_l2.min()) if bandit_lanes else _INF
        self.cyc_armed = False

    def fire(self, l2da: int, retire: np.ndarray, instructions: int) -> None:
        """Call the controller of every lane that reached a threshold."""
        if self.cyc_armed:
            due = (self.hook_l2 <= l2da) | (retire >= self.hook_cyc)
        else:
            due = self.hook_l2 <= l2da
        rows = due.nonzero()[0]
        if not rows.size:
            return
        retire_l = retire.tolist()
        for i in rows.tolist():
            counters = PerformanceCounters(instructions, retire_l[i])
            limits = self.controllers[i].on_record(
                l2da, counters
            )
            self.hook_l2[i], self.hook_cyc[i] = limits
        self.l2_min = float(self.hook_l2.min())
        self.cyc_armed = bool((self.hook_cyc < _INF).any())

    def finish(
        self, instructions: int, retire: Sequence[float], l2da: int
    ) -> None:
        """Episode end: every controller flushes its trailing step."""
        for i, controller in self.controllers.items():
            controller.finish(
                PerformanceCounters(instructions, retire[i]), l2da
            )


def _lane_kernel(
    trace: CompiledTrace,
    lanes: List[LaneSpec],
    hierarchy_config: HierarchyConfig,
    core_config: CoreConfig,
    params: "PrefetchBanditParams",
    memory_factory: _MemoryFactory,
    collect_logs: bool = False,
) -> Tuple[
    List["PrefetchRunResult"],
    List[List[StepRecord]],
    Dict[int, List[StepRecord]],
]:
    """Advance every lane through the trace in one fused pass.

    The core side runs here; ``memory_factory`` (:func:`_dict_memory` or
    :func:`_array_memory`) builds the per-lane memory state and returns
    its ``(apply_arm, miss_row, finish)`` closures (see
    :data:`_MemorySide`). Returns ``(results, checkpoint_logs,
    bandit_step_logs)``; the logs are only populated when
    ``collect_logs`` (the sanitizer's capture).
    """
    num_lanes = len(lanes)
    pre = _shared_prepass(trace, hierarchy_config, core_config)
    total = pre["total"]
    flags_l = pre["flags"]
    idx_l = pre["idx"]
    anchor_gidx = pre["anchor_gidx"]
    boost_arr = pre["boost_arr"]
    floor_blocks = pre["floor_blocks"]
    gap_retire = pre["gap_retire"]
    gap_dispatch = pre["gap_dispatch"]
    hit = pre["hit"]
    commit_cost = pre["commit_cost"]
    dispatch_cost = pre["dispatch_cost"]
    l1_latency = hierarchy_config.l1_latency

    apply_arm, miss_row, finish = memory_factory(
        num_lanes, hierarchy_config, pre
    )
    bst = _BanditLanes(lanes, params, apply_arm, collect_logs)
    for i, lane in enumerate(lanes):
        if lane.kind == "arm":
            apply_arm(i, lane.arm)  # type: ignore[arg-type]

    checkpoint_logs: List[List[StepRecord]] = [[] for _ in range(num_lanes)]
    if collect_logs:
        from repro.core_model.sanitizer import _CHECKPOINTS

        cp_stride = max(1, total // _CHECKPOINTS)
    else:
        cp_stride = 0

    # ---- per-lane core clocks as (N,) float64 columns; rlog[t + 1] is the
    # retire-time column after row t, and row 0 is a permanent zero row so
    # the no-anchor floor gathers 0.0 and every row takes the same maximum ----
    retire = np.zeros(num_lanes)
    dispatch = np.zeros(num_lanes)
    llr = np.zeros(num_lanes)  # last_load_ready
    rlog = np.zeros((total + 1, num_lanes))
    # Latest dependent-hit cycle since the last miss row (None if none).
    drain_floor: Optional[np.ndarray] = None
    # Every lane misses L1 together, so L2 demand accesses are a single
    # shared counter, not a per-lane column.
    l2da = 0

    maximum = np.maximum
    num_blocks = len(floor_blocks)
    for b in range(num_blocks):
        blk_s = floor_blocks[b]
        blk_e = floor_blocks[b + 1] if b + 1 < num_blocks else total
        # Every anchor in the block precedes blk_s (the pre-pass block
        # builder guarantees it), so the gathered rlog rows are final and
        # the whole block's retire floors cost two vector ops.
        floors = rlog[anchor_gidx[blk_s:blk_e]]
        floors += boost_arr[blk_s:blk_e, None]
        for t in range(blk_s, blk_e):
            gap_d = gap_dispatch[t]
            if gap_d:
                retire += gap_retire[t]
                dispatch += gap_d
            dispatch += dispatch_cost
            maximum(dispatch, floors[t - blk_s], out=dispatch)

            rflags = flags_l[t]
            is_write = rflags & 1
            if hit[t]:
                if is_write:
                    retire += commit_cost
                else:
                    if rflags & 2:  # FLAG_DEPENDENT
                        cycle = maximum(dispatch, llr)
                        # The scalar kernel drains the MSHR up to every
                        # record's cycle. A dependent hit can run past
                        # the next miss row's cycle, so it raises that
                        # row's drain bound. (Other hit rows run at the
                        # monotone dispatch clock and never do.)
                        if drain_floor is None:
                            drain_floor = cycle
                        else:
                            maximum(drain_floor, cycle, out=drain_floor)
                    else:
                        cycle = dispatch
                    ready = cycle + l1_latency
                    llr = ready
                    retire += commit_cost
                    maximum(retire, ready, out=retire)
            else:
                # L1 miss on every lane: the memory side takes over.
                if not is_write and rflags & 2:  # FLAG_DEPENDENT
                    cycle = maximum(dispatch, llr)
                else:
                    cycle = dispatch
                if drain_floor is None:
                    drain_to = cycle
                else:
                    drain_to = maximum(cycle, drain_floor)
                    drain_floor = None
                if bst.cyc_armed:
                    # Deferred cycle-threshold fire: the scalar kernel
                    # fires on the first hit row whose retire reaches a
                    # pending selection's ready cycle, and all that fire
                    # observably does is swap the lane's degree registers
                    # (l2 accesses cannot cross a step boundary on hit
                    # rows), which miss_row reads first. So it fires here,
                    # on the state at the end of row t-1 (rlog row t): the
                    # scalar hook never sees this row's ROB-gap increment.
                    bst.fire(l2da, rlog[t], idx_l[t - 1])
                l2da += 1
                ready = miss_row(t, cycle, drain_to)
                if is_write:
                    retire += commit_cost
                else:
                    retire = maximum(ready, retire + commit_cost)
                    llr = ready
                # End-of-record hook thresholds, bandit lanes only: the
                # retire column holds exactly the scalar hook's value, so
                # the compare is bit-exact, and the scalar guards skip it
                # on the many rows where no lane can fire.
                if l2da >= bst.l2_min or bst.cyc_armed:
                    bst.fire(l2da, retire, idx_l[t])
            rlog[t + 1] = retire
            if cp_stride and ((t + 1) % cp_stride == 0 or t + 1 == total):
                _lane_checkpoint(checkpoint_logs, t, idx_l[t], retire, l2da)

    # ------------------------------------------------------------- episode end
    total_instructions = idx_l[-1] if total else 0
    retire_final = retire.tolist()
    bst.finish(total_instructions, retire_final, l2da)
    results = _assemble_results(
        lanes, pre["loads"], pre["stores"], total, total_instructions,
        retire_final, l2da, finish(), bst.controllers,
    )
    return results, checkpoint_logs, bst.step_logs


# =========================================================== dict memory side


def _dict_memory(
    num_lanes: int, config: HierarchyConfig, pre: Dict[str, Any]
) -> _MemorySide:
    """Per-lane Python state, walked lane by lane on every L1-miss row.

    Each lane's MSHR is a ready-cycle heap; ``auto`` picks this side below
    ``AUTO_ARRAY_MIN_LANES`` lanes.
    """
    blocks = pre["blocks"]
    l1_victim = pre["l1_victim"]
    l1_victim_dirty = pre["l1_victim_dirty"]
    st_ok = pre["st_ok"]
    st_stride = pre["st_stride"]
    sm_ok = pre["sm_ok"]
    sm_dir = pre["sm_dir"]

    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    llc_latency = config.llc_latency
    max_inflight_prefetches = config.max_inflight_prefetches
    mshr_capacity = config.mshr_entries
    block_bytes = config.block_bytes
    l2_num_sets = config.l2_size_bytes // (config.l2_ways * block_bytes)
    llc_num_sets = config.llc_size_bytes // (config.llc_ways * block_bytes)
    l2_ways = config.l2_ways
    llc_ways = config.llc_ways
    # DRAM channel constants (mirrors DRAMModel.access/writeback).
    transfers_per_cycle = config.dram_mtps * 1e6 / (
        config.core_frequency_ghz * 1e9
    )
    dram_line_cost = 8 / transfers_per_cycle
    dram_latency = config.dram_latency

    # ---- per-lane memory-side state (plain Python; victim choice is dict
    # order, so recency stamps are never consulted and are dropped).  L2
    # lines are packed small ints (bit0 prefetched, bit1 used, bit2 dirty)
    # and LLC lines a bare dirty bool (its other flags are never read), so
    # cache fills allocate nothing ----
    l2_sets = [
        [{} for _ in range(l2_num_sets)] for _ in range(num_lanes)
    ]  # type: List[List[Dict[int, int]]]
    llc_sets = [
        [{} for _ in range(llc_num_sets)] for _ in range(num_lanes)
    ]  # type: List[List[Dict[int, bool]]]
    # In-flight fills: block -> ready cycle, negated for prefetch fills
    # (ready cycles are strictly positive, so the sign carries is_pf).
    inflight: List[Dict[int, float]] = [dict() for _ in range(num_lanes)]
    heaps: List[List[Tuple[float, int]]] = [[] for _ in range(num_lanes)]
    nfr = [_INF] * num_lanes  # next MSHR fill-ready cycle, per lane
    ipf = [0] * num_lanes  # in-flight prefetch count
    dram_free = [0.0] * num_lanes  # DRAM channel-free cycle

    l2dh = [0] * num_lanes
    llcda = [0] * num_lanes
    llcdh = [0] * num_lanes
    dram_fills = [0] * num_lanes
    writebacks = [0] * num_lanes
    pf_issued = [0] * num_lanes
    pf_timely = [0] * num_lanes
    pf_late = [0] * num_lanes
    pf_wrong = [0] * num_lanes
    pf_dropped = [0] * num_lanes

    # ---- per-lane prefetcher configuration (EnsemblePrefetcher.set_arm
    # collapses to one packed (next_line, stride_deg, stream_deg) register
    # tuple; "none" lanes carry None and never observe) ----
    lane_arm: List[Optional[Tuple[bool, int, int]]] = [None] * num_lanes

    def apply_arm(i: int, arm_id: int) -> None:
        spec = TABLE7_ARMS[arm_id]
        lane_arm[i] = (
            spec.next_line, spec.stride_degree, spec.stream_degree
        )

    def fill_llc(i: int, block: int, dirty: bool) -> None:
        """Per-lane transcription of the scalar kernel's fill_llc closure."""
        cache_set = llc_sets[i][block % llc_num_sets]
        existing = cache_set.pop(block, None)
        if existing is not None:
            cache_set[block] = existing or dirty
            return
        if len(cache_set) >= llc_ways:
            for victim_block in cache_set:
                break
            victim_dirty = cache_set.pop(victim_block)
            cache_set[block] = dirty
            if victim_dirty:
                writebacks[i] += 1
                dram_free[i] += dram_line_cost
        else:
            cache_set[block] = dirty

    def fill_l2(i: int, block: int, line: int) -> None:
        """Per-lane transcription of the scalar kernel's fill_l2 closure.

        ``line`` is the packed incoming flags (bit0 prefetched, bit2
        dirty); an existing line only absorbs the dirty bit, as the
        object path's fill does.
        """
        cache_set = l2_sets[i][block % l2_num_sets]
        existing = cache_set.pop(block, None)
        if existing is not None:
            cache_set[block] = existing | (line & 4)
            return
        if len(cache_set) >= l2_ways:
            for victim_block in cache_set:
                break
            victim = cache_set.pop(victim_block)
            if victim & 1 and not victim & 2:
                pf_wrong[i] += 1
            cache_set[block] = line
            if victim & 4:
                fill_llc(i, victim_block, True)
        else:
            cache_set[block] = line

    def drain_mshr(i: int, cycle_i: float) -> None:
        """MSHR drain for one lane: complete every fill now ready.

        The clean-fill ``fill_l2``/``fill_llc`` bodies are inlined — this
        is the hot fill path (roughly one fill per lane per miss row).
        """
        heap = heaps[i]
        inflight_i = inflight[i]
        l2_sets_i = l2_sets[i]
        llc_sets_i = llc_sets[i]
        while heap and heap[0][0] <= cycle_i:
            fill_block = heappop(heap)[1]
            entry = inflight_i.pop(fill_block, None)
            if entry is None:
                continue  # superseded entry
            if entry < 0:
                ipf[i] -= 1
                line = 1
            else:
                line = 0
            cache_set = l2_sets_i[fill_block % l2_num_sets]
            existing = cache_set.pop(fill_block, None)
            if existing is not None:
                cache_set[fill_block] = existing
            elif len(cache_set) >= l2_ways:
                for victim_block in cache_set:
                    break
                victim = cache_set.pop(victim_block)
                if victim & 1 and not victim & 2:
                    pf_wrong[i] += 1
                cache_set[fill_block] = line
                if victim & 4:
                    fill_llc(i, victim_block, True)
            else:
                cache_set[fill_block] = line
            cache_set = llc_sets_i[fill_block % llc_num_sets]
            existing = cache_set.pop(fill_block, None)
            if existing is not None:
                cache_set[fill_block] = existing
            elif len(cache_set) >= llc_ways:
                for victim_block in cache_set:
                    break
                victim_dirty = cache_set.pop(victim_block)
                cache_set[fill_block] = False
                if victim_dirty:
                    writebacks[i] += 1
                    dram_free[i] += dram_line_cost
            else:
                cache_set[fill_block] = False
        nfr[i] = heap[0][0] if heap else _INF

    def miss_row(
        t: int, cycle: np.ndarray, drain_to: np.ndarray
    ) -> np.ndarray:
        """L1-miss record ``t`` on every lane, one lane at a time."""
        block = blocks[t]
        bs2 = block % l2_num_sets
        bsl = block % llc_num_sets
        cycle_l = cycle.tolist()
        # The driver passes ``cycle`` itself when no dependent hit raised
        # the drain bound.
        drain_l = cycle_l if drain_to is cycle else drain_to.tolist()
        ready_l = [0.0] * num_lanes
        victim_block_t = l1_victim[t]
        victim_wb = victim_block_t >= 0 and l1_victim_dirty[t]
        nl_cand = block + 1
        st_hit_t = st_ok[t]
        sm_hit_t = sm_ok[t]
        st_d_t = st_stride[t]
        sm_d_t = sm_dir[t]
        cand_memo: Dict[Tuple[bool, int, int], List[int]] = {}
        for i in range(num_lanes):
            cycle_i = cycle_l[i]
            drain_i = drain_l[i]
            if nfr[i] <= drain_i:
                # Deferred MSHR drain: fills that came ready during the
                # hit rows since this lane's last miss are unobservable
                # until this probe, and the ready-heap preserves their
                # completion order, so draining them here is exact.
                drain_mshr(i, drain_i)
            l2_cycle = cycle_i + l1_latency
            l2_sets_i = l2_sets[i]
            llc_sets_i = llc_sets[i]
            l2_set = l2_sets_i[bs2]
            l2_line = l2_set.pop(block, None)
            inflight_i = inflight[i]
            if l2_line is not None:
                l2dh[i] += 1
                if l2_line & 1:
                    pf_timely[i] += 1
                    l2_set[block] = (l2_line | 2) & ~1
                else:
                    l2_set[block] = l2_line | 2
                ready_i = l2_cycle + l2_latency
            else:
                entry = inflight_i.get(block)
                if entry is not None:
                    if entry < 0:
                        pf_late[i] += 1
                        entry = -entry
                        inflight_i[block] = entry
                        ipf[i] -= 1
                    l2_ready = l2_cycle + l2_latency
                    ready_i = entry if entry > l2_ready else l2_ready
                else:
                    llc_cycle = l2_cycle + l2_latency
                    llcda[i] += 1
                    llc_set = llc_sets_i[bsl]
                    llc_line = llc_set.pop(block, None)
                    if llc_line is not None:
                        llc_set[block] = llc_line
                        llcdh[i] += 1
                        ready_i = llc_cycle + llc_latency
                        # fill_l2(block, 0): the block just missed
                        # this set, so no existing-line check.
                        if len(l2_set) >= l2_ways:
                            for victim_block in l2_set:
                                break
                            victim = l2_set.pop(victim_block)
                            if victim & 1 and not victim & 2:
                                pf_wrong[i] += 1
                            l2_set[block] = 0
                            if victim & 4:
                                fill_llc(i, victim_block, True)
                        else:
                            l2_set[block] = 0
                    else:
                        request = llc_cycle + llc_latency
                        channel_free = dram_free[i]
                        start = (request if request > channel_free
                                 else channel_free)
                        dram_free[i] = start + dram_line_cost
                        ready_i = start + dram_latency
                        dram_fills[i] += 1
                        if len(inflight_i) < mshr_capacity:
                            inflight_i[block] = ready_i
                            heappush(heaps[i], (ready_i, block))
                            if ready_i < nfr[i]:
                                nfr[i] = ready_i
                        else:
                            # MSHR pressure: untracked immediate fill.
                            fill_l2(i, block, 0)
                            fill_llc(i, block, False)
            # L1 fill is shared state (pre-pass); only a dirty victim's
            # L2 writeback diverges per lane.
            if victim_wb:
                fill_l2(i, victim_block_t, 4)
            arm_t = lane_arm[i]
            if arm_t is not None:
                nl_on, st_d, sm_d = arm_t
                if not st_hit_t:
                    st_d = 0
                if not sm_hit_t:
                    sm_d = 0
                if nl_on or st_d or sm_d:
                    key = (nl_on, st_d, sm_d)
                    candidates = cand_memo.get(key)
                    if candidates is None:
                        # EnsemblePrefetcher.observe's emission order:
                        # next-line, then deduped stride, then stream.
                        nl = [nl_cand] if nl_on else []
                        st = ([block + st_d_t * k
                               for k in range(1, st_d + 1)]
                              if st_d else [])
                        sm = ([block + sm_d_t * k
                               for k in range(1, sm_d + 1)]
                              if sm_d else [])
                        if not st and not sm:
                            candidates = nl
                        else:
                            candidates = list(nl)
                            seen = set(nl)
                            for cand in st:
                                if cand not in seen:
                                    seen.add(cand)
                                    candidates.append(cand)
                            for cand in sm:
                                if cand not in seen:
                                    seen.add(cand)
                                    candidates.append(cand)
                        cand_memo[key] = candidates
                    for cand in candidates:
                        if cand < 0 or cand in l2_sets_i[
                            cand % l2_num_sets
                        ] or cand in inflight_i:
                            continue
                        if (ipf[i] >= max_inflight_prefetches
                                or len(inflight_i) >= mshr_capacity):
                            pf_dropped[i] += 1
                            continue
                        pf_issued[i] += 1
                        if cand in llc_sets_i[cand % llc_num_sets]:
                            pf_ready = cycle_i + l2_latency + llc_latency
                        else:
                            request = cycle_i + l2_latency + llc_latency
                            channel_free = dram_free[i]
                            start = (request if request > channel_free
                                     else channel_free)
                            dram_free[i] = start + dram_line_cost
                            pf_ready = start + dram_latency
                        inflight_i[cand] = -pf_ready
                        heappush(heaps[i], (pf_ready, cand))
                        if pf_ready < nfr[i]:
                            nfr[i] = pf_ready
                        ipf[i] += 1
            ready_l[i] = ready_i
        return np.array(ready_l, dtype=np.float64)

    def finish() -> _LaneCounters:
        for i in range(num_lanes):
            # hierarchy.finalize(): flush in-flight fills (heap order at
            # +inf), then count never-used prefetched L2 lines as wrong.
            heap = heaps[i]
            inflight_i = inflight[i]
            while heap:
                fill_block = heappop(heap)[1]
                entry = inflight_i.pop(fill_block, None)
                if entry is None:
                    continue
                if entry < 0:
                    ipf[i] -= 1
                    fill_l2(i, fill_block, 1)
                else:
                    fill_l2(i, fill_block, 0)
                fill_llc(i, fill_block, False)
            for cache_set in l2_sets[i]:
                for line in cache_set.values():
                    if line & 1 and not line & 2:
                        pf_wrong[i] += 1
        return _LaneCounters(
            l2dh, llcda, llcdh, dram_fills, writebacks,
            pf_issued, pf_timely, pf_late, pf_wrong, pf_dropped,
        )

    return apply_arm, miss_row, finish


# ========================================================== array memory side


_ARANGE_CACHE: Dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    """A cached ``np.arange(n)`` (the kernel re-uses a few small sizes).

    Callers must treat the returned array as read-only.
    """
    cached = _ARANGE_CACHE.get(n)
    if cached is None:
        cached = np.arange(n)
        _ARANGE_CACHE[n] = cached
    return cached


def _fill_rows(
    flat: np.ndarray,
    cflat: np.ndarray,
    sflat: np.ndarray,
    keys: np.ndarray,
    blocks: np.ndarray,
    flags: np.ndarray,
    ctr: int,
) -> np.ndarray:
    """Generic cache fill over flattened ``(lane row, set index)`` keys.

    Mirrors the dict side's fill closures under the stamp-LRU layout:
    way positions are stable and recency lives in the ``sflat``
    last-touch stamps, so a hit touch and an insert are single-element
    scatters instead of O(ways) MRU shifts. An existing line absorbs
    only the incoming dirty bit; an absent line lands at way ``count``
    (sets fill left to right and lines are never invalidated) or
    replaces the argmin-stamp way of a full set — the least recently
    touched line, exactly the dict side's move-to-end victim, because
    stamps are assigned from one monotone counter per touch event.
    ``flat``/``cflat``/``sflat`` are the ``(N * sets, ...)`` views of a
    level's line, count, and stamp arrays and ``keys`` is ``row *
    num_sets + set``. ``keys`` must be duplicate-free (each call
    touches a lane's set at most once), which also keeps a set's
    occupied-way stamps pairwise distinct under the shared per-call
    ``ctr``. Returns the packed victim per key (``-1`` = none).
    """
    k = keys.shape[0]
    set_rows = flat[keys]
    match = (set_rows >> 3) == blocks[:, None]
    if not match.any():
        count = cflat[keys]
        full = count == flat.shape[1]
        if full.all():
            # Thrash steady state: every set is full — victim selection
            # is one argmin and the counts never move.
            spos = np.argmin(sflat[keys], axis=1)
            victims = set_rows[_arange(k), spos]
        else:
            spos = np.where(full, np.argmin(sflat[keys], axis=1), count)
            victims = np.where(full, set_rows[_arange(k), spos], -1)
            cflat[keys] = count + ~full
        flat[keys, spos] = blocks * 8 + flags
        sflat[keys, spos] = ctr
        return victims
    found = match.any(axis=1)
    victims = np.full(k, -1, dtype=np.int64)
    pos = match.argmax(axis=1)
    h = found.nonzero()[0]
    hp = pos[h]
    hk = keys[h]
    flat[hk, hp] = set_rows[h, hp] | (flags[h] & 4)
    sflat[hk, hp] = ctr
    m = (~found).nonzero()[0]
    if m.size:
        mk = keys[m]
        count = cflat[mk]
        full = count == flat.shape[1]
        spos = np.where(full, np.argmin(sflat[mk], axis=1), count)
        victims[m] = np.where(full, set_rows[m, spos], -1)
        flat[mk, spos] = blocks[m] * 8 + flags[m]
        sflat[mk, spos] = ctr
        if not full.all():
            cflat[mk] = count + ~full
    return victims


@dataclass
class _ArrayState:
    """Array-resident L2/LLC state plus the accounting columns the fill
    path touches (writebacks, wrong prefetches, DRAM channel timing)."""

    l2_data: np.ndarray  #: (N, l2 sets, l2 ways) packed lines, -1 = empty
    l2_cnt: np.ndarray  #: (N, l2 sets) occupied-way counts
    l2_stamp: np.ndarray  #: (N, l2 sets, l2 ways) last-touch stamps
    llc_data: np.ndarray  #: (N, llc sets, llc ways) packed lines
    llc_cnt: np.ndarray  #: (N, llc sets) occupied-way counts
    llc_stamp: np.ndarray  #: (N, llc sets, llc ways) last-touch stamps
    #: Flattened (N * sets, ...) views of the arrays above — the fill
    #: path indexes them with one flat key per (lane, set) pair.
    l2_flat: np.ndarray
    l2_cnt_flat: np.ndarray
    l2_stamp_flat: np.ndarray
    llc_flat: np.ndarray
    llc_cnt_flat: np.ndarray
    llc_stamp_flat: np.ndarray
    l2_num_sets: int
    llc_num_sets: int
    dram_line_cost: float
    dram_free: np.ndarray  #: (N,) DRAM channel-free cycle
    ipf: np.ndarray  #: (N,) in-flight prefetch count
    writebacks: np.ndarray  #: (N,) dirty-victim writeback count
    pf_wrong: np.ndarray  #: (N,) prefetched-but-never-used eviction count
    #: Monotone touch counter: every vectorized touch event (fill wave,
    #: demand hit batch) stamps the ways it touches with a fresh value,
    #: so argmin(stamp) over a full set is the dict side's LRU victim.
    ctr: int = 0


def _fill_llc_rows(
    st: _ArrayState,
    rows: np.ndarray,
    blocks: np.ndarray,
    flags: np.ndarray,
    keys: Optional[np.ndarray] = None,
) -> None:
    """Vectorized transcription of the scalar kernel's fill_llc closure.

    ``keys`` is the optional precomputed flat ``row * sets + set`` index
    (the drain already has it for collision checks).
    """
    if keys is None:
        keys = rows * np.int64(st.llc_num_sets) + blocks % st.llc_num_sets
    st.ctr += 1
    victims = _fill_rows(
        st.llc_flat, st.llc_cnt_flat, st.llc_stamp_flat, keys, blocks,
        flags, st.ctr,
    )
    # -1 & 4 is truthy in two's complement, so empty ways need the >= 0
    # guard before the dirty-bit test.
    dirty = (victims >= 0) & ((victims & 4) != 0)
    if dirty.any():
        # Unbuffered adds: drain waves may carry one lane twice (distinct
        # sets), and fancy-index += would drop the duplicate. Repeated
        # adds of the same constant are order-independent, so this stays
        # bit-identical to the dict side's sequential accounting.
        wrows = rows[dirty]
        np.add.at(st.writebacks, wrows, 1)
        np.add.at(st.dram_free, wrows, st.dram_line_cost)


def _fill_l2_rows(
    st: _ArrayState, rows: np.ndarray, blocks: np.ndarray, flags: np.ndarray
) -> None:
    """Vectorized transcription of the scalar kernel's fill_l2 closure.

    ``flags`` is the packed incoming line (bit0 prefetched, bit2 dirty);
    an existing line only absorbs the dirty bit. A victim that was
    prefetched but never used counts as pf_wrong; a dirty victim cascades
    into the LLC.
    """
    keys = rows * np.int64(st.l2_num_sets) + blocks % st.l2_num_sets
    st.ctr += 1
    victims = _fill_rows(
        st.l2_flat, st.l2_cnt_flat, st.l2_stamp_flat, keys, blocks,
        flags, st.ctr,
    )
    # (victim & 3) == 1 means prefetched-and-never-used; -1 (empty) gives
    # 3 and can never hit, so no occupancy guard is needed here.
    wrong = (victims & 3) == 1
    if wrong.any():
        # ``rows`` is caller-supplied: today every caller passes one row
        # per lane, but the unbuffered add keeps the accounting correct
        # (and bit-identical — integer adds commute) if a wave ever
        # carries a lane twice, matching _fill_llc_rows.
        np.add.at(st.pf_wrong, rows[wrong], 1)
    dirty = (victims >= 0) & ((victims & 4) != 0)
    if dirty.any():
        drows = rows[dirty]
        _fill_llc_rows(
            st, drows, victims[dirty] >> 3,
            np.full(drows.shape[0], 4, dtype=np.int64),
        )


def _fill_l2_wb(st: _ArrayState, rows_all: np.ndarray, block: int) -> None:
    """L1 dirty-victim writeback into every lane's L2 at once.

    Same transcription as :func:`_fill_l2_rows`, specialized for the one
    call shape the kernel issues per record: a single shared block (one
    L2 set) across all N lanes with a dirty incoming line. The probes
    and scatters run on basic column views of the (N, sets, ways)
    arrays, so nothing here pays flat fancy-key traffic.
    """
    s = block % st.l2_num_sets
    view = st.l2_data[:, s]
    sview = st.l2_stamp[:, s]
    st.ctr += 1
    ctr = st.ctr
    match = (view >> 3) == block
    packed = block * 8 + 4
    if not match.any():
        cview = st.l2_cnt[:, s]
        full = cview == view.shape[1]
        if full.all():
            spos = np.argmin(sview, axis=1)
            victims = view[rows_all, spos]
        else:
            spos = np.where(full, np.argmin(sview, axis=1), cview)
            victims = np.where(full, view[rows_all, spos], -1)
            cview += ~full
        view[rows_all, spos] = packed
        sview[rows_all, spos] = ctr
    else:
        found = match.any(axis=1)
        victims = np.full(view.shape[0], -1, dtype=np.int64)
        pos = match.argmax(axis=1)
        h = found.nonzero()[0]
        hp = pos[h]
        # An existing line only absorbs the incoming dirty bit.
        view[h, hp] |= 4
        sview[h, hp] = ctr
        m = (~found).nonzero()[0]
        if m.size:
            count = st.l2_cnt[m, s]
            full = count == view.shape[1]
            spos = np.where(full, np.argmin(sview[m], axis=1), count)
            victims[m] = np.where(full, view[m, spos], -1)
            view[m, spos] = packed
            sview[m, spos] = ctr
            if not full.all():
                st.l2_cnt[m, s] = count + ~full
    wrong = (victims & 3) == 1
    if wrong.any():
        st.pf_wrong[wrong] += 1
    dirty = (victims >= 0) & ((victims & 4) != 0)
    if dirty.any():
        drows = dirty.nonzero()[0]
        _fill_llc_rows(
            st, drows, victims[dirty] >> 3,
            np.full(drows.shape[0], 4, dtype=np.int64),
        )


#: Block-id sentinel for lexicographic tie-breaks (no real block reaches it).
_I64_MAX = np.iinfo(np.int64).max


@dataclass
class _FillQueue:
    """Per-lane MSHR fill queues as hole-tolerant append columns.

    Row ``i``'s slots ``[0, tail[i])`` hold its in-flight fills plus the
    holes completed fills leave behind; holes carry the ``(+inf, -1,
    False)`` pad triple, so due-scans, membership probes, and
    min-reductions skip them for free. Removal is therefore a masked
    scatter (no per-drain compaction), and slots are reclaimed wholesale
    by an amortized :meth:`_compact` only when an insert would overrun
    capacity. The drain orders extracted fills by lexicographic
    ``(ready, block)`` *value* — exactly the dict side's heap order —
    so storage order never matters. ``length`` counts real entries (the
    MSHR occupancy check), ``nfr`` caches each row's minimum ready cycle
    (``+inf`` when empty), and ``hi == max(tail)`` bounds scans.

    ``tab`` counts live entries per ``block & 255`` bucket, giving the
    kernel's membership probe exact negatives from one ``(N, C)`` gather;
    only bucket collisions fall back to scanning queue slots, so the
    probe's byte traffic no longer scales with MSHR capacity.
    """

    ready: np.ndarray  #: (N, mshr) fill-ready cycles, +inf padded
    block: np.ndarray  #: (N, mshr) block ids, -1 padded
    pf: np.ndarray  #: (N, mshr) prefetch-fill flags
    length: np.ndarray  #: (N,) live entry counts (holes excluded)
    tail: np.ndarray  #: (N,) append cursors (holes included)
    nfr: np.ndarray  #: (N,) next fill-ready cycle (min over the row)
    tab: np.ndarray  #: (N, 256) bucket occupancy counts (block & 255)
    capacity: int = 0
    hi: int = 0

    @classmethod
    def create(cls, num_lanes: int, capacity: int) -> "_FillQueue":
        return cls(
            ready=np.full((num_lanes, capacity), _INF),
            block=np.full((num_lanes, capacity), -1, dtype=np.int64),
            pf=np.zeros((num_lanes, capacity), dtype=bool),
            length=np.zeros(num_lanes, dtype=np.int64),
            tail=np.zeros(num_lanes, dtype=np.int64),
            nfr=np.full(num_lanes, _INF),
            tab=np.zeros((num_lanes, 256), dtype=np.int16),
            capacity=capacity,
        )

    def _compact(self) -> None:
        """Squeeze holes out of every row (stable), resetting ``tail``.

        A stable argsort on the hole mask moves each row's live entries
        to the front in their current relative order and parks the pad
        triples behind them, so no pad restore pass is needed.
        """
        hi = self.hi
        holes = self.block[:, :hi] == -1
        order = np.argsort(holes, axis=1, kind="stable")
        lidx = _arange(holes.shape[0])[:, None]
        self.ready[:, :hi] = self.ready[lidx, order]
        self.block[:, :hi] = self.block[lidx, order]
        self.pf[:, :hi] = self.pf[lidx, order]
        self.tail[:] = self.length
        self.hi = int(self.length.max())

    def insert(
        self,
        rows: np.ndarray,
        ready_vals: np.ndarray,
        blocks: np.ndarray | int,
        is_pf: bool,
    ) -> None:
        """Insert one in-flight fill per row (capacity checked by caller).

        ``blocks`` may be a scalar block id (demand fills of one record
        share it; the scatter broadcasts).
        """
        if self.hi >= self.capacity:
            self._compact()
        pos = self.tail[rows]
        self.ready[rows, pos] = ready_vals
        self.block[rows, pos] = blocks
        if is_pf:
            self.pf[rows, pos] = True
        # rows are unique (callers pass at most one fill per lane), so
        # (row, bucket) pairs are too: plain fancy += is safe on every
        # per-row column below (unlike the drain's removals).
        self.tab[rows, blocks & 255] += 1
        self.tail[rows] = pos + 1
        self.length[rows] += 1
        self.nfr[rows] = np.minimum(self.nfr[rows], ready_vals)
        new_hi = int(pos.max()) + 1
        if new_hi > self.hi:
            self.hi = new_hi

    def insert_many(
        self,
        ready_mat: np.ndarray,
        cand: np.ndarray,
        ins: np.ndarray,
        cum: np.ndarray,
        add: np.ndarray,
    ) -> None:
        """Batch-insert the ``ins``-masked prefetch fills of one record.

        ``ins`` is ``(N, candidates)`` in per-lane candidate order over
        the shared candidate row ``cand`` (shape ``(candidates,)``).
        ``ready_mat`` matches ``ins`` — or collapses to ``(N,)`` when every
        candidate of a lane shares one ready cycle, which skips
        materializing a broadcast view on the hot path. ``cum`` is the
        caller's inclusive running candidate count along each row (its
        budget cursor — on ``ins`` positions ``cum - 1`` equals the
        insert's per-lane rank, since the budget cut keeps a prefix), and
        ``add`` is the caller's per-row insert count. The caller's drop
        budget guarantees ``length`` stays within capacity; ``tail`` may
        overrun first, which triggers an amortized compaction.
        """
        rows_idx, cand_idx = ins.nonzero()
        if not rows_idx.size:
            return
        if self.hi + int(add.max()) > self.capacity:
            self._compact()
        pos = self.tail[rows_idx] + cum[rows_idx, cand_idx] - 1
        blocks = cand[cand_idx]
        if ready_mat.ndim == 1:
            self.ready[rows_idx, pos] = ready_mat[rows_idx]
            row_min = np.where(add > 0, ready_mat, _INF)
        else:
            self.ready[rows_idx, pos] = ready_mat[rows_idx, cand_idx]
            row_min = np.where(ins, ready_mat, _INF).min(axis=1)
        self.block[rows_idx, pos] = blocks
        self.pf[rows_idx, pos] = True
        # One lane may insert bucket-colliding blocks in one record, so
        # the count update must not collapse duplicate indices.
        np.add.at(self.tab, (rows_idx, blocks & 255), 1)
        self.tail += add
        self.length += add
        np.minimum(self.nfr, row_min, out=self.nfr)
        new_hi = int(self.tail.max())
        if new_hi > self.hi:
            self.hi = new_hi

    def remove_due(
        self, cycle: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Extract every fill ready by ``cycle`` (all fills when None).

        Returns ``(rows, readys, blocks, pf flags)`` of the removed
        entries, unordered. Removed slots become holes (pads restored by
        scatter); ``length``/``nfr`` are refreshed in place, and the
        append cursors rewind to zero whenever the queue empties out
        (the common thrash-path shape), keeping scans narrow.
        """
        hi = self.hi
        if cycle is None:
            due = self.block[:, :hi] != -1
        else:
            # Hole slots carry +inf ready cycles, so they are never due.
            due = self.ready[:, :hi] <= cycle[:, None]
        rows_idx, slot_idx = due.nonzero()
        if not rows_idx.size:
            return rows_idx, np.empty(0), rows_idx, np.empty(0, dtype=bool)
        readys = self.ready[rows_idx, slot_idx]
        blocks = self.block[rows_idx, slot_idx]
        pfs = self.pf[rows_idx, slot_idx]
        self.ready[rows_idx, slot_idx] = _INF
        self.block[rows_idx, slot_idx] = -1
        self.pf[rows_idx, slot_idx] = False
        self.length -= np.bincount(rows_idx, minlength=self.length.shape[0])
        if not self.length.any():
            self.tab[:] = 0
            self.tail[:] = 0
            self.nfr[:] = _INF
            self.hi = 0
        else:
            np.add.at(self.tab, (rows_idx, blocks & 255), -1)
            self.nfr[:] = self.ready[:, :hi].min(axis=1)
        return rows_idx, readys, blocks, pfs


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element among equal ``keys``, in array order."""
    n = keys.shape[0]
    sidx = np.argsort(keys, kind="stable")
    ksorted = keys[sidx]
    newgrp = np.empty(n, dtype=bool)
    newgrp[0] = True
    np.not_equal(ksorted[1:], ksorted[:-1], out=newgrp[1:])
    grp_start = np.maximum.accumulate(np.where(newgrp, _arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[sidx] = _arange(n) - grp_start
    return rank


def _drain_ready_fills(
    st: _ArrayState, fq: _FillQueue, cycle: Optional[np.ndarray]
) -> None:
    """Complete every in-flight fill that is ready by ``cycle``.

    One-shot transcription of the dict side's drain_mshr. A fill only
    touches its own (lane, set) line array and its accounting adds
    commute, so the completion order the dict side's heap imposes
    matters only *within* a (lane, set) pair. The drain therefore
    extracts every due fill at once and applies each cache level in
    occurrence-rank waves: fills are sorted by the heap's (ready, block)
    order, each wave carries at most one fill per (lane, set), and ranks
    replay the per-set order exactly. Dirty L2 victims spill into the
    LLC sequenced with the dict side's interleaving — the victim of
    fill k lands before fill k's own LLC line. ``cycle=None`` drains
    everything (hierarchy finalize).
    """
    rows_u, readys, blocks, pfs = fq.remove_due(cycle)
    k = rows_u.shape[0]
    if not k:
        return
    if pfs.any():
        st.ipf -= np.bincount(rows_u[pfs], minlength=st.ipf.shape[0])
    # Phase 1 — L2 fills. When no two fills share a (lane, L2 set), the
    # per-set order is vacuous and one unordered wave suffices (the
    # common case: a drain point rarely completes set-colliding fills
    # together); otherwise sort into heap order and replay rank waves.
    sets2 = blocks % st.l2_num_sets
    l2_keys = rows_u * np.int64(st.l2_num_sets) + sets2
    sk = np.sort(l2_keys)
    ordered = False
    if bool((sk[1:] == sk[:-1]).any()):
        order = np.lexsort((blocks, readys, rows_u))
        rows_u = rows_u[order]
        readys = readys[order]
        blocks = blocks[order]
        pfs = pfs[order]
        l2_keys = l2_keys[order]
        ordered = True
        l2_rank = _rank_within(l2_keys)
        victims = np.empty(k, dtype=np.int64)
        for r in range(int(l2_rank.max()) + 1):
            m = l2_rank == r
            st.ctr += 1
            victims[m] = _fill_rows(
                st.l2_flat, st.l2_cnt_flat, st.l2_stamp_flat, l2_keys[m],
                blocks[m], pfs[m].astype(np.int64), st.ctr,
            )
    else:
        st.ctr += 1
        victims = _fill_rows(
            st.l2_flat, st.l2_cnt_flat, st.l2_stamp_flat, l2_keys, blocks,
            pfs.astype(np.int64), st.ctr,
        )
    wrong = (victims & 3) == 1
    if wrong.any():
        st.pf_wrong += np.bincount(
            rows_u[wrong], minlength=st.pf_wrong.shape[0]
        )
    dirty = (victims >= 0) & ((victims & 4) != 0)
    have_dirty = bool(dirty.any())
    zeros_k = np.zeros(k, dtype=np.int64)
    # Phase 2 — LLC fills, with dirty L2 victims spilled in between. When
    # the fills and the spilled victims together touch each (lane, LLC
    # set) at most once, the heap's per-set order is again vacuous and
    # one unordered wave covers fills *and* victim writebacks (their
    # accounting adds commute); otherwise replay heap order (sorting
    # victims *after* the unordered L2 wave is sound — collision-free
    # victims are order-free).
    if have_dirty:
        crows = np.concatenate((rows_u, rows_u[dirty]))
        cblocks = np.concatenate((blocks, victims[dirty] >> 3))
        ckeys = crows * np.int64(st.llc_num_sets) + cblocks % st.llc_num_sets
        sl = np.sort(ckeys)
        if not bool((sl[1:] == sl[:-1]).any()):
            cflags = np.concatenate(
                (zeros_k, np.full(crows.shape[0] - k, 4, dtype=np.int64))
            )
            _fill_llc_rows(st, crows, cblocks, cflags, keys=ckeys)
            return
    else:
        llc_keys = rows_u * np.int64(st.llc_num_sets) + blocks % st.llc_num_sets
        sl = np.sort(llc_keys)
        if not bool((sl[1:] == sl[:-1]).any()):
            _fill_llc_rows(st, rows_u, blocks, zeros_k, keys=llc_keys)
            return
    if not ordered:
        order = np.lexsort((blocks, readys, rows_u))
        rows_u = rows_u[order]
        blocks = blocks[order]
        dirty = dirty[order]
        victims = victims[order]
    if have_dirty:
        # The dict side writes fill k's dirty victim to the LLC right
        # before fill k's own line: merge by interleave sequence keys
        # (victim of fill k → 2k, fill k itself → 2k+1).
        seq = _arange(k)
        lorder = np.argsort(
            np.concatenate((seq * 2 + 1, seq[dirty] * 2)), kind="stable"
        )
        lrows = np.concatenate((rows_u, rows_u[dirty]))[lorder]
        lblocks = np.concatenate((blocks, victims[dirty] >> 3))[lorder]
        lflags = np.concatenate(
            (zeros_k, np.full(int(dirty.sum()), 4, dtype=np.int64))
        )[lorder]
    else:
        lrows, lblocks, lflags = rows_u, blocks, zeros_k
    lkeys = lrows * np.int64(st.llc_num_sets) + lblocks % st.llc_num_sets
    llc_rank = _rank_within(lkeys)
    for r in range(int(llc_rank.max()) + 1):
        m = llc_rank == r
        _fill_llc_rows(st, lrows[m], lblocks[m], lflags[m], keys=lkeys[m])


def _array_memory(
    num_lanes: int, config: HierarchyConfig, pre: Dict[str, Any]
) -> _MemorySide:
    """Array-resident state: an L1-miss row updates all N lanes at once.

    No per-lane Python loop runs on the demand or prefetch-fill paths;
    ``auto`` picks this side at or above ``AUTO_ARRAY_MIN_LANES`` lanes.
    """
    blocks = pre["blocks"]
    l1_victim = pre["l1_victim"]
    l1_victim_dirty = pre["l1_victim_dirty"]
    st_ok = pre["st_ok"]
    st_stride = pre["st_stride"]
    sm_ok = pre["sm_ok"]
    sm_dir = pre["sm_dir"]

    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    llc_latency = config.llc_latency
    max_inflight_prefetches = config.max_inflight_prefetches
    mshr_capacity = config.mshr_entries
    block_bytes = config.block_bytes
    l2_num_sets = config.l2_size_bytes // (config.l2_ways * block_bytes)
    llc_num_sets = config.llc_size_bytes // (config.llc_ways * block_bytes)
    l2_ways = config.l2_ways
    llc_ways = config.llc_ways
    # DRAM channel constants (mirrors DRAMModel.access/writeback).
    transfers_per_cycle = config.dram_mtps * 1e6 / (
        config.core_frequency_ghz * 1e9
    )
    dram_line_cost = 8 / transfers_per_cycle
    dram_latency = config.dram_latency

    # ---- lane-resident memory state: packed (N, sets, ways) line arrays
    # (block * 8 + flags; bit0 prefetched, bit1 used, bit2 dirty; -1 =
    # empty way). Way positions are stable; recency lives in the
    # parallel last-touch stamp arrays (argmin stamp = LRU victim). ----
    l2_data = np.full(
        (num_lanes, l2_num_sets, l2_ways), -1, dtype=np.int64
    )
    l2_cnt = np.zeros((num_lanes, l2_num_sets), dtype=np.int64)
    l2_stamp = np.zeros((num_lanes, l2_num_sets, l2_ways), dtype=np.int64)
    llc_data = np.full(
        (num_lanes, llc_num_sets, llc_ways), -1, dtype=np.int64
    )
    llc_cnt = np.zeros((num_lanes, llc_num_sets), dtype=np.int64)
    llc_stamp = np.zeros(
        (num_lanes, llc_num_sets, llc_ways), dtype=np.int64
    )
    st = _ArrayState(
        l2_data=l2_data,
        l2_cnt=l2_cnt,
        l2_stamp=l2_stamp,
        llc_data=llc_data,
        llc_cnt=llc_cnt,
        llc_stamp=llc_stamp,
        l2_flat=l2_data.reshape(-1, l2_ways),
        l2_cnt_flat=l2_cnt.reshape(-1),
        l2_stamp_flat=l2_stamp.reshape(-1, l2_ways),
        llc_flat=llc_data.reshape(-1, llc_ways),
        llc_cnt_flat=llc_cnt.reshape(-1),
        llc_stamp_flat=llc_stamp.reshape(-1, llc_ways),
        l2_num_sets=l2_num_sets,
        llc_num_sets=llc_num_sets,
        dram_line_cost=dram_line_cost,
        dram_free=np.zeros(num_lanes),
        ipf=np.zeros(num_lanes, dtype=np.int64),
        writebacks=np.zeros(num_lanes, dtype=np.int64),
        pf_wrong=np.zeros(num_lanes, dtype=np.int64),
    )
    fq = _FillQueue.create(num_lanes, mshr_capacity)
    nfr = fq.nfr  # per-lane next fill-ready cycle (updated in place)

    # Per-lane counters as (N,) columns (L2 demand accesses are shared).
    l2dh = np.zeros(num_lanes, dtype=np.int64)
    llcda = np.zeros(num_lanes, dtype=np.int64)
    llcdh = np.zeros(num_lanes, dtype=np.int64)
    dram_fills = np.zeros(num_lanes, dtype=np.int64)
    pf_issued = np.zeros(num_lanes, dtype=np.int64)
    pf_timely = np.zeros(num_lanes, dtype=np.int64)
    pf_late = np.zeros(num_lanes, dtype=np.int64)
    pf_dropped = np.zeros(num_lanes, dtype=np.int64)

    # ---- per-lane degree registers (EnsemblePrefetcher.set_arm collapses
    # to three packed columns; "none" lanes stay all-zero, which emits no
    # candidates and therefore never observes) ----
    reg_nl = np.zeros(num_lanes, dtype=np.int64)
    reg_st = np.zeros(num_lanes, dtype=np.int64)
    reg_sm = np.zeros(num_lanes, dtype=np.int64)

    # Arm switches are rare (one lane per bandit step) next to miss
    # records, so degree-register reductions (next-line mask, max
    # degrees) are cached and recomputed on the first miss row after a
    # register actually changed.
    deg_dirty = True
    nlb: np.ndarray
    nl_any: bool
    ke_full: int
    je_full: int
    est_m1: np.ndarray
    est_pos: np.ndarray

    def apply_arm(i: int, arm_id: int) -> None:
        nonlocal deg_dirty
        spec = TABLE7_ARMS[arm_id]
        reg_nl[i] = 1 if spec.next_line else 0
        reg_st[i] = spec.stride_degree
        reg_sm[i] = spec.stream_degree
        deg_dirty = True

    # ---- candidate-matrix constants: the Table 7 arm registry bounds the
    # per-record candidate list at 1 next-line + max stride degree + max
    # stream degree columns, so dedup/validity become masks instead of
    # per-lane Python list building ----
    max_st_deg = max(spec.stride_degree for spec in TABLE7_ARMS)
    max_sm_deg = max(spec.stream_degree for spec in TABLE7_ARMS)
    kdeg = np.arange(1, max_st_deg + 1)
    jdeg = np.arange(1, max_sm_deg + 1)
    # Read-only constant column (callers never mutate flag vectors).
    zeros_n = np.zeros(num_lanes, dtype=np.int64)
    # Candidate cache: the per-record candidate offsets and validity
    # masks depend only on (active degrees, stride value, stream
    # direction, degree registers), so records sharing a tracker verdict
    # reuse one (offsets, valid, min offset) entry; any register change
    # clears the cache (see the deg_dirty refresh).
    cand_cache: Dict[
        Tuple[int, int, int, int], Tuple[np.ndarray, np.ndarray, int]
    ] = {}
    maximum = np.maximum
    all_rows = _arange(num_lanes)
    lidx = all_rows[:, None]

    def miss_row(
        t: int, cycle: np.ndarray, drain_to: np.ndarray
    ) -> np.ndarray:
        """L1-miss record ``t`` on every lane, as masked column ops."""
        nonlocal llcda, dram_fills, pf_issued, pf_dropped
        nonlocal deg_dirty, nlb, nl_any, ke_full, je_full, est_m1, est_pos
        block = blocks[t]
        bs2 = block % l2_num_sets
        bsl = block % llc_num_sets
        victim_block_t = l1_victim[t]
        victim_wb = victim_block_t >= 0 and l1_victim_dirty[t]
        if fq.hi and (nfr <= drain_to).any():
            # Deferred MSHR drain, exactly the dict side's: fills
            # that came ready during hit rows are unobservable until
            # this probe, and the queue preserves completion order.
            _drain_ready_fills(st, fq, drain_to)
        l2_cycle = cycle + l1_latency
        ready_arr = np.empty(num_lanes)
        # --- L2 probe: one shared set index, all lanes at once ---
        set2 = l2_data[:, bs2]
        match2 = (set2 >> 3) == block
        l2hit = match2.any(axis=1)
        hrows = l2hit.nonzero()[0]
        if hrows.size:
            pos = match2[hrows].argmax(axis=1)
            old = set2[hrows, pos]
            was_pf = (old & 1) != 0
            if was_pf.any():
                pf_timely[hrows[was_pf]] += 1
            # Demand touch on the packed value: set used (bit1),
            # clear prefetched (bit0), keep block and dirty. The
            # way stays put — only its recency stamp moves.
            set2[hrows, pos] = (old | 2) ^ (old & 1)
            st.ctr += 1
            l2_stamp[hrows, bs2, pos] = st.ctr
            l2dh[hrows] += 1
            ready_arr[hrows] = l2_cycle[hrows] + l2_latency
        # The thrash shape — every lane misses every level — skips
        # each subset gather below (``*_all`` flags) and operates on
        # whole columns instead.
        if hrows.size:
            mrows = (~l2hit).nonzero()[0]
            m_all = False
        else:
            mrows = all_rows
            m_all = True
        if mrows.size:
            if m_all:
                l2_ready_m = l2_cycle + l2_latency
            else:
                l2_ready_m = l2_cycle[mrows] + l2_latency
            # --- in-flight (MSHR) probe: the bucket table rules out
            # membership with one (N,) gather; only bucket-colliding
            # rows scan their queue slots ---
            qf_size = 0
            if fq.hi:
                qtcol = fq.tab[:, block & 255]
                qmay = (qtcol != 0) if m_all else (qtcol[mrows] != 0)
                qmr = qmay.nonzero()[0]
                if qmr.size:
                    qmatch = fq.block[mrows[qmr], :fq.hi] == block
                    qf_inner = qmatch.any(axis=1).nonzero()[0]
                    qf = qmr[qf_inner]
                    qf_size = qf.size
            if qf_size:
                prows = mrows[qf]
                qpos = qmatch[qf_inner].argmax(axis=1)
                entry = fq.ready[prows, qpos]
                conv = fq.pf[prows, qpos]
                cv = conv.nonzero()[0]
                if cv.size:
                    # Prefetch-to-demand conversion flips only the pf
                    # flag; the (ready, block) sort key is untouched.
                    pf_late[prows[cv]] += 1
                    st.ipf[prows[cv]] -= 1
                    fq.pf[prows[cv], qpos[cv]] = False
                ready_arr[prows] = maximum(entry, l2_ready_m[qf])
                qfound = np.zeros(mrows.shape[0], dtype=bool)
                qfound[qf] = True
                rem = (~qfound).nonzero()[0]
                r2 = mrows[rem]
                # Same expression as l2_ready, reused bit-for-bit.
                llc_cycle = l2_ready_m[rem]
                r_all = False
            else:
                r2 = mrows
                llc_cycle = l2_ready_m
                r_all = m_all
            if r2.size:
                setl = llc_data[:, bsl]
                if r_all:
                    llcda += 1
                    matchl = (setl >> 3) == block
                else:
                    llcda[r2] += 1
                    matchl = (setl[r2] >> 3) == block
                llc_hit = matchl.any(axis=1)
                lh = llc_hit.nonzero()[0]
                if lh.size:
                    lrows = r2[lh]
                    pos = matchl[lh].argmax(axis=1)
                    # An LLC demand touch leaves the packed line
                    # as-is; only its recency stamp moves.
                    st.ctr += 1
                    llc_stamp[lrows, bsl, pos] = st.ctr
                    llcdh[lrows] += 1
                    ready_arr[lrows] = llc_cycle[lh] + llc_latency
                    # fill_l2(block, 0): the block just missed this
                    # L2 set, so the fill takes the insert path.
                    _fill_l2_rows(
                        st, lrows,
                        np.full(lh.size, block, dtype=np.int64),
                        zeros_n[:lh.size],
                    )
                    lm = (~llc_hit).nonzero()[0]
                    r3 = r2[lm]
                    request = llc_cycle[lm] + llc_latency
                    d_all = False
                else:
                    r3 = r2
                    request = llc_cycle + llc_latency
                    d_all = r_all
                if r3.size:
                    if d_all:
                        start = maximum(request, st.dram_free)
                        np.add(start, dram_line_cost, out=st.dram_free)
                        ready3 = start + dram_latency
                        ready_arr = ready3
                        dram_fills += 1
                        roomy = fq.length < mshr_capacity
                    else:
                        start = maximum(request, st.dram_free[r3])
                        st.dram_free[r3] = start + dram_line_cost
                        ready3 = start + dram_latency
                        ready_arr[r3] = ready3
                        dram_fills[r3] += 1
                        roomy = fq.length[r3] < mshr_capacity
                    if roomy.all():
                        fq.insert(r3, ready3, block, False)
                    else:
                        rr = roomy.nonzero()[0]
                        if rr.size:
                            fq.insert(r3[rr], ready3[rr], block, False)
                        # MSHR pressure: untracked immediate fill.
                        fr = r3[(~roomy).nonzero()[0]]
                        _fill_l2_rows(
                            st, fr,
                            np.full(fr.size, block, dtype=np.int64),
                            zeros_n[:fr.size],
                        )
                        _fill_llc_rows(
                            st, fr,
                            np.full(fr.size, block, dtype=np.int64),
                            zeros_n[:fr.size],
                        )
        # L1 fill is shared state (pre-pass); only a dirty victim's
        # L2 writeback diverges per lane.
        if victim_wb:
            _fill_l2_wb(st, all_rows, victim_block_t)
        # --- prefetch candidate emission: the ensemble's ordered
        # list (next-line, then deduped stride, then stream) as the
        # columns of one candidate row all lanes share. Invalid and
        # duplicate slots are masked off per lane, so dedup is a mask
        # instead of per-lane Python list building ---
        if deg_dirty:
            nlb = reg_nl > 0
            nl_any = bool(nlb.any())
            ke_full = int(reg_st.max())
            je_full = int(reg_sm.max())
            est_m1 = np.maximum(reg_st - 1, 0)
            est_pos = reg_st > 0
            cand_cache.clear()
            deg_dirty = False
        # The shared tracker verdict is a scalar per record, so active
        # degrees are the register maxima or nothing.
        ke = ke_full if st_ok[t] else 0
        je = je_full if sm_ok[t] else 0
        if ke or je or nl_any:
            # Stride slot k duplicates next-line iff stride*k == 1
            # and repeats an earlier stride slot iff stride == 0;
            # stream slots additionally dedup against every stride
            # slot the lane's degree exposes. Equality is transitive,
            # so comparing against dropped duplicates reproduces the
            # dict side's set-based dedup verdict exactly. Column
            # count adapts to the record's max active degrees.
            # Candidate *values* are block + per-column offsets (the
            # verdict's stride/direction are record scalars), so the
            # offset vector and per-lane validity mask are cached per
            # (degrees, stride, direction) and only the block-relative
            # work runs per record.
            sv = st_stride[t]
            dv = sm_dir[t]
            ck = (ke, je, int(sv) if ke else 0, int(dv) if je else 0)
            ent = cand_cache.get(ck)
            if ent is None:
                width = 1 + ke + je
                offs = np.empty(width, dtype=np.int64)
                offs[0] = 1
                valid = np.empty((num_lanes, width), dtype=bool)
                valid[:, 0] = nlb
                if ke:
                    kd = kdeg[:ke]
                    stc = sv * kd
                    dup_st = (nlb[:, None] & (stc == 1)) | (
                        (sv == 0) & (kd > 1)
                    )
                    offs[1:1 + ke] = stc
                    valid[:, 1:1 + ke] = (
                        kd <= reg_st[:, None]
                    ) & ~dup_st
                if je:
                    jd = jdeg[:je]
                    smc = dv * jd
                    dup_sm = (nlb[:, None] & (smc == 1)) | (
                        (dv == 0) & (jd > 1)
                    )
                    if ke:
                        eqc = np.cumsum(
                            smc[:, None] == stc[None, :], axis=1
                        )
                        dup_sm |= (
                            eqc[:, est_m1].T != 0
                        ) & est_pos[:, None]
                    offs[1 + ke:] = smc
                    valid[:, 1 + ke:] = (
                        jd <= reg_sm[:, None]
                    ) & ~dup_sm
                # offs is a lane-invariant candidate-offset memo; its
                # min() reduces the candidate axis, not the lane axis.
                cand_cache[ck] = ent = (offs, valid, int(offs.min()))
            offs, valid, offs_min = ent
            # Every lane shares the candidate row, so ``cand`` is 1-D
            # and downstream gathers index it by column alone.
            cand = block + offs
            # A candidate whose block id underflows below zero is
            # dropped. The cached offset minimum turns the per-record
            # check into scalar arithmetic.
            vmask = (
                (valid & (cand >= 0)) if block + offs_min < 0
                else valid
            )
            in_l2 = (
                (l2_data[:, cand % l2_num_sets] >> 3)
                == cand[None, :, None]
            ).any(axis=2)
            nb = vmask & ~in_l2
            if fq.hi:
                # Bucket-table prefilter with tiny (C,) index
                # vectors: exact negatives from one gather.
                maybe = (fq.tab[:, cand & 255] != 0) & nb
                if maybe.any():
                    qr, qc = maybe.nonzero()
                    qhit = (
                        fq.block[qr, :fq.hi] == cand[qc][:, None]
                    ).any(axis=1)
                    nb[qr[qhit], qc[qhit]] = False
            # Both drop thresholds (in-flight prefetches, MSHR
            # occupancy) only grow as a record issues, so each
            # lane issues a prefix of its non-blocked candidates
            # and drops the rest — a rank-vs-budget test.
            budget = np.minimum(
                max_inflight_prefetches - st.ipf,
                mshr_capacity - fq.length,
            )
            cum_nb = np.cumsum(nb, axis=1)
            ins = nb & (cum_nb <= budget[:, None])
            # The budget cut keeps a per-lane prefix of the
            # non-blocked candidates, so the insert count is
            # min(total, budget) — no second (N, C) reduction.
            tot_nb = cum_nb[:, -1]
            ins_n = np.minimum(tot_nb, budget)
            pf_dropped += tot_nb - ins_n
            pf_issued += ins_n
            st.ipf += ins_n
            if ins_n.any():
                # The LLC probe only matters for issued prefetches:
                # gather (K, ways) for the ins rows instead of
                # scanning (N, C, ways).
                ir, ic = ins.nonzero()
                cb = cand[ic]
                llc_in = (
                    (llc_data[ir, cb % llc_num_sets] >> 3)
                    == cb[:, None]
                ).any(axis=1)
                request = (cycle + l2_latency) + llc_latency
                dram_c = np.zeros(ins.shape, dtype=bool)
                dram_c[ir, ic] = ~llc_in
                nd = dram_c.sum(axis=1)
                maxrank = int(nd.max())
                if maxrank:
                    # A lane's k-th DRAM prefetch starts exactly one
                    # line-transfer after its (k-1)-th: once the
                    # first start clears max(request, dram_free),
                    # every later max() resolves to the channel-free
                    # side, so the chain is iterative adds (kept
                    # iterative for float bit-identity with the
                    # scalar path).
                    starts = np.empty((num_lanes, maxrank))
                    col = maximum(request, st.dram_free)
                    starts[:, 0] = col
                    for rr in range(1, maxrank):
                        col = col + dram_line_cost
                        starts[:, rr] = col
                    # Off-candidate slots gather a wrapped column
                    # (cumsum - 1 == -1 before the first DRAM
                    # prefetch); the where() masks them out.
                    drank = np.cumsum(dram_c, axis=1) - 1
                    ready_mat = np.where(
                        dram_c,
                        starts[lidx, drank] + dram_latency,
                        request[:, None],
                    )
                    has = (nd > 0).nonzero()[0]
                    st.dram_free[has] = (
                        starts[has, nd[has] - 1] + dram_line_cost
                    )
                else:
                    # No DRAM prefetch this record: every insert of a
                    # lane shares its request cycle, kept 1-D.
                    ready_mat = request
                fq.insert_many(ready_mat, cand, ins, cum_nb, ins_n)
        return ready_arr

    def finish() -> _LaneCounters:
        # hierarchy.finalize(): flush in-flight fills in (ready, block)
        # order, then count never-used prefetched L2 lines as wrong (-1
        # empty ways give (line & 3) == 3 and never match).
        _drain_ready_fills(st, fq, None)
        st.pf_wrong += ((l2_data & 3) == 1).sum(axis=(1, 2))
        return _LaneCounters(
            l2dh.tolist(), llcda.tolist(), llcdh.tolist(),
            dram_fills.tolist(), st.writebacks.tolist(), pf_issued.tolist(),
            pf_timely.tolist(), pf_late.tolist(), st.pf_wrong.tolist(),
            pf_dropped.tolist(),
        )

    return apply_arm, miss_row, finish
