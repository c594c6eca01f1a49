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
per lane — L2/LLC contents, MSHR state, DRAM channel timing — lives in the
memory side, :func:`_dict_memory`: an exact per-lane transcription of
:func:`~repro.core_model.replay_kernel.run_replay_kernel` on L1-miss
records (all lanes miss together, because hit/miss is shared), with each
lane's L2/LLC sets kept as insertion-ordered dicts and its MSHR as a
ready-cycle heap. It returns three closures: ``apply_arm(i, arm)`` loads
lane ``i``'s degree registers, ``miss_row(t, cycle, drain_to)`` runs
L1-miss record ``t`` on every lane and returns its demand-ready column,
and ``finish()`` drains the MSHRs and returns the per-lane counters.
Bandit lanes drive one
:class:`~repro.bandit.hardware.PrefetchBanditController` each
(:class:`_BanditLanes`).

:func:`run_lane_batch` runs the driver once per *distinct* lane. A lane's
replay reads its kind and, for an arm lane, its arm; a bandit lane's seed
feeds only the agent's RNG, which single-core DUCB never draws from
(Table 6 gives it no randomness, and §4.3's round-robin restart is
multicore only). So bandit lanes that differ only in seed replay one
episode, and a replication sweep of 11 arms plus any number of seeds
replays 12 lanes.

The arithmetic is bit-identical to the scalar kernel: vector adds/maxima on
float64 columns perform the same IEEE-754 operations in the same order as
the scalar locals, so every lane's IPC, cycle counts, and hierarchy stats
match ``TraceCore.run_compiled`` exactly (asserted lane-by-lane, copies
included, under ``REPRO_SANITIZE=1``, and in ``tests/test_lane_kernel.py``).

``REPRO_LANE_KERNEL=scalar`` (or ``0``, or any ineligible lane/config)
replays every lane, copies included, through the scalar runners with its
own seed: the reference path. Ineligibility is reported as a
human-readable fallback reason that the experiment runner surfaces in
telemetry manifests (see :func:`lane_batch_fallback_reason`).
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

#: Set to ``scalar`` (or ``0``) to force every lane batch down the scalar
#: runner path; any other value runs the batched kernel.
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


def lane_kernel_mode() -> str:
    """The lane-kernel path selected by ``REPRO_LANE_KERNEL``.

    ``"scalar"`` for ``scalar``/``0``/``false``/``no``/``off`` (the
    per-lane scalar runners), ``"dict"`` (the batched kernel) for any
    other value or none.
    """
    # Both paths are bit-identical (sanitizer-verified), so the mode
    # cannot change any task result.
    # repro: cache-invariant[REPRO_LANE_KERNEL]
    value = os.environ.get(LANE_KERNEL_ENV, "").strip().lower()
    if value in ("0", "false", "no", "off", "scalar"):
        return "scalar"
    return "dict"


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

    Runs the batched kernel once over the distinct lanes (a lane's replay
    reads its kind and, for an arm lane, its arm; see the module
    docstring), and gives every copy of a lane that lane's result object.
    When ``REPRO_LANE_KERNEL=scalar`` or the batch is ineligible, the
    scalar runners
    (`run_fixed_prefetcher`/`run_fixed_arm`/`run_bandit_prefetch`) replay
    every lane with its own seed. Results are bit-identical either way;
    under ``REPRO_SANITIZE=1`` every requested lane, copies included, is
    also replayed through the object path with its own seed and checked
    lane by lane (see
    :func:`repro.core_model.sanitizer.verify_lane_batch`).
    """
    lanes = list(lanes)
    if params is None:
        from repro.experiments.configs import PREFETCH_BANDIT_CONFIG

        params = PREFETCH_BANDIT_CONFIG
    if not lanes:
        return []
    if (
        lane_kernel_mode() == "scalar"
        or lane_batch_fallback_reason(trace, lanes, params) is not None
    ):
        return _run_lanes_scalar(
            trace, lanes, hierarchy_config, core_config, params
        )
    slots: Dict[Tuple[str, Optional[int]], int] = {}
    distinct: List[LaneSpec] = []
    slot_of: List[int] = []
    for lane in lanes:
        key = (lane.kind, lane.arm if lane.kind == "arm" else None)
        if key not in slots:
            slots[key] = len(distinct)
            distinct.append(lane)
        slot_of.append(slots[key])
    sanitize = sanitize_enabled()
    results, checkpoints, step_logs = _lane_kernel(
        trace, distinct, hierarchy_config, core_config, params,
        collect_logs=sanitize,
    )
    if sanitize:
        from repro.core_model.sanitizer import verify_lane_batch

        verify_lane_batch(
            trace, lanes, [results[j] for j in slot_of],
            [checkpoints[j] for j in slot_of],
            {i: step_logs[j] for i, j in enumerate(slot_of)
             if j in step_logs},
            hierarchy_config, core_config, params,
        )
    return [results[j] for j in slot_of]


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
    """The memory side's per-lane counters at episode end, one list each."""

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


#: The memory side's closures. ``apply_arm(i, arm)`` loads lane ``i``'s
#: degree registers (a lane never given an arm is a ``"none"`` lane).
#: ``miss_row(t, cycle, drain_to)`` runs L1-miss record ``t`` on every lane
#: (MSHR drain up to ``drain_to``, L2/in-flight/LLC/DRAM probe, L1-victim
#: writeback, prefetch emission) and returns a fresh demand-ready column.
#: ``finish()`` drains every fill, counts the L2 lines still marked
#: prefetched as wrong and returns the per-lane counters.
_MemorySide = Tuple[
    Callable[[int, int], None],
    Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    Callable[[], _LaneCounters],
]


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
    collect_logs: bool = False,
) -> Tuple[
    List["PrefetchRunResult"],
    List[List[StepRecord]],
    Dict[int, List[StepRecord]],
]:
    """Advance every lane through the trace in one fused pass.

    The core side runs here; :func:`_dict_memory` builds the per-lane
    memory state and returns its ``(apply_arm, miss_row, finish)``
    closures (see :data:`_MemorySide`). Returns ``(results,
    checkpoint_logs, bandit_step_logs)``; the logs are only populated when
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

    apply_arm, miss_row, finish = _dict_memory(
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


# ================================================================ memory side


def _dict_memory(
    num_lanes: int, config: HierarchyConfig, pre: Dict[str, Any]
) -> _MemorySide:
    """Per-lane Python state, walked lane by lane on every L1-miss row.

    The kernel's one memory side. Each lane's L2/LLC sets are
    insertion-ordered dicts and its MSHR a ready-cycle heap. The driver
    only sees distinct lanes, at most 13 (none, 11 arms, one bandit), so
    the per-lane loop stays short.
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

    # ---- per-lane memory-side state (plain Python; each set is a dict in
    # recency order, LRU first, as in Cache).  L2 lines are packed small
    # ints (bit0 prefetched, bit2 dirty) and LLC lines a bare dirty bool
    # (LLC lines are never marked prefetched), so cache fills allocate
    # nothing ----
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
            if victim & 1:
                # Never demanded (the first demand hit clears bit0).
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
                if victim & 1:
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
                    l2_line &= ~1
                l2_set[block] = l2_line
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
                            if victim & 1:
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
            # +inf), then count the L2 lines still marked prefetched (bit0:
            # never demanded) as wrong.
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
                    if line & 1:
                        pf_wrong[i] += 1
        return _LaneCounters(
            l2dh, llcda, llcdh, dram_fills, writebacks,
            pf_issued, pf_timely, pf_late, pf_wrong, pf_dropped,
        )

    return apply_arm, miss_row, finish
