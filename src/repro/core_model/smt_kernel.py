"""Fused allocation-free cycle kernel for the 2-thread SMT pipeline.

This is the SMT counterpart of :mod:`repro.core_model.replay_kernel`: one
function that runs a batch of Hill-Climbing epochs with every per-cycle
stage of :class:`repro.smt.pipeline.SMTPipeline` inlined and all mutable
state held in local variables. The Python-level overheads the object path
pays every cycle — five stage-method calls, ``self.config`` attribute
chains, bound-method lookups on deques and dicts — are hoisted once per
kernel call, and the pipeline object is written back only at epoch
boundaries (scalars the hook observes) and once at the end (everything).

Semantics are bit-identical to ``SMTPipeline.step``: same stage order
(store drain, commit, issue, rename, fetch), same shared-RNG draw order
for store drains and load latencies, same round-robin tie-breaking, and
the same floating-point expressions for gating thresholds and epoch IPC.
The runtime sanitizer (``REPRO_SANITIZE=1``) checks per-epoch equality end
to end, and ``tests/test_differential_paths.py`` fuzzes the kernel against
the object path over random mixes, policies and epoch budgets.

The epoch-boundary hook is the kernel's only mid-run exit: after each
epoch the per-thread committed counters and the cycle count are flushed
and ``epoch_hook(pipeline, epoch_ipc)`` is invoked (when provided). The
hook must treat the pipeline as read-only — all remaining state (IQ,
fetch queues, occupancies, RNG position) is flushed only when the kernel
returns. Passing ``epoch_hook=None`` keeps the hot loop branch-free at
epoch boundaries.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.smt.pipeline import SMTPipeline
from repro.smt.uop import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    REG_WRITING_KINDS,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.smt.hill_climbing import HillClimbing

#: Environment variable that disables the fused SMT kernel ("0"/"false"/
#: "no"/"off"); unset or any other value keeps the fast path on.
KERNEL_ENV = "REPRO_SMT_KERNEL"

#: Called after each epoch with the (partially flushed) pipeline and the
#: epoch's IPC; must not mutate the pipeline.
EpochHook = Callable[[SMTPipeline, float], None]

_ORDER_01: Tuple[int, int] = (0, 1)
_ORDER_10: Tuple[int, int] = (1, 0)


def kernel_enabled() -> bool:
    """Is the fused SMT kernel switched on (the default)?"""
    # Kernel and object paths are bit-identical (sanitizer-verified), so
    # the gate cannot change any task result.
    # repro: cache-invariant[REPRO_SMT_KERNEL]
    value = os.environ.get(KERNEL_ENV, "").strip().lower()
    return value not in ("0", "false", "no", "off")


def kernel_eligible(pipeline: object) -> bool:
    """May ``pipeline`` run through the fused kernel?

    Subclasses fall back to the object path: the kernel inlines the stage
    methods, so any override would silently be skipped.
    """
    return kernel_enabled() and type(pipeline) is SMTPipeline


def run_smt_epochs_kernel(
    pipeline: SMTPipeline,
    hill_climbing: "HillClimbing",
    epochs: int,
    epoch_cycles: int,
    epoch_hook: Optional[EpochHook] = None,
) -> None:
    """Run ``epochs`` Hill-Climbing epochs of ``epoch_cycles`` cycles each.

    Equivalent to the object path's per-epoch loop::

        for _ in range(epochs):
            pipeline.set_allowances(hill_climbing.allowances)
            epoch_ipc = pipeline.run(epoch_cycles)
            hill_climbing.end_epoch(epoch_ipc)

    but with the whole cycle loop fused. The PG policy must not change
    mid-call (the bandit controller switches arms only between calls).
    """
    config = pipeline.config
    fetch_width = config.fetch_width
    decode_width = config.decode_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    iq_size = config.iq_size
    rob_size = config.rob_size
    lq_size = config.lq_size
    sq_size = config.sq_size
    lsq_size = lq_size + sq_size
    irf_size = pipeline._effective_irf
    fetchq_capacity = config.fetchq_capacity
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    dram_latency = config.dram_latency
    mispredict_penalty = config.mispredict_penalty
    reg_writing = REG_WRITING_KINDS

    policy = pipeline.policy
    priority = policy.priority
    priority_is_rr = priority == "RR"
    priority_is_ic = priority == "IC"
    priority_is_brc = priority == "BrC"
    gates_anything = policy.gates_anything
    gate_iq = policy.gate_iq
    gate_lsq = policy.gate_lsq
    gate_rob = policy.gate_rob
    gate_irf = policy.gate_irf

    thread0, thread1 = pipeline.threads
    profile0 = thread0.profile
    profile1 = thread1.profile
    # Same IEEE expressions as SMTPipeline._memory_latency, precomputed:
    # the L1/L2 service-level cut points of each thread's profile.
    l1_cut = (profile0.l1_hit_rate, profile1.l1_hit_rate)
    l2_cut = (
        profile0.l1_hit_rate + (1.0 - profile0.l1_hit_rate) * profile0.l2_hit_rate,
        profile1.l1_hit_rate + (1.0 - profile1.l1_hit_rate) * profile1.l2_hit_rate,
    )
    long_latency = (profile0.long_op_latency, profile1.long_op_latency)
    stream_next = (thread0.stream.__next__, thread1.stream.__next__)
    fetchqs = (thread0.fetchq, thread1.fetchq)
    fetchq_poplefts = (thread0.fetchq.popleft, thread1.fetchq.popleft)
    fetchq_appends = (thread0.fetchq.append, thread1.fetchq.append)
    robs = (thread0.rob, thread1.rob)
    rob_poplefts = (thread0.rob.popleft, thread1.rob.popleft)
    rob_appends = (thread0.rob.append, thread1.rob.append)
    completions: List[Dict[int, float]] = [thread0.completion, thread1.completion]
    completion_gets = [thread0.completion.get, thread1.completion.get]
    next_seqs = [thread0.next_seq, thread1.next_seq]
    committed = [thread0.committed, thread1.committed]
    committed_seqs = [thread0.committed_seq, thread1.committed_seq]
    blocked_seqs: List[Optional[int]] = [thread0.blocked_seq, thread1.blocked_seq]
    iq_occ = [thread0.iq_occ, thread1.iq_occ]
    rob_occ = [thread0.rob_occ, thread1.rob_occ]
    lq_occ = [thread0.lq_occ, thread1.lq_occ]
    sq_occ = [thread0.sq_occ, thread1.sq_occ]
    irf_occ = [thread0.irf_occ, thread1.irf_occ]
    branches = [thread0.branches_in_rob, thread1.branches_in_rob]

    iq = pipeline._iq
    iq_append = iq.append
    sq_releases = pipeline._sq_releases
    mem_random = pipeline._mem_rng.random
    cycle = pipeline.cycle
    rr = pipeline._rr_counter

    activity = pipeline.rename_activity
    act_cycles = activity.cycles
    act_running = activity.running
    act_idle = activity.idle
    act_stalled = activity.stalled
    act_rob = activity.stalled_rob
    act_iq = activity.stalled_iq
    act_lq = activity.stalled_lq
    act_sq = activity.stalled_sq
    act_rf = activity.stalled_rf

    allowances = pipeline.allowances
    for _ in range(epochs):
        allowances = hill_climbing.allowances
        allowance0, allowance1 = allowances
        # Gating thresholds are fixed for the epoch (same products as
        # gated_threads computes per cycle, hence bit-identical).
        fraction0 = allowance0 / iq_size
        fraction1 = allowance1 / iq_size
        lsq_threshold0 = fraction0 * lsq_size
        lsq_threshold1 = fraction1 * lsq_size
        rob_threshold0 = fraction0 * rob_size
        rob_threshold1 = fraction1 * rob_size
        irf_threshold0 = fraction0 * irf_size
        irf_threshold1 = fraction1 * irf_size

        epoch_start_committed = committed[0] + committed[1]
        end_cycle = cycle + epoch_cycles
        while cycle < end_cycle:
            # ---------------------------------------------- store drain
            while sq_releases and sq_releases[0][0] <= cycle:
                # heappop yields one scalar thread id
                sq_occ[heappop(sq_releases)[1]] -= 1

            order = _ORDER_10 if rr & 1 else _ORDER_01

            # --------------------------------------------------- commit
            budget = commit_width
            for ti in order:
                rob = robs[ti]
                if not rob:
                    continue
                completion_get = completion_gets[ti]
                rob_popleft = rob_poplefts[ti]
                while budget and rob:
                    seq, kind = rob[0]
                    done_at = completion_get(seq)
                    if done_at is None or done_at > cycle:
                        break
                    rob_popleft()
                    rob_occ[ti] -= 1
                    committed[ti] += 1
                    committed_seqs[ti] = seq
                    budget -= 1
                    if kind == KIND_BRANCH:
                        branches[ti] -= 1
                    elif kind == KIND_LOAD:
                        lq_occ[ti] -= 1
                    elif kind == KIND_STORE:
                        draw = mem_random()
                        if draw < l1_cut[ti]:
                            latency = l1_latency
                        elif draw < l2_cut[ti]:
                            latency = l2_latency
                        else:
                            latency = dram_latency
                        heappush(sq_releases, (cycle + latency, ti))
                    if kind in reg_writing:
                        irf_occ[ti] -= 1

            # ---------------------------------------------------- issue
            if iq:
                budget = issue_width
                issued_any = False
                for entry in iq:
                    if budget == 0:
                        break
                    ti, seq, dep1, dep2, kind = entry
                    completion_get = completion_gets[ti]
                    committed_seq = committed_seqs[ti]
                    if dep1 > committed_seq:
                        ready_at = completion_get(dep1)
                        if ready_at is None or ready_at > cycle:
                            continue
                    if dep2 > committed_seq:
                        ready_at = completion_get(dep2)
                        if ready_at is None or ready_at > cycle:
                            continue
                    if kind == KIND_LOAD:
                        draw = mem_random()
                        if draw < l1_cut[ti]:
                            latency = l1_latency
                        elif draw < l2_cut[ti]:
                            latency = l2_latency
                        else:
                            latency = dram_latency
                    elif kind == KIND_LONG:
                        latency = long_latency[ti]
                    else:
                        latency = 1
                    completions[ti][seq] = cycle + latency
                    iq_occ[ti] -= 1
                    entry[0] = -1
                    issued_any = True
                    budget -= 1
                if issued_any:
                    iq = [entry for entry in iq if entry[0] >= 0]
                    iq_append = iq.append

            # --------------------------------------------------- rename
            act_cycles += 1
            budget = decode_width
            renamed = 0
            stall_rob = stall_iq = stall_lq = stall_sq = stall_rf = False
            rob_total = rob_occ[0] + rob_occ[1]
            iq_total = iq_occ[0] + iq_occ[1]
            lq_total = lq_occ[0] + lq_occ[1]
            sq_total = sq_occ[0] + sq_occ[1]
            irf_total = irf_occ[0] + irf_occ[1]
            while budget:
                progressed = False
                for ti in order:
                    if budget == 0:
                        break
                    fetchq = fetchqs[ti]
                    if not fetchq:
                        continue
                    seq, kind, dep1, dep2, mispredict = fetchq[0]
                    stalled = False
                    if rob_total >= rob_size:
                        stall_rob = True
                        stalled = True
                    if iq_total >= iq_size:
                        stall_iq = True
                        stalled = True
                    if kind == KIND_LOAD and lq_total >= lq_size:
                        stall_lq = True
                        stalled = True
                    if kind == KIND_STORE and sq_total >= sq_size:
                        stall_sq = True
                        stalled = True
                    if kind in reg_writing and irf_total >= irf_size:
                        stall_rf = True
                        stalled = True
                    if stalled:
                        continue
                    fetchq_poplefts[ti]()
                    rob_appends[ti]((seq, kind))
                    rob_occ[ti] += 1
                    rob_total += 1
                    iq_occ[ti] += 1
                    iq_total += 1
                    iq_append([ti, seq, dep1, dep2, kind])
                    if kind == KIND_LOAD:
                        lq_occ[ti] += 1
                        lq_total += 1
                    elif kind == KIND_STORE:
                        sq_occ[ti] += 1
                        sq_total += 1
                    elif kind == KIND_BRANCH:
                        branches[ti] += 1
                    if kind in reg_writing:
                        irf_occ[ti] += 1
                        irf_total += 1
                    renamed += 1
                    budget -= 1
                    progressed = True
                if not progressed:
                    break
            if renamed:
                act_running += 1
            elif not fetchqs[0] and not fetchqs[1]:
                act_idle += 1
            else:
                act_stalled += 1
                if stall_rob:
                    act_rob += 1
                if stall_iq:
                    act_iq += 1
                if stall_lq:
                    act_lq += 1
                if stall_sq:
                    act_sq += 1
                if stall_rf:
                    act_rf += 1

            # ---------------------------------------------------- fetch
            gated0 = gated1 = False
            if gates_anything:
                if gate_iq and iq_occ[0] > allowance0:
                    gated0 = True
                elif gate_lsq and lq_occ[0] + sq_occ[0] > lsq_threshold0:
                    gated0 = True
                elif gate_rob and rob_occ[0] > rob_threshold0:
                    gated0 = True
                elif gate_irf and irf_occ[0] > irf_threshold0:
                    gated0 = True
                if gate_iq and iq_occ[1] > allowance1:
                    gated1 = True
                elif gate_lsq and lq_occ[1] + sq_occ[1] > lsq_threshold1:
                    gated1 = True
                elif gate_rob and rob_occ[1] > rob_threshold1:
                    gated1 = True
                elif gate_irf and irf_occ[1] > irf_threshold1:
                    gated1 = True
            # The blocked-branch check runs unconditionally per thread:
            # clearing a resolved redirect is a side effect the object
            # path performs even for threads that end up ineligible.
            eligible0 = True
            blocked = blocked_seqs[0]
            if blocked is not None:
                done_at = completion_gets[0](blocked)
                if done_at is not None and done_at + mispredict_penalty <= cycle:
                    blocked_seqs[0] = None
                else:
                    eligible0 = False
            if eligible0 and (len(fetchqs[0]) >= fetchq_capacity or gated0):
                eligible0 = False
            eligible1 = True
            blocked = blocked_seqs[1]
            if blocked is not None:
                done_at = completion_gets[1](blocked)
                if done_at is not None and done_at + mispredict_penalty <= cycle:
                    blocked_seqs[1] = None
                else:
                    eligible1 = False
            if eligible1 and (len(fetchqs[1]) >= fetchq_capacity or gated1):
                eligible1 = False
            if eligible0 and eligible1:
                if priority_is_rr:
                    choice = rr & 1
                else:
                    if priority_is_ic:
                        metric0 = iq_occ[0] + len(fetchqs[0])
                        metric1 = iq_occ[1] + len(fetchqs[1])
                    elif priority_is_brc:
                        metric0 = branches[0]
                        metric1 = branches[1]
                    else:
                        metric0 = lq_occ[0] + sq_occ[0]
                        metric1 = lq_occ[1] + sq_occ[1]
                    if metric0 < metric1:
                        choice = 0
                    elif metric1 < metric0:
                        choice = 1
                    else:
                        choice = rr & 1
            elif eligible0:
                choice = 0
            elif eligible1:
                choice = 1
            else:
                choice = -1
            if choice >= 0:
                snext = stream_next[choice]
                fetchq_append = fetchq_appends[choice]
                next_seq = next_seqs[choice]
                for _ in range(fetch_width):
                    kind, dep1_off, dep2_off, mispredict = snext()
                    seq = next_seq
                    next_seq = seq + 1
                    dep1 = seq - dep1_off if dep1_off else 0
                    dep2 = seq - dep2_off if dep2_off else 0
                    fetchq_append((
                        seq,
                        kind,
                        dep1 if dep1 > 0 else 0,
                        dep2 if dep2 > 0 else 0,
                        mispredict,
                    ))
                    if mispredict:
                        blocked_seqs[choice] = seq
                        break
                next_seqs[choice] = next_seq

            # ------------------------------------------------- bookkeeping
            if cycle % 4096 == 0:
                for ti in _ORDER_01:
                    completion = completions[ti]
                    if len(completion) > 2048:
                        floor = committed_seqs[ti] - 512
                        completion = {
                            seq: done
                            for seq, done in completion.items()
                            if seq >= floor
                        }
                        completions[ti] = completion
                        completion_gets[ti] = completion.get
            cycle += 1
            rr += 1

        # ------------------------------------------------ epoch boundary
        epoch_ipc = (committed[0] + committed[1] - epoch_start_committed) / epoch_cycles
        hill_climbing.end_epoch(epoch_ipc)
        if epoch_hook is not None:
            thread0.committed = committed[0]
            thread1.committed = committed[1]
            pipeline.cycle = cycle
            epoch_hook(pipeline, epoch_ipc)

    # ---------------------------------------------------------- write-back
    thread0.next_seq = next_seqs[0]
    thread1.next_seq = next_seqs[1]
    thread0.completion = completions[0]
    thread1.completion = completions[1]
    thread0.committed = committed[0]
    thread1.committed = committed[1]
    thread0.committed_seq = committed_seqs[0]
    thread1.committed_seq = committed_seqs[1]
    thread0.blocked_seq = blocked_seqs[0]
    thread1.blocked_seq = blocked_seqs[1]
    thread0.iq_occ = iq_occ[0]
    thread1.iq_occ = iq_occ[1]
    thread0.rob_occ = rob_occ[0]
    thread1.rob_occ = rob_occ[1]
    thread0.lq_occ = lq_occ[0]
    thread1.lq_occ = lq_occ[1]
    thread0.sq_occ = sq_occ[0]
    thread1.sq_occ = sq_occ[1]
    thread0.irf_occ = irf_occ[0]
    thread1.irf_occ = irf_occ[1]
    thread0.branches_in_rob = branches[0]
    thread1.branches_in_rob = branches[1]
    pipeline.cycle = cycle
    pipeline._rr_counter = rr
    pipeline._iq = iq
    pipeline.allowances = allowances
    activity.cycles = act_cycles
    activity.running = act_running
    activity.idle = act_idle
    activity.stalled = act_stalled
    activity.stalled_rob = act_rob
    activity.stalled_iq = act_iq
    activity.stalled_lq = act_lq
    activity.stalled_sq = act_sq
    activity.stalled_rf = act_rf
