"""Fused cycle kernel for the 2-thread SMT pipeline.

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
to end, ``tests/test_differential_paths.py`` fuzzes the kernel against
the object path over random mixes, policies, pipeline configs (zero
latencies included) and epoch budgets, and ``tests/test_smt_kernel.py``
compares the whole pipeline state the two paths leave, past two
completion prunes.

The issue stage is the one stage built differently. The object path scans
the whole IQ every cycle and issues the first ``issue_width`` entries whose
producers have completed; most entries it visits are still waiting. The
kernel instead wakes an entry when its producers issue:

- **Rename.** Each entry takes an age, its rename order, and registers
  with every producer above ``committed_seq`` that has not issued yet.
- **Wake-up.** When a producer issues, its consumers learn its completion
  cycle. A consumer with no unissued producer left waits in a heap keyed
  by its ready cycle, or, when that cycle is not after the current one (a
  zero latency), joins the ready heap at once: the scan would reach this
  younger entry later in the same cycle.
- **Issue.** Each cycle, entries whose ready cycle has come move to a heap
  keyed by age, and the kernel issues the oldest ``issue_width`` of them.

Oldest-ready-first is the scan's order. The IQ holds entries in rename
order, so the scan visits them oldest first and issues each ready one
until the budget runs out; an issue can only make a younger entry ready,
which the scan has not reached yet. The issued entries, their order and
so the load-latency RNG draws are the same. The IQ is the hand-off
between the two paths: the kernel rebuilds its wake-up state from
``pipeline._iq`` on entry and writes the IQ back in age order on exit.

The kernel also jumps over quiescent cycles, as an event-driven core
stops ticking while no stage is active; ``SMTPipeline.step`` still steps
every cycle. A cycle that renamed nothing, fetched nothing and left the
ready heap empty repeats itself until the next event, the earliest of:

- the first store release, where a store drain frees an SQ entry;
- each thread's ROB-head completion, where commit resumes (it retires in
  order, so nothing behind the head can go first);
- the head of ``waiting``, where an entry becomes ready to issue (an
  entry with an unissued producer waits for that producer's issue);
- each blocked branch's completion plus ``mispredict_penalty``, where
  fetch clears the redirect;
- the next completion prune, at a multiple of 4,096 cycles;
- the end of the epoch, where Hill Climbing sets new allowances.

Before that event drain, commit and issue find nothing to do. Rename
then sees the same fetch-queue heads and occupancies and stalls (or
idles) for the same reasons, and fetch sees the same occupancies, queue
lengths, allowances (fixed within an epoch) and blocked threads, so it
fetches nothing. Round-robin order only breaks ties between threads that
act, and the RNG is drawn only when a store commits or a load issues. A
skipped cycle thus changes nothing but ``rr`` and the rename counters:
:func:`_next_event` finds the event, and the kernel advances ``cycle``
and ``rr`` straight to it, adding the skipped cycles to ``cycles`` and
to the counters the quiescent cycle set (``idle``, or ``stalled`` and
its per-structure counters).

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
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.smt.pipeline import SMTPipeline
from repro.smt.uop import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    MISPREDICT_BIT,
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

#: The kernel's IQ entry, ``[age, thread, seq, dep1, dep2, kind, unissued,
#: ready]``: the pipeline's ``[thread, seq, dep1, dep2, kind]`` between its
#: rename order and its wake-up state (see :func:`_admit`).
_Entry = List[Any]


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


def _admit(
    entry: _Entry,
    committed_seq: int,
    completion_get: Callable[[int], Optional[float]],
    thread_waiters: Dict[int, List[_Entry]],
    ready: List[_Entry],
    waiting: List[Tuple[float, _Entry]],
    next_issue: int,
) -> None:
    """Register a renamed IQ ``entry`` with its producers that have not issued.

    A producer at or below ``committed_seq`` has completed; an issued one
    bounds ``ready`` by its completion cycle. An entry with an unissued
    producer counts them in ``unissued`` (a producer named twice counts
    twice, as it wakes the entry twice). Any other entry goes to ``ready``
    when it may issue at ``next_issue``, else to ``waiting``.
    """
    ready_at: float = 0
    unissued = 0
    for dep in (entry[3], entry[4]):
        if dep > committed_seq:
            done_at = completion_get(dep)
            if done_at is None:
                consumers = thread_waiters.get(dep)
                if consumers is None:
                    thread_waiters[dep] = [entry]
                else:
                    consumers.append(entry)
                unissued += 1
            elif done_at > ready_at:
                ready_at = done_at
    if unissued:
        entry[6] = unissued
        entry[7] = ready_at
    elif ready_at <= next_issue:
        heappush(ready, entry)
    else:
        heappush(waiting, (ready_at, entry))


def _next_event(
    cycle: int,
    end_cycle: int,
    sq_releases: List[Tuple[float, int]],
    waiting: List[Tuple[float, _Entry]],
    robs: Sequence[Sequence[Tuple[int, int]]],
    completion_gets: Sequence[Callable[[int], Optional[float]]],
    blocked_seqs: Sequence[Optional[int]],
    mispredict_penalty: int,
) -> int:
    """The first cycle after a quiescent ``cycle`` at which a stage may act.

    That is the earliest of the first store release, each thread's ROB-head
    completion, the head of ``waiting``, each blocked branch's completion
    plus ``mispredict_penalty``, the next completion prune and
    ``end_cycle``; or ``cycle + 1`` when one of them is already due.
    """
    wake: float = cycle - cycle % 4096 + 4096
    if end_cycle < wake:
        wake = end_cycle
    if sq_releases and sq_releases[0][0] < wake:
        wake = sq_releases[0][0]
    if waiting and waiting[0][0] < wake:
        wake = waiting[0][0]
    for ti in _ORDER_01:
        rob = robs[ti]
        if rob:
            done_at = completion_gets[ti](rob[0][0])
            if done_at is not None and done_at < wake:
                wake = done_at
        blocked = blocked_seqs[ti]
        if blocked is not None:
            done_at = completion_gets[ti](blocked)
            if done_at is not None and done_at + mispredict_penalty < wake:
                wake = done_at + mispredict_penalty
    return int(wake) if wake > cycle else cycle + 1


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
    # Each thread's shared uop columns and their grow call; the buffers
    # grow in place, so the columns stay valid across a reserve.
    uop_columns = tuple(
        (uops.codes, uops.dep1, uops.dep2, uops.reserve)
        for uops in (thread0.uops, thread1.uops)
    )
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

    sq_releases = pipeline._sq_releases
    mem_random = pipeline._mem_rng.random
    cycle = pipeline.cycle
    rr = pipeline._rr_counter

    # Wake-up state, rebuilt from the IQ on every call: ``live`` maps age
    # to entry in age order, ``waiters[ti]`` an unissued producer's seq to
    # its consumers, ``waiting`` holds ``(ready cycle, entry)`` pairs and
    # ``ready`` the entries that may issue at the next issue stage.
    live: Dict[int, _Entry] = {}
    waiters: Tuple[Dict[int, List[_Entry]], ...] = ({}, {})
    waiting: List[Tuple[float, _Entry]] = []
    ready: List[_Entry] = []
    age = 0
    for ti, seq, dep1, dep2, kind in pipeline._iq:
        entry = [age, ti, seq, dep1, dep2, kind, 0, 0]
        live[age] = entry
        age += 1
        _admit(entry, committed_seqs[ti], completion_gets[ti], waiters[ti],
               ready, waiting, cycle)

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
            while waiting and waiting[0][0] <= cycle:
                heappush(ready, heappop(waiting)[1])
            budget = issue_width
            while budget and ready:
                entry = heappop(ready)
                ti = entry[1]
                kind = entry[5]
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
                seq = entry[2]
                done_at = cycle + latency
                completions[ti][seq] = done_at
                iq_occ[ti] -= 1
                del live[entry[0]]
                budget -= 1
                consumers = waiters[ti].pop(seq, None)
                if consumers is not None:
                    for consumer in consumers:
                        if done_at > consumer[7]:
                            consumer[7] = done_at
                        consumer[6] -= 1
                        if consumer[6] == 0:
                            if consumer[7] <= cycle:
                                # Zero latency: the scan would reach this
                                # younger entry later in this same cycle.
                                heappush(ready, consumer)
                            else:
                                heappush(waiting, (consumer[7], consumer))

            # --------------------------------------------------- rename
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
                    entry = [age, ti, seq, dep1, dep2, kind, 0, 0]
                    live[age] = entry
                    age += 1
                    _admit(entry, committed_seqs[ti], completion_gets[ti],
                           waiters[ti], ready, waiting, cycle + 1)
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
            # Counted below, once the jump has set how many cycles this
            # one stands for.
            idle = not renamed and not fetchqs[0] and not fetchqs[1]

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
                codes, dep1s, dep2s, reserve = uop_columns[choice]
                fetchq_append = fetchq_appends[choice]
                # Uop ``i`` of a buffer has sequence number ``i + 1``:
                # ``seq`` indexes the thread's next uop, then numbers it.
                seq = next_seqs[choice] - 1
                if seq + fetch_width > len(codes):
                    reserve(seq + fetch_width)
                for _ in range(fetch_width):
                    code = codes[seq]
                    dep1 = dep1s[seq]
                    dep2 = dep2s[seq]
                    seq += 1
                    kind = code & ~MISPREDICT_BIT
                    mispredict = code != kind
                    fetchq_append((
                        seq,
                        kind,
                        seq - dep1 if 0 < dep1 < seq else 0,
                        seq - dep2 if 0 < dep2 < seq else 0,
                        mispredict,
                    ))
                    if mispredict:
                        blocked_seqs[choice] = seq
                        break
                next_seqs[choice] = seq + 1

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

            # ----------------------------------------------------- jump
            # A cycle that renamed and fetched nothing and left nothing
            # ready repeats until the next event: ``span`` cycles in all.
            span = 1
            if not renamed and choice < 0 and not ready:
                span = _next_event(cycle, end_cycle, sq_releases, waiting,
                                   robs, completion_gets, blocked_seqs,
                                   mispredict_penalty) - cycle
            act_cycles += span
            if renamed:
                act_running += 1
            elif idle:
                act_idle += span
            else:
                act_stalled += span
                if stall_rob:
                    act_rob += span
                if stall_iq:
                    act_iq += span
                if stall_lq:
                    act_lq += span
                if stall_sq:
                    act_sq += span
                if stall_rf:
                    act_rf += span
            cycle += span
            rr += span

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
    pipeline._iq = [entry[1:6] for entry in live.values()]
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
