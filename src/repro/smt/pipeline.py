"""Cycle-level 2-thread SMT pipeline with dynamically shared structures.

The model follows the SecSMT-style configuration the paper uses (§6.1,
Table 5): every back-end structure — IQ, ROB, LQ, SQ, IRF — is dynamically
shared between threads, and the front end fetches from one thread per cycle,
selected by the active fetch Priority & Gating policy.

Stages modeled each cycle (in reverse pipeline order so same-cycle
structural hazards resolve naturally):

1. **Commit** — up to ``commit_width`` uops in total, in program order per
   thread, freeing ROB/IRF/LQ entries; stores free their SQ entry only after
   a post-commit drain whose latency is drawn from the thread's memory
   profile — which is how store-heavy, cache-missing threads (lbm) exhaust
   the SQ (§3.3).
2. **Issue** — up to ``issue_width`` ready uops from the shared IQ (oldest
   first); loads draw their service level (L1/L2/DRAM) from the profile.
3. **Rename/dispatch** — up to ``decode_width`` uops from the per-thread
   front-end queues into the shared structures; the stage's activity is
   classified as *running*, *idle*, or *stalled on <structure>* to reproduce
   Figure 15.
4. **Fetch** — the PG policy picks one non-gated, non-redirecting thread and
   fetches ``fetch_width`` uops into its front-end queue. A mispredicted
   branch blocks its thread's fetch until it resolves (front-end redirect).

The pipeline exposes ``set_policy`` and ``set_allowances`` so the Hill
Climbing algorithm and the Bandit controller can retune it at run time.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.fetch_policy import pick_thread
from repro.smt.gating import gated_threads
from repro.smt.pg_policy import PGPolicy
from repro.smt.uop import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    MISPREDICT_BIT,
    REG_WRITING_KINDS,
)
from repro.util.rng import make_rng
from repro.workloads.compiled import get_trace_store
from repro.workloads.smt import ThreadProfile


@dataclass(frozen=True)
class SMTConfig:
    """Pipeline parameters (defaults = Table 5, Skylake-like SMT core)."""

    fetch_width: int = 5
    decode_width: int = 5
    issue_width: int = 8
    commit_width: int = 8
    iq_size: int = 97
    rob_size: int = 224
    lq_size: int = 72
    sq_size: int = 56
    irf_size: int = 180
    fetchq_capacity: int = 16
    l1_latency: int = 4
    l2_latency: int = 14
    dram_latency: int = 220
    mispredict_penalty: int = 6
    #: Architectural registers reserved per thread out of the IRF.
    arch_regs_per_thread: int = 32

    def effective_irf(self, num_threads: int) -> int:
        return self.irf_size - self.arch_regs_per_thread * num_threads


@dataclass
class RenameActivity:
    """Figure 15 accounting: what the rename stage did each cycle."""

    cycles: int = 0
    running: int = 0
    idle: int = 0
    stalled: int = 0
    stalled_rob: int = 0
    stalled_iq: int = 0
    stalled_lq: int = 0
    stalled_sq: int = 0
    stalled_rf: int = 0

    def fractions(self) -> Dict[str, float]:
        total = self.cycles or 1
        return {
            "rob_full": self.stalled_rob / total,
            "iq_full": self.stalled_iq / total,
            "lq_full": self.stalled_lq / total,
            "sq_full": self.stalled_sq / total,
            "rf_full": self.stalled_rf / total,
            "stalled_any": self.stalled / total,
            "idle": self.idle / total,
            "running": self.running / total,
        }


class _ThreadState:
    """Per-thread pipeline state (flat attributes for speed).

    ``uops`` is the thread's shared stream from the active trace store;
    the next uop to fetch is uop ``next_seq - 1`` of it.
    """

    __slots__ = (
        "profile", "uops", "fetchq", "next_seq", "completion", "rob",
        "committed", "committed_seq", "blocked_seq", "iq_occ", "rob_occ",
        "lq_occ", "sq_occ", "irf_occ", "branches_in_rob",
    )

    def __init__(self, profile: ThreadProfile, seed: int) -> None:
        self.profile = profile
        self.uops = get_trace_store().uop_buffer(profile, seed)
        self.fetchq: deque = deque()
        self.next_seq = 1
        self.completion: Dict[int, float] = {}
        self.rob: deque = deque()  # (seq, kind)
        self.committed = 0
        self.committed_seq = 0
        self.blocked_seq: Optional[int] = None
        self.iq_occ = 0
        self.rob_occ = 0
        self.lq_occ = 0
        self.sq_occ = 0
        self.irf_occ = 0
        self.branches_in_rob = 0


class SMTPipeline:
    """The 2-thread SMT core, driven one cycle at a time."""

    def __init__(
        self,
        profiles: Sequence[ThreadProfile],
        policy: PGPolicy,
        config: SMTConfig = SMTConfig(),
        seed: int = 0,
    ) -> None:
        if len(profiles) != 2:
            raise ValueError("the SMT pipeline models exactly two threads")
        self.config = config
        self.policy = policy
        self.threads = [
            _ThreadState(profile, seed * 2 + index)
            for index, profile in enumerate(profiles)
        ]
        self._mem_rng = make_rng(seed, "smt-mem")
        self.cycle = 0
        # Shared IQ: entries [thread, seq, dep1, dep2, kind].
        self._iq: List[List[int]] = []
        # Store-drain releases: (release_cycle, thread_index).
        self._sq_releases: List[Tuple[float, int]] = []
        self._rr_counter = 0
        self.allowances: Tuple[float, float] = (
            config.iq_size / 2.0,
            config.iq_size / 2.0,
        )
        self.rename_activity = RenameActivity()
        self._effective_irf = config.effective_irf(2)

    # ------------------------------------------------------------------ API

    def set_policy(self, policy: PGPolicy) -> None:
        self.policy = policy

    def set_allowances(self, allowances: Tuple[float, float]) -> None:
        self.allowances = allowances

    @property
    def committed_total(self) -> int:
        return self.threads[0].committed + self.threads[1].committed

    def per_thread_committed(self) -> Tuple[int, int]:
        return (self.threads[0].committed, self.threads[1].committed)

    def run(self, cycles: int) -> float:
        """Run ``cycles`` cycles; returns the aggregate IPC over them."""
        start_committed = self.committed_total
        end_cycle = self.cycle + cycles
        while self.cycle < end_cycle:
            self.step()
        return (self.committed_total - start_committed) / cycles

    def step(self) -> None:
        """Advance the pipeline by one cycle."""
        cycle = self.cycle
        self._drain_stores(cycle)
        self._commit(cycle)
        self._issue(cycle)
        self._rename(cycle)
        self._fetch(cycle)
        self.cycle = cycle + 1
        self._rr_counter += 1
        if cycle % 4096 == 0:
            self._prune_completion()

    # ---------------------------------------------------------------- stages

    def _drain_stores(self, cycle: int) -> None:
        releases = self._sq_releases
        while releases and releases[0][0] <= cycle:
            _, thread_index = heapq.heappop(releases)
            self.threads[thread_index].sq_occ -= 1

    def _commit(self, cycle: int) -> None:
        budget = self.config.commit_width
        for offset in range(2):
            thread_index = (self._rr_counter + offset) % 2
            thread = self.threads[thread_index]
            rob = thread.rob
            completion = thread.completion
            while budget and rob:
                seq, kind = rob[0]
                done_at = completion.get(seq)
                if done_at is None or done_at > cycle:
                    break
                rob.popleft()
                thread.rob_occ -= 1
                thread.committed += 1
                thread.committed_seq = seq
                budget -= 1
                if kind == KIND_BRANCH:
                    thread.branches_in_rob -= 1
                elif kind == KIND_LOAD:
                    thread.lq_occ -= 1
                elif kind == KIND_STORE:
                    # SQ entry is held until the store drains to memory.
                    drain = cycle + self._memory_latency(thread.profile)
                    heapq.heappush(self._sq_releases, (drain, thread_index))
                if kind in REG_WRITING_KINDS:
                    thread.irf_occ -= 1

    def _issue(self, cycle: int) -> None:
        budget = self.config.issue_width
        iq = self._iq
        if not iq:
            return
        issued_any = False
        for entry in iq:
            if budget == 0:
                break
            thread_index, seq, dep1, dep2, kind = entry
            thread = self.threads[thread_index]
            completion = thread.completion
            committed_seq = thread.committed_seq
            if dep1 > committed_seq:
                ready_at = completion.get(dep1)
                if ready_at is None or ready_at > cycle:
                    continue
            if dep2 > committed_seq:
                ready_at = completion.get(dep2)
                if ready_at is None or ready_at > cycle:
                    continue
            # Issue: draw the latency and record completion.
            if kind == KIND_LOAD:
                latency = self._memory_latency(thread.profile)
            elif kind == KIND_LONG:
                latency = thread.profile.long_op_latency
            else:
                latency = 1
            completion[seq] = cycle + latency
            thread.iq_occ -= 1
            entry[0] = -1  # mark consumed
            issued_any = True
            budget -= 1
        if issued_any:
            self._iq = [entry for entry in iq if entry[0] >= 0]

    def _rename(self, cycle: int) -> None:
        config = self.config
        budget = config.decode_width
        activity = self.rename_activity
        activity.cycles += 1
        renamed = 0
        stall_reasons = set()
        rob_total = self.threads[0].rob_occ + self.threads[1].rob_occ
        iq_total = self.threads[0].iq_occ + self.threads[1].iq_occ
        lq_total = self.threads[0].lq_occ + self.threads[1].lq_occ
        sq_total = self.threads[0].sq_occ + self.threads[1].sq_occ
        irf_total = self.threads[0].irf_occ + self.threads[1].irf_occ
        order = (self._rr_counter % 2, (self._rr_counter + 1) % 2)
        while budget:
            progressed = False
            for thread_index in order:
                if budget == 0:
                    break
                thread = self.threads[thread_index]
                if not thread.fetchq:
                    continue
                seq, kind, dep1, dep2, mispredict = thread.fetchq[0]
                reasons = []
                if rob_total >= config.rob_size:
                    reasons.append("rob")
                if iq_total >= config.iq_size:
                    reasons.append("iq")
                if kind == KIND_LOAD and lq_total >= config.lq_size:
                    reasons.append("lq")
                if kind == KIND_STORE and sq_total >= config.sq_size:
                    reasons.append("sq")
                if kind in REG_WRITING_KINDS and irf_total >= self._effective_irf:
                    reasons.append("rf")
                if reasons:
                    stall_reasons.update(reasons)
                    continue
                thread.fetchq.popleft()
                thread.rob.append((seq, kind))
                thread.rob_occ += 1
                rob_total += 1
                thread.iq_occ += 1
                iq_total += 1
                self._iq.append([thread_index, seq, dep1, dep2, kind])
                if kind == KIND_LOAD:
                    thread.lq_occ += 1
                    lq_total += 1
                elif kind == KIND_STORE:
                    thread.sq_occ += 1
                    sq_total += 1
                elif kind == KIND_BRANCH:
                    thread.branches_in_rob += 1
                if kind in REG_WRITING_KINDS:
                    thread.irf_occ += 1
                    irf_total += 1
                renamed += 1
                budget -= 1
                progressed = True
            if not progressed:
                break
        if renamed:
            activity.running += 1
        elif not self.threads[0].fetchq and not self.threads[1].fetchq:
            activity.idle += 1
        else:
            activity.stalled += 1
            if "rob" in stall_reasons:
                activity.stalled_rob += 1
            if "iq" in stall_reasons:
                activity.stalled_iq += 1
            if "lq" in stall_reasons:
                activity.stalled_lq += 1
            if "sq" in stall_reasons:
                activity.stalled_sq += 1
            if "rf" in stall_reasons:
                activity.stalled_rf += 1

    def _fetch(self, cycle: int) -> None:
        config = self.config
        eligible = []
        icount = [0, 0]
        branch_count = [0, 0]
        lsq_count = [0, 0]
        gated = self._gating()
        for thread_index, thread in enumerate(self.threads):
            icount[thread_index] = thread.iq_occ + len(thread.fetchq)
            branch_count[thread_index] = thread.branches_in_rob
            lsq_count[thread_index] = thread.lq_occ + thread.sq_occ
            if thread.blocked_seq is not None:
                done_at = thread.completion.get(thread.blocked_seq)
                if done_at is not None and done_at + config.mispredict_penalty <= cycle:
                    thread.blocked_seq = None
                else:
                    continue
            if len(thread.fetchq) >= config.fetchq_capacity:
                continue
            if gated[thread_index]:
                continue
            eligible.append(thread_index)
        choice = pick_thread(
            self.policy.priority, eligible, icount, branch_count, lsq_count,
            self._rr_counter,
        )
        if choice is None:
            return
        thread = self.threads[choice]
        uops = thread.uops
        uops.reserve(thread.next_seq - 1 + config.fetch_width)
        for _ in range(config.fetch_width):
            seq = thread.next_seq
            thread.next_seq = seq + 1
            code = uops.codes[seq - 1]
            kind = code & ~MISPREDICT_BIT
            mispredict = code != kind
            dep1_off = uops.dep1[seq - 1]
            dep2_off = uops.dep2[seq - 1]
            dep1 = seq - dep1_off if dep1_off else 0
            dep2 = seq - dep2_off if dep2_off else 0
            thread.fetchq.append((seq, kind, max(dep1, 0), max(dep2, 0), mispredict))
            if mispredict:
                # Front-end redirect: stop fetching this thread until the
                # branch resolves.
                thread.blocked_seq = seq
                break

    # ------------------------------------------------------------- internals

    def _gating(self) -> List[bool]:
        config = self.config
        threads = self.threads
        return gated_threads(
            self.policy,
            self.allowances,
            config.iq_size,
            [threads[0].iq_occ, threads[1].iq_occ],
            [threads[0].lq_occ + threads[0].sq_occ,
             threads[1].lq_occ + threads[1].sq_occ],
            [threads[0].rob_occ, threads[1].rob_occ],
            [threads[0].irf_occ, threads[1].irf_occ],
            config.lq_size + config.sq_size,
            config.rob_size,
            self._effective_irf,
        )

    def _memory_latency(self, profile: ThreadProfile) -> int:
        draw = self._mem_rng.random()
        if draw < profile.l1_hit_rate:
            return self.config.l1_latency
        if draw < profile.l1_hit_rate + (1.0 - profile.l1_hit_rate) * profile.l2_hit_rate:
            return self.config.l2_latency
        return self.config.dram_latency

    def _prune_completion(self) -> None:
        # Dependence offsets are bounded (≤ 256), so completion entries far
        # below the commit frontier can never be consulted again.
        for thread in self.threads:
            if len(thread.completion) > 2048:
                floor = thread.committed_seq - 512
                thread.completion = {
                    seq: done
                    for seq, done in thread.completion.items()
                    if seq >= floor
                }
