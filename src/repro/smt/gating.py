"""Occupancy-threshold fetch gating (Choi & Yeung [17], generalized in §3.3).

A thread is fetch-gated when its occupancy of any *monitored* structure
exceeds its allowance. Allowances are expressed in IQ entries (the Hill
Climbing δ unit of [17]) and scaled proportionally to each structure's size,
so one per-thread threshold governs IQ, LSQ, ROB, and IRF alike — exactly the
"same threshold for all the structures" design of the original paper.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.smt.pg_policy import PGPolicy


def gated_threads(
    policy: PGPolicy,
    allowances_iq_units: Sequence[float],
    iq_size: int,
    iq_occ: Sequence[int],
    lsq_occ: Sequence[int],
    rob_occ: Sequence[int],
    irf_occ: Sequence[int],
    lsq_size: int,
    rob_size: int,
    irf_size: int,
) -> List[bool]:
    """Per-thread gating decision under ``policy``.

    ``allowances_iq_units[t]`` is thread *t*'s allowance in IQ entries; the
    equivalent allowance for another structure scales by ``size/iq_size``.
    """
    num_threads = len(allowances_iq_units)
    gated = [False] * num_threads
    if not policy.gates_anything:
        return gated
    for thread in range(num_threads):
        fraction = allowances_iq_units[thread] / iq_size
        if policy.gate_iq and iq_occ[thread] > allowances_iq_units[thread]:
            gated[thread] = True
            continue
        if policy.gate_lsq and lsq_occ[thread] > fraction * lsq_size:
            gated[thread] = True
            continue
        if policy.gate_rob and rob_occ[thread] > fraction * rob_size:
            gated[thread] = True
            continue
        if policy.gate_irf and irf_occ[thread] > fraction * irf_size:
            gated[thread] = True
    return gated
