"""Fetch priority policies of §3.2 (Tullsen et al. [74]).

Given the per-thread occupancy metrics maintained by the pipeline, each
policy ranks the fetch-eligible threads and the pipeline fetches from the
winner this cycle:

- **IC (ICount)** — fewest instructions in the front end + instruction queue.
- **BrC (Branch Count)** — fewest branches in the ROB.
- **LSQC (LSQ Count)** — fewest load/store-queue entries.
- **RR (Round Robin)** — alternate regardless of occupancy.
"""

from __future__ import annotations

from typing import Optional, Sequence

FETCH_PRIORITIES = ("BrC", "IC", "LSQC", "RR")


def pick_thread(
    priority: str,
    eligible: Sequence[int],
    icount: Sequence[int],
    branch_count: Sequence[int],
    lsq_count: Sequence[int],
    rr_counter: int,
) -> Optional[int]:
    """Select the thread to fetch from this cycle (None if none eligible).

    ``rr_counter`` should increase every cycle; ties in the metric-based
    policies are broken round-robin as well so a symmetric pair of threads
    shares fetch bandwidth evenly.
    """
    if not eligible:
        return None
    if len(eligible) == 1:
        return eligible[0]
    if priority == "RR":
        return eligible[rr_counter % len(eligible)]
    if priority == "IC":
        metric = icount
    elif priority == "BrC":
        metric = branch_count
    elif priority == "LSQC":
        metric = lsq_count
    else:
        raise ValueError(f"unknown fetch priority {priority!r}")
    best_value = min(metric[thread] for thread in eligible)
    winners = [thread for thread in eligible if metric[thread] == best_value]
    return winners[rr_counter % len(winners)]
