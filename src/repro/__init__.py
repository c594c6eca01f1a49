"""Reproduction of *Micro-Armed Bandit* (Gerogiannis & Torrellas, MICRO 2023).

The package implements the paper's primary contribution — a lightweight
Multi-Armed Bandit hardware agent built around the Discounted Upper
Confidence Bound (DUCB) algorithm — together with every substrate its
evaluation depends on:

- :mod:`repro.bandit` — the MAB algorithms (ε-Greedy, UCB, DUCB), the
  exploration heuristics used as comparison points (Single, Periodic,
  BestStatic), the microarchitecture-specific modifications of §4.3, and a
  hardware cost/latency model of the agent.
- :mod:`repro.uncore` — a cache/memory substrate (set-associative caches,
  MSHRs, a bandwidth-limited DRAM model, a three-level hierarchy).
- :mod:`repro.core_model` — a trace-driven out-of-order core timing model in
  the style of ChampSim, plus a multi-core wrapper.
- :mod:`repro.prefetch` — the lightweight prefetchers Bandit orchestrates and
  all evaluated comparators (IP-stride, MLOP, Bingo, IPCP, Pythia).
- :mod:`repro.smt` — a cycle-level SMT pipeline with shared structures, fetch
  priority/gating policies, Choi Hill-Climbing, and Bandit PG-policy control.
- :mod:`repro.workloads` — seeded synthetic workload generators standing in
  for the SPEC/PARSEC/Ligra/CloudSuite traces (see DESIGN.md §2).
- :mod:`repro.experiments` — configuration tables and runners that regenerate
  every table and figure of the paper's evaluation.
- :mod:`repro.hwcost` — area/power/storage estimation (§6.5).
"""

from repro.bandit import (
    BanditConfig,
    BestStatic,
    DUCB,
    EpsilonGreedy,
    MicroArmedBandit,
    Periodic,
    Single,
    UCB,
)

__all__ = [
    "BanditConfig",
    "BestStatic",
    "DUCB",
    "EpsilonGreedy",
    "MicroArmedBandit",
    "Periodic",
    "Single",
    "UCB",
]

__version__ = "1.0.0"
