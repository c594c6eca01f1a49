"""Cache/memory substrate: set-associative caches, MSHRs, DRAM, hierarchy.

This package is the reproduction's stand-in for ChampSim's uncore: a
three-level cache hierarchy (private L1/L2, shared LLC) over a
bandwidth-limited DRAM model with configurable MTPS (Figure 10's sweep).
"""

from repro.uncore.cache import Cache, CacheLine
from repro.uncore.dram import DRAMModel, mtps_to_cycles_per_line
from repro.uncore.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    HierarchyStats,
    PrefetchOutcome,
)
from repro.uncore.mshr import MSHR
from repro.uncore.replacement import (
    LRUReplacement,
    PolicyCache,
    ReplacementPolicy,
    SRRIP,
)

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CacheLine",
    "DRAMModel",
    "HierarchyConfig",
    "HierarchyStats",
    "LRUReplacement",
    "MSHR",
    "PolicyCache",
    "PrefetchOutcome",
    "ReplacementPolicy",
    "SRRIP",
    "mtps_to_cycles_per_line",
]
