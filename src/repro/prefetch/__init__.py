"""Prefetchers: the lightweight ensemble Bandit controls and all comparators.

- Lightweight prefetchers (§5.2): :class:`NextLinePrefetcher`,
  :class:`StreamPrefetcher`, :class:`StridePrefetcher` — composed by
  :class:`EnsemblePrefetcher` under the Table 7 arm encoding.
- Baseline: :class:`IPStridePrefetcher` (§6.4).
- Non-RL comparators: :class:`MLOPPrefetcher`, :class:`BingoPrefetcher`,
  :class:`IPCPPrefetcher`.
- MDP-RL comparator: :class:`PythiaPrefetcher` (SARSA, §2.2/§6.4).
"""

from repro.prefetch.base import NullPrefetcher, Prefetcher
from repro.prefetch.bingo import BingoPrefetcher
from repro.prefetch.ensemble import ArmSpec, EnsemblePrefetcher
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.prefetch.ipcp import IPCPPrefetcher
from repro.prefetch.mlop import MLOPPrefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.prefetch.pythia import PythiaConfig, PythiaPrefetcher
from repro.prefetch.stream import StreamPrefetcher
from repro.prefetch.stride import StridePrefetcher

__all__ = [
    "ArmSpec",
    "BingoPrefetcher",
    "EnsemblePrefetcher",
    "IPCPPrefetcher",
    "IPStridePrefetcher",
    "MLOPPrefetcher",
    "NextLinePrefetcher",
    "NullPrefetcher",
    "Prefetcher",
    "PythiaConfig",
    "PythiaPrefetcher",
    "StreamPrefetcher",
    "StridePrefetcher",
]
