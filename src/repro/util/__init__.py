"""Shared utilities: statistics helpers and seeded random streams."""

from repro.util.rng import derive_seed, make_rng
from repro.util.stats import Summary, geometric_mean, summarize_ratios

__all__ = [
    "Summary",
    "derive_seed",
    "geometric_mean",
    "make_rng",
    "summarize_ratios",
]
