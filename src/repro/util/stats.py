"""Statistics helpers used throughout the evaluation.

The paper reports geometric-mean speedups (§7) and min/max/gmean tables
normalized to a best-static oracle (Tables 8 and 9); the helpers here are the
single implementation of those aggregations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of finite, strictly positive values.

    Raises ``ValueError`` on an empty input or any value that is not finite
    and positive (zero, negative, NaN, ±inf), since a silent 0/NaN/inf
    would corrupt every downstream speedup table.
    """
    log_sum = 0.0
    count = 0
    for value in values:
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"geometric mean requires finite positive values, got {value}"
            )
        log_sum += math.log(value)
        count += 1
    if count == 0:
        raise ValueError("geometric mean of empty sequence")
    return math.exp(log_sum / count)


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean of finite, strictly positive values (else ``ValueError``)."""
    inv_sum = 0.0
    count = 0
    for value in values:
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"harmonic mean requires finite positive values, got {value}"
            )
        inv_sum += 1.0 / value
        count += 1
    if count == 0:
        raise ValueError("harmonic mean of empty sequence")
    return count / inv_sum


def normalize_to(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Return ``values`` divided by ``values[baseline_key]``.

    The baseline must be finite and positive (else ``ValueError``): a NaN
    or infinite one would turn every normalized value into NaN or 0.
    """
    baseline = values[baseline_key]
    if not 0.0 < baseline < math.inf:
        raise ValueError(
            f"baseline {baseline_key!r} must be finite and positive, got {baseline}"
        )
    return {key: value / baseline for key, value in values.items()}


@dataclass(frozen=True)
class Summary:
    """min/max/gmean triple, as a percentage — the format of Tables 8 and 9."""

    minimum: float
    maximum: float
    gmean: float

    def as_percent(self) -> "Summary":
        return Summary(self.minimum * 100.0, self.maximum * 100.0, self.gmean * 100.0)

    def __str__(self) -> str:
        return (
            f"min={self.minimum:.1f} max={self.maximum:.1f} gmean={self.gmean:.1f}"
        )


def summarize_ratios(ratios: Sequence[float]) -> Summary:
    """Summarize a sequence of per-workload performance ratios."""
    if not ratios:
        raise ValueError("cannot summarize an empty ratio sequence")
    return Summary(min(ratios), max(ratios), geometric_mean(ratios))


class RunningMean:
    """Numerically stable running mean (Welford-style, mean only).

    Used by the *Periodic* heuristic's moving-average buffer and by reward
    bookkeeping in tests.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0

    def add(self, value: float) -> None:
        self._count += 1
        self._mean += (value - self._mean) / self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("mean of zero samples")
        return self._mean

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
