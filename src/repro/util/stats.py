"""Statistics helpers used throughout the evaluation.

The paper reports geometric-mean speedups (§7) and min/max/gmean tables
normalized to a best-static oracle (Tables 8 and 9); the helpers here are the
single implementation of those aggregations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


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
