"""Reference micro-op generator and a reader for the shared uop buffers.

:func:`reference_uop_stream` is a frozen copy of the per-pipeline generator
the uop buffers replaced. It draws from its own ``Random`` one uop at a
time, with a Python call per dependence operand and ``expovariate`` for
the distance, and is kept as the definition the buffers must reproduce
uop for uop.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.smt.uop import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    MISPREDICT_BIT,
    UopBuffer,
)
from repro.util.rng import make_rng
from repro.workloads.smt import ThreadProfile

Uop = Tuple[int, int, int, bool]


def reference_uop_stream(profile: ThreadProfile, seed: int = 0) -> Iterator[Uop]:
    """Endless seeded stream of ``(kind, dep1, dep2, mispredict)`` tuples."""
    rng = make_rng(seed, "uops", profile.name)
    load_cut = profile.load_fraction
    store_cut = load_cut + profile.store_fraction
    branch_cut = store_cut + profile.branch_fraction
    long_cut = branch_cut + profile.long_op_fraction * (1.0 - branch_cut)
    mean_dep = max(profile.mean_dep_distance, 1.0)
    mispredict_rate = profile.branch_mispredict_rate
    while True:
        draw = rng.random()
        if draw < load_cut:
            kind = KIND_LOAD
        elif draw < store_cut:
            kind = KIND_STORE
        elif draw < branch_cut:
            kind = KIND_BRANCH
        elif draw < long_cut:
            kind = KIND_LONG
        else:
            kind = KIND_ALU
        dep1 = _reference_dep_offset(rng, mean_dep)
        dep2 = _reference_dep_offset(rng, mean_dep) if rng.random() < 0.4 else 0
        mispredict = kind == KIND_BRANCH and rng.random() < mispredict_rate
        yield (kind, dep1, dep2, mispredict)


def _reference_dep_offset(rng: random.Random, mean: float) -> int:
    """Geometric-ish producer distance; 0 = independent (~20% of operands)."""
    if rng.random() < 0.2:
        return 0
    return 1 + min(int(rng.expovariate(1.0 / mean)), 255)


def read_uops(buffer: UopBuffer, start: int, count: int) -> List[Uop]:
    """Uops ``start .. start + count - 1`` of ``buffer`` as reference tuples."""
    buffer.reserve(start + count)
    return [
        (buffer.codes[index] & ~MISPREDICT_BIT, buffer.dep1[index],
         buffer.dep2[index], bool(buffer.codes[index] & MISPREDICT_BIT))
        for index in range(start, start + count)
    ]
