"""Profiling harness behind the CLI's ``--profile`` flag.

``profile_call`` runs a callable under :mod:`cProfile` and writes a JSON
summary (top functions by cumulative and total time) next to the raw
``.prof`` dump. Timing regressions are judged elsewhere, by the same-host
A/B run of ``perfbench/`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: Number of functions kept in each JSON profile summary table.
PROFILE_TOP_FUNCTIONS = 25


def _stats_table(
    stats: pstats.Stats, sort: str, top: int
) -> List[Dict[str, Any]]:
    """The top-``top`` rows of a :class:`pstats.Stats` sorted by ``sort``."""
    stats.sort_stats(sort)
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tottime, cumtime, _callers = stats.stats[func]  # type: ignore[attr-defined]
        filename, line, name = func
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "calls": nc,
                "primitive_calls": cc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    return rows


def profile_call(
    fn: Callable[[], Any],
    output_stem: str | Path,
    label: str = "",
    top: int = PROFILE_TOP_FUNCTIONS,
) -> Tuple[Any, Path]:
    """Run ``fn`` under cProfile; write ``<stem>.prof`` and ``<stem>.json``.

    The JSON summary holds wall time plus the top functions by cumulative
    and by total time — enough to spot a hot-path regression in review
    without loading the binary dump. Returns ``(fn's result, json path)``.
    """
    output_stem = Path(output_stem)
    output_stem.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    # Append the suffix rather than with_suffix(): a dotted stem like
    # ``fig08.bandit`` must not collapse onto its sibling ``fig08``.
    prof_path = output_stem.parent / (output_stem.name + ".prof")
    profiler.dump_stats(str(prof_path))
    stats = pstats.Stats(profiler)
    summary = {
        "label": label or output_stem.name,
        "wall_seconds": round(wall, 6),
        "total_calls": int(stats.total_calls),  # type: ignore[attr-defined]
        "profile_dump": prof_path.name,
        "top_cumulative": _stats_table(stats, "cumulative", top),
        "top_tottime": _stats_table(stats, "tottime", top),
    }
    json_path = output_stem.parent / (output_stem.name + ".json")
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    return result, json_path
