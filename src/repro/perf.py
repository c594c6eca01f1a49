"""Performance observability: profiling harness and benchmark regression gate.

Two small tools that keep the hot-path replay engine honest:

``profile_call``
    Run a callable under :mod:`cProfile` and write a JSON summary (top
    functions by cumulative and total time) next to the raw ``.prof`` dump.
    The CLI's ``--profile`` flag routes every figure command through this.

``compare_benchmarks`` / ``python -m repro.perf``
    Compare a freshly produced ``pytest-benchmark`` JSON file against a
    committed baseline (``BENCH_PR3.json``-style) and fail when any shared
    benchmark regressed beyond ``max(--max-regression, --stddev-k·stddev)``
    of the baseline mean — slowdowns inside a multi-round baseline's own
    noise band pass. CI runs this after the benchmark smoke job.

``python -m repro.perf --history BENCH_*.json``
    Print the performance trajectory across the committed baselines, in
    PR order (numeric ``BENCH_PR<N>`` suffix): every benchmark's mean
    (with its spread when the baseline recorded more than one round) plus
    each file's same-tree speedup summary.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default regression tolerance: a benchmark may be up to 20% slower than
#: its committed baseline before the gate fails.
DEFAULT_MAX_REGRESSION = 0.20

#: Default significance multiplier: against a multi-round baseline the gate
#: allows ``max(max_regression·mean, stddev_k·stddev)`` of slowdown, so a
#: noisy benchmark is judged by its own recorded spread rather than a bare
#: ratio. 3σ keeps the false-failure rate of a well-behaved benchmark low.
DEFAULT_STDDEV_K = 3.0

#: Number of functions kept in each JSON profile summary table.
PROFILE_TOP_FUNCTIONS = 25


# ================================================================ profiling


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


# ========================================================== benchmark compare


@dataclass(frozen=True)
class BenchmarkStats:
    """One benchmark's timing summary, as read from pytest-benchmark JSON."""

    mean: float  #: mean seconds per round
    stddev: Optional[float] = None  #: sample stddev, if recorded
    rounds: Optional[int] = None  #: number of timed rounds, if recorded

    @property
    def single_round(self) -> bool:
        """True when the stats carry no variance information at all.

        A single-round benchmark (or one whose JSON predates the rounds
        field) has a mean but no spread; regression verdicts against it
        are noisier than the ratio suggests.
        """
        return self.rounds is None or self.rounds <= 1


def load_benchmark_stats(path: str | Path) -> Dict[str, BenchmarkStats]:
    """``{benchmark name: stats}`` from a pytest-benchmark JSON file.

    Reads the mean plus — when present — the stddev and round count, so
    the gate can qualify its verdicts with the variance of the baseline.
    """
    with open(path) as handle:
        payload = json.load(handle)
    loaded: Dict[str, BenchmarkStats] = {}
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        mean = stats.get("mean")
        if mean is None:
            continue
        stddev = stats.get("stddev")
        rounds = stats.get("rounds")
        loaded[bench["name"]] = BenchmarkStats(
            mean=float(mean),
            stddev=None if stddev is None else float(stddev),
            rounds=None if rounds is None else int(rounds),
        )
    return loaded


def compare_benchmarks(
    baseline_path: str | Path,
    current_path: str | Path,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    stddev_k: float = DEFAULT_STDDEV_K,
) -> Tuple[bool, List[str]]:
    """Compare benchmark means; returns ``(ok, report lines)``.

    Variance-aware gate: a shared benchmark fails when the current mean
    exceeds ``baseline + max(max_regression·baseline, stddev_k·stddev)`` —
    the fixed tolerance *or* ``stddev_k`` standard deviations of the
    multi-round baseline, whichever is larger. A slowdown inside the
    baseline's own recorded noise band therefore passes even when the bare
    ratio crosses ``1 + max_regression``, and the per-benchmark report line
    prints the effective limit actually applied. (A 0s-vs-0s pair counts
    as unchanged.) Benchmarks *new* in the current run have no baseline yet
    and only report; benchmarks the baseline lists but the current run
    lacks fail the gate — a silently skipped benchmark is a gate bypass,
    not a pass. A single-round baseline (no variance information) falls
    back to the bare-ratio gate and *warns*: its verdicts still gate, but
    the report says how little the mean is backed by.
    """
    baseline = load_benchmark_stats(baseline_path)
    current = load_benchmark_stats(current_path)
    lines: List[str] = []
    ok = True
    shared = sorted(set(baseline) & set(current))
    if not shared:
        return False, ["no benchmarks shared between baseline and current run"]
    for name in shared:
        base = baseline[name].mean
        cur = current[name].mean
        if base > 0:
            ratio = cur / base
        elif cur == 0:
            ratio = 1.0  # 0s vs 0s baseline: nothing regressed
        else:
            ratio = float("inf")
        limit = 1.0 + max_regression
        stddev = baseline[name].stddev
        if base > 0 and stddev is not None and not baseline[name].single_round:
            # Significance slack: a multi-round baseline is judged by its
            # own spread when that is wider than the fixed tolerance.
            limit = max(limit, (base + stddev_k * stddev) / base)
        status = "ok" if ratio <= limit else "REGRESSION"
        if status != "ok":
            ok = False
        spread = ""
        if baseline[name].stddev is not None and not baseline[name].single_round:
            spread = f" ±{baseline[name].stddev:.4f}s"
        lines.append(
            f"{status:>10}  {name}: {cur:.4f}s vs baseline {base:.4f}s"
            f"{spread} ({ratio:.2f}x, limit {limit:.2f}x)"
        )
        if baseline[name].single_round:
            rounds = baseline[name].rounds
            detail = (
                f"rounds={rounds}" if rounds is not None else "no round count"
            )
            lines.append(
                f"{'warning':>10}  {name}: baseline is single-round "
                f"({detail}); mean carries no variance estimate — "
                "re-record with more rounds for trustworthy gating"
            )
    for name in sorted(set(current) - set(baseline)):
        lines.append(
            f"{'new':>10}  {name}: {current[name].mean:.4f}s (no baseline)"
        )
    for name in sorted(set(baseline) - set(current)):
        # A benchmark the baseline gates on silently vanishing is a gate
        # bypass, not a pass.
        ok = False
        lines.append(
            f"{'MISSING':>10}  {name}: in baseline but not in current run"
        )
    return ok, lines


_BENCH_PR_NAME = re.compile(r"BENCH_PR(\d+)\.json\Z")


def _history_sort_key(path: Path) -> Tuple[Any, ...]:
    """Chronological ordering key for committed baseline files.

    Conforming ``BENCH_PR<N>.json`` names sort by the numeric PR suffix —
    lexicographic ordering would scramble the trajectory the moment a
    two-digit PR lands (``BENCH_PR10`` < ``BENCH_PR3``). Non-conforming
    names sort after all conforming ones, by natural sort (digit runs
    compared numerically) so e.g. ``bench-run2`` < ``bench-run10``.
    """
    match = _BENCH_PR_NAME.match(path.name)
    if match:
        return (0, int(match.group(1)), path.name)
    tokens = tuple(
        (0, int(tok)) if tok.isdigit() else (1, tok)
        for tok in re.split(r"(\d+)", path.name)
        if tok
    )
    return (1, tokens, path.name)


def history_report(paths: List[str | Path]) -> List[str]:
    """The committed-baseline trajectory, one block per file.

    Files are ordered by their numeric PR suffix (``BENCH_PR3.json`` <
    ``BENCH_PR6.json`` < ``BENCH_PR10.json``; non-conforming names follow,
    natural-sorted), so the blocks read as the optimisation history of
    the repo. Each block lists the file's same-tree speedup summary (the
    ``comparison`` object the committed baselines carry) and every
    benchmark's mean — with its spread when the baseline recorded more
    than one round, and an explicit variance caveat when it did not.
    """
    lines: List[str] = []
    for path in sorted((Path(p) for p in paths), key=_history_sort_key):
        with open(path) as handle:
            payload = json.load(handle)
        lines.append(f"{path.name}:")
        comparison = payload.get("comparison") or {}
        subject = comparison.get("benchmark")
        if subject:
            lines.append(f"  subject: {subject}")
        speedup = comparison.get("speedup")
        if speedup is not None:
            lines.append(f"  same-tree speedup: {speedup:g}x")
        for name, stats in sorted(load_benchmark_stats(path).items()):
            if stats.single_round:
                spread = "  (single round, no variance estimate)"
            else:
                stddev = 0.0 if stats.stddev is None else stats.stddev
                spread = f" ±{stddev:.4f}s over {stats.rounds} rounds"
            lines.append(f"  {name}: mean {stats.mean:.4f}s{spread}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Compare pytest-benchmark JSON results against a "
        "committed baseline and fail on regressions, or print the "
        "trajectory across committed baselines (--history).",
    )
    parser.add_argument("--baseline",
                        help="committed baseline benchmark JSON")
    parser.add_argument("--current",
                        help="freshly produced benchmark JSON")
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional slowdown before failing "
        "(default %(default)s = 20%%)",
    )
    parser.add_argument(
        "--stddev-k", type=float, default=DEFAULT_STDDEV_K,
        help="significance multiplier: allow up to K baseline standard "
        "deviations of slowdown when that exceeds --max-regression "
        "(default %(default)s; only applies to multi-round baselines)",
    )
    parser.add_argument(
        "--history", nargs="+", metavar="BENCH_JSON",
        help="print the mean/stddev/speedup trajectory across the given "
        "committed baselines (filename order) instead of gating",
    )
    args = parser.parse_args(argv)
    if args.history:
        if args.baseline or args.current:
            parser.error("--history is mutually exclusive with "
                         "--baseline/--current")
        for line in history_report(args.history):
            print(line)
        return 0
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --history)")
    ok, lines = compare_benchmarks(
        args.baseline, args.current,
        max_regression=args.max_regression,
        stddev_k=args.stddev_k,
    )
    for line in lines:
        print(line)
    print("benchmark gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
