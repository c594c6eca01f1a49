"""Command-line interface: regenerate any paper experiment from the shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig08 --trace-length 20000
    python -m repro.cli table08 --trace-length 15000 --workloads 8
    python -m repro.cli fig13 --mixes 10 --epochs 400
    python -m repro.cli sec65

Each subcommand prints the regenerated table/series in the same format as
the benchmark harness. This exists so downstream users can reproduce a
single figure without running pytest.

Each subcommand accepts only the figure flags its handler reads, so a
size flag a figure would ignore exits 2 with the usage line instead of
being dropped. Execution knobs shared by every subcommand: ``--jobs N``
fans trace replays out over a process pool (tables are byte-identical to a
serial run), ``--cache-dir``/``--no-cache`` control the on-disk result
cache, and a telemetry summary plus a JSON run manifest record what was
executed versus served from cache. Telemetry goes to stderr so stdout
stays exactly the table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.experiments.figures as figures
from repro.core_model.sanitizer import SANITIZE_ENV
from repro.experiments.reporting import format_summary_table, format_table
from repro.experiments.runner import ExecutionContext, ResultCache, use_context
from repro.experiments.smt import SMTScale
from repro.smt.bandit_control import SMTBanditConfig
from repro.workloads.compiled import TRACE_CACHE_ENV, get_trace_store, set_trace_store
from repro.workloads.suites import spec_by_name, tune_specs

#: Default result-cache location (content-keyed; safe to delete any time).
DEFAULT_CACHE_DIR = ".repro-cache"


def _positive_int(text: str) -> int:
    """argparse type for size flags and ``--jobs``: a zero or negative size
    would hang a step loop or divide by zero deep inside a run, and a
    worker count below one means nothing, so reject either here."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _workload_names(text: str) -> List[str]:
    """argparse type for ``--workload-names``: comma-separated workload
    names, spaces around each ignored. An empty entry (a trailing comma)
    or an unknown name would otherwise surface as a traceback once the
    run starts, so reject either here."""
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if not name:
            raise argparse.ArgumentTypeError(f"empty workload name in {text!r}")
        try:
            spec_by_name(name)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return names


#: The flags :func:`_tune_selection` reads.
_TUNE_SELECTION = ("--trace-length", "--workloads", "--workload-names")
#: The flags :func:`_smt_scale` reads.
_SMT_SCALE = ("--epochs", "--epoch-cycles", "--step-epochs", "--step-epochs-rr")

#: The figure flags each subcommand's handler reads, and so accepts.
_COMMAND_FLAGS: Dict[str, Tuple[str, ...]] = {
    "fig02": ("--trace-length",),
    "fig05": ("--mixes", *_SMT_SCALE),
    "table08": _TUNE_SELECTION,
    "table09": ("--mixes", *_SMT_SCALE),
    "fig07": ("--trace-length", *_SMT_SCALE),
    "fig08": ("--trace-length",),
    "fig09": _TUNE_SELECTION,
    "fig10": _TUNE_SELECTION,
    "fig08rep": (*_TUNE_SELECTION, "--replicates"),
    "fig10rep": (*_TUNE_SELECTION, "--replicates"),
    "fig11": ("--trace-length",),
    "fig12": _TUNE_SELECTION,
    "fig13": ("--mixes", *_SMT_SCALE),
    "fig14": ("--trace-length", "--workloads"),
    "fig15": ("--mixes", *_SMT_SCALE),
    "sec65": (),
    "traces": ("--trace-length", "--output-dir"),
}


def _tune_selection(args: argparse.Namespace):
    """The workload specs a prefetch subcommand sweeps.

    ``--workload-names milc06,cactus06`` selects exact members (any order);
    otherwise the first ``--workloads`` of the tune set, as before.
    """
    names = args.workload_names
    if names:
        return [spec_by_name(name) for name in names]
    return tune_specs()[: args.workloads]


def _smt_scale(args: argparse.Namespace) -> SMTScale:
    return SMTScale(
        epoch_cycles=args.epoch_cycles,
        total_epochs=args.epochs,
        step_epochs=args.step_epochs,
        step_epochs_rr=args.step_epochs_rr,
    )


def _cmd_fig02(args):
    result = figures.fig02_pythia_homogeneity(trace_length=args.trace_length)
    rows = [(name, f"{a:.2f}", f"{b:.2f}") for name, (a, b) in result.items()]
    print(format_table(["workload", "top1", "top2"], rows,
                       title="Figure 2"))


def _cmd_fig05(args):
    result = figures.fig05_pg_policy_range(num_mixes=args.mixes,
                                           scale=_smt_scale(args))
    rows = [(r["mix"], r["best_policy"], f"{r['best_vs_choi']:.2f}",
             f"{r['worst_vs_choi']:.2f}") for r in result]
    print(format_table(["mix", "best policy", "best/Choi", "worst/Choi"],
                       rows, title="Figure 5"))


def _cmd_table08(args):
    result = figures.table08_prefetch_tuneset(
        trace_length=args.trace_length,
        workloads=_tune_selection(args),
    )
    print(format_summary_table(result, title="Table 8"))


def _cmd_table09(args):
    result = figures.table09_smt_tuneset(num_mixes=args.mixes,
                                         scale=_smt_scale(args))
    print(format_summary_table(result, title="Table 9"))


def _cmd_fig08(args):
    result = figures.fig08_singlecore(trace_length=args.trace_length)
    _print_suite_table(result, "Figure 8")


def _cmd_fig11(args):
    result = figures.fig11_alt_hierarchy(trace_length=args.trace_length)
    _print_suite_table(result, "Figure 11")


def _print_suite_table(result, title):
    names = ["stride", "bingo", "mlop", "pythia", "bandit"]
    rows = [[suite] + [f"{result[suite][name]:.3f}" for name in names]
            for suite in result]
    print(format_table(["suite"] + names, rows, title=title))


def _cmd_fig09(args):
    result = figures.fig09_breakdown(
        trace_length=args.trace_length,
        workloads=_tune_selection(args),
    )
    rows = [(name, f"{m['llc_misses']:.3f}", f"{m['timely']:.3f}",
             f"{m['late']:.3f}", f"{m['wrong']:.3f}")
            for name, m in result.items()]
    print(format_table(["prefetcher", "LLC misses", "timely", "late",
                        "wrong"], rows, title="Figure 9"))


def _cmd_fig10(args):
    result = figures.fig10_bandwidth_sweep(
        trace_length=args.trace_length,
        workloads=_tune_selection(args),
    )
    rows = [(f"{int(m)} MTPS", f"{v['pythia']:.3f}", f"{v['bandit']:.3f}")
            for m, v in sorted(result.items())]
    print(format_table(["bandwidth", "pythia", "bandit"], rows,
                       title="Figure 10"))


def _cmd_fig08rep(args):
    result = figures.fig08_replication_sweep(
        trace_length=args.trace_length,
        replicates=args.replicates,
        workloads=_tune_selection(args),
    )
    rows = []
    for name, member in result.items():
        if name == "all":
            continue
        rows.append((
            name, member["best_static_arm"],
            f"{member['best_static_norm']:.3f}",
            f"{member['bandit_mean']:.3f}",
            f"{member['bandit_min']:.3f}",
            f"{member['bandit_max']:.3f}",
        ))
    rows.append((
        "all", "", f"{result['all']['best_static_gmean']:.3f}",
        f"{result['all']['bandit_gmean']:.3f}", "", "",
    ))
    print(format_table(
        ["workload", "best arm", "best static", "bandit mean",
         "bandit min", "bandit max"],
        rows, title="Figure 8 replication sweep",
    ))


def _cmd_fig10rep(args):
    result = figures.fig10_replication_sweep(
        trace_length=args.trace_length,
        replicates=args.replicates,
        workloads=_tune_selection(args),
    )
    rows = [(f"{int(m)} MTPS", f"{v['best_static_gmean']:.3f}",
             f"{v['bandit_gmean']:.3f}", f"{v['bandit_min']:.3f}",
             f"{v['bandit_max']:.3f}")
            for m, v in sorted(result.items())]
    print(format_table(
        ["bandwidth", "best static", "bandit gmean", "bandit min",
         "bandit max"],
        rows, title="Figure 10 replication sweep",
    ))


def _cmd_fig12(args):
    result = figures.fig12_multilevel(
        trace_length=args.trace_length,
        workloads=_tune_selection(args),
    )
    rows = [(name, f"{value:.3f}") for name, value in result.items()]
    print(format_table(["configuration", "gmean"], rows, title="Figure 12"))


def _cmd_fig13(args):
    result = figures.fig13_smt_bandit_vs_choi(num_mixes=args.mixes,
                                              scale=_smt_scale(args))
    print(format_table(
        ["metric", "value"],
        [("gmean vs Choi", f"{result['gmean_vs_choi']:.3f}"),
         ("gmean vs ICount", f"{result['gmean_vs_icount']:.3f}"),
         ("wins > 4%", result["wins_over_4pct"]),
         ("losses > 4%", result["losses_over_4pct"]),
         ("ratios", " ".join(f"{r:.2f}" for r in result["ratios_sorted"]))],
        title="Figure 13",
    ))


def _cmd_fig14(args):
    result = figures.fig14_fourcore(trace_length=args.trace_length,
                                    max_mixes=args.workloads)
    rows = [(name, f"{value:.3f}") for name, value in result.items()]
    print(format_table(["prefetcher", "gmean"], rows, title="Figure 14"))


def _cmd_fig15(args):
    result = figures.fig15_rename_activity(num_mixes=args.mixes,
                                           scale=_smt_scale(args))
    keys = ["rob_full", "iq_full", "lq_full", "sq_full", "rf_full",
            "stalled_any", "idle", "running"]
    rows = [[name] + [f"{m[k]:.3f}" for k in keys]
            for name, m in result.items()]
    print(format_table(["policy"] + keys, rows, title="Figure 15"))


def _cmd_sec65(args):
    print(json.dumps(figures.sec65_area_power(), indent=2))


def _cmd_traces(args):
    """Materialize the synthetic suite to disk as .trace.gz files."""
    from pathlib import Path

    from repro.workloads.suites import eval_specs
    from repro.workloads.trace import write_trace

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in eval_specs():
        path = out_dir / f"{spec.suite}.{spec.name}.trace.gz"
        count = write_trace(spec.trace(args.trace_length, seed=0), path)
        print(f"wrote {count} records to {path}")


COMMANDS: Dict[str, Callable] = {
    "fig02": _cmd_fig02,
    "fig05": _cmd_fig05,
    "table08": _cmd_table08,
    "table09": _cmd_table09,
    "fig07": None,  # filled below
    "fig08": _cmd_fig08,
    "fig09": _cmd_fig09,
    "fig10": _cmd_fig10,
    "fig08rep": _cmd_fig08rep,
    "fig10rep": _cmd_fig10rep,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "fig14": _cmd_fig14,
    "fig15": _cmd_fig15,
    "sec65": _cmd_sec65,
}


def _cmd_fig07(args):
    result = figures.fig07_exploration_traces(
        trace_length=args.trace_length, scale=_smt_scale(args)
    )
    rows = []
    for scenario, algorithms in result.items():
        for name, data in algorithms.items():
            rows.append((scenario, name, f"{data['ipc']:.3f}",
                         len(data["arms"]), len(set(data["arms"]))))
    print(format_table(["scenario", "algorithm", "ipc", "steps",
                        "distinct"], rows, title="Figure 7"))


COMMANDS["fig07"] = _cmd_fig07
COMMANDS["traces"] = _cmd_traces


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate Micro-Armed Bandit paper experiments.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    smt_defaults = SMTBanditConfig()
    figure_flags: Dict[str, Dict[str, Any]] = {
        "--trace-length": dict(type=_positive_int, default=10_000,
                               help="memory accesses per trace"),
        "--workloads": dict(type=_positive_int, default=8,
                            help="number of workloads (Figure 14: mixes)"),
        "--workload-names": dict(type=_workload_names, default=None,
                                 help="comma-separated tune-set workload "
                                      "names (overrides the --workloads "
                                      "prefix)"),
        "--mixes": dict(type=_positive_int, default=6,
                        help="number of SMT mixes"),
        "--epochs": dict(type=_positive_int, default=300,
                         help="SMT episode length in HC epochs"),
        "--epoch-cycles": dict(type=_positive_int, default=500,
                               help="cycles per Hill-Climbing epoch"),
        "--step-epochs": dict(type=_positive_int,
                              default=smt_defaults.step_epochs,
                              help="HC epochs per SMT bandit step (Table 6)"),
        "--step-epochs-rr": dict(type=_positive_int,
                                 default=smt_defaults.step_epochs_rr,
                                 help="HC epochs per round-robin step "
                                      "(Table 6)"),
        "--replicates": dict(type=_positive_int, default=5,
                             help="bandit seed replicates per workload "
                                  "(single-core DUCB never draws from its "
                                  "RNG, so every replicate replays the same "
                                  "episode, and the lane kernel replays it "
                                  "once)"),
        "--output-dir": dict(default="traces",
                             help="directory to write .trace.gz files into"),
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        for flag, spec in figure_flags.items():
            if flag in _COMMAND_FLAGS[name]:
                cmd.add_argument(flag, **spec)
        cmd.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes for trace replays")
        cmd.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help="on-disk result cache directory")
        cmd.add_argument("--no-cache", action="store_true",
                         help="disable the result cache")
        cmd.add_argument("--profile", action="store_true",
                         help="run under cProfile; writes <cache-dir>/"
                              "profiles/<command>.prof and a JSON summary")
        cmd.add_argument("--sanitize", action="store_true",
                         help="run every fast-path simulation on its "
                              "reference path too and assert equal "
                              "checkpoints and results (same as "
                              "REPRO_SANITIZE=1); combine with --no-cache so "
                              "cached results don't skip the runs")
    return parser


@contextmanager
def _command_environment(settings: Dict[str, str]) -> Iterator[None]:
    """Set ``settings`` in ``os.environ`` for one command, then restore the
    previous values (or unset them), also when the command raises.

    The settings go through the environment so pool workers inherit them.
    A command that sets the trace store's directory runs on a store read
    from it, and the caller's store is reinstalled afterwards.
    """
    previous = {name: os.environ.get(name) for name in settings}
    os.environ.update(settings)
    relocated = TRACE_CACHE_ENV in settings
    caller_store = set_trace_store(None) if relocated else None
    try:
        yield
    finally:
        if relocated:
            set_trace_store(caller_store)
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        print("available experiments:")
        for name in COMMANDS:
            print(f"  {name}")
        return 0
    settings: Dict[str, str] = {}
    if args.sanitize:
        settings[SANITIZE_ENV] = "1"
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is not None and not os.environ.get(TRACE_CACHE_ENV):
        # Keep compiled traces as rows of the result store.
        settings[TRACE_CACHE_ENV] = args.cache_dir
    context = ExecutionContext(jobs=args.jobs, cache=cache)
    with _command_environment(settings), use_context(context):
        try:
            if args.profile:
                from repro.perf import profile_call

                stem = Path(args.cache_dir) / "profiles" / args.command
                _, summary_path = profile_call(
                    lambda: COMMANDS[args.command](args),
                    stem, label=args.command,
                )
                print(f"[profile] summary: {summary_path}", file=sys.stderr)
            else:
                COMMANDS[args.command](args)
        finally:
            get_trace_store().close()
    telemetry = context.telemetry
    print(telemetry.summary_line(args.command, jobs=args.jobs),
          file=sys.stderr)
    if cache is not None and telemetry.tasks:
        manifest_path = Path(args.cache_dir) / f"{args.command}.manifest.json"
        telemetry.write_manifest(
            manifest_path, command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            jobs=args.jobs,
        )
        print(f"[telemetry] manifest: {manifest_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
