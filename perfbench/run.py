"""Layer-resolved benchmark of the trace-driven simulator.

Run from the repository root (the script puts ``src/`` on the path itself)::

    python3 perfbench/run.py [--workload NAME ...] [--seed 0] [--seconds S]
                             [--trace [0|1]] [--out FILE] [--smoke]
    python3 perfbench/run.py --verify-reference [--pin] [--workload NAME ...]
    python3 perfbench/run.py compare A.json B.json

One workload runs closed-loop in this process with ``jobs=1``: set-up, one
untimed warm-up iteration, then timed iterations back to back for
``--seconds`` (at least three). Without ``--workload`` every workload runs,
each in its own fresh process, one at a time. ``wall_s`` is the median
timed iteration and ``setup_s`` the median of five further fresh processes,
started one at a time between timed iterations, spread over the run. Each
timing is scaled to a reference host speed by a fixed calibration loop run
just before and after it; the unscaled host seconds are recorded too. Every
iteration's figure output is checked against the pinned seed-0 digest
(other seeds: against the warm-up's).

``--trace 1`` replaces the end-to-end metrics by per-layer ones: untraced
and traced iterations alternate (the difference is the tracing overhead),
then the fixed-input layer probes run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any iteration failed.
"""

from __future__ import annotations

import os

# Before numpy loads: one load-generating thread, as in every measured run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple  # noqa: E402

from probes import run_probes  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    Workload,
    all_finite,
    digest,
    figure_kwargs,
    smt_cycles_per_task,
    trace_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
PINNED = HERE / "pinned.json"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_PROCESSES = {False: 5, True: 1}
MIN_TIMED = {False: 3, True: 2}
MIN_TRACED_PAIRS = 2
#: Environment that forces the reference paths: scalar lane replays and
#: the per-object SMT pipeline.
REFERENCE_ENV = {"REPRO_LANE_KERNEL": "scalar", "REPRO_SMT_KERNEL": "0"}
#: Upper bound on any child process; a hung child is killed, not waited on.
CHILD_TIMEOUT_S = 900
#: Steps of the calibration loop, and the host seconds it takes on the
#: 2-vCPU Xeon VM this benchmark was built on while that host runs fast.
CALIBRATION_STEPS = 50_000
REFERENCE_CALIBRATION_S = 0.0055


def _load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def _load_pins() -> Dict[str, str]:
    if not PINNED.is_file():
        return {}
    return json.loads(PINNED.read_text())["digests"]


def _require_source() -> None:
    """Exit non-zero, printing no result, unless the simulator source is here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _iqr(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return quartiles[2] - quartiles[0]


def _calibration_s() -> float:
    """Host seconds of a fixed pure-Python loop: the host's speed right now.

    A vCPU of a shared host runs up to twice as slow, for seconds to
    minutes at a time, while other tenants load the machine; this loop
    slows down with the simulator, if not quite as much.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for index in range(CALIBRATION_STEPS):
        total += index * index
        table[index & 1023] = total
    return time.perf_counter() - start


def _at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Host ``seconds`` scaled to the reference host speed, by the
    calibration loops timed just before and just after them."""
    return seconds * 2 * REFERENCE_CALIBRATION_S / (before + after)


def _timing(samples: List[float], unit: str,
            host: Optional[List[float]] = None) -> Dict[str, Any]:
    """A timing: its median as value, every sample, and the unscaled host
    seconds behind samples scaled to the reference speed."""
    record = {"value": statistics.median(samples), "unit": unit,
              "statistic": "median", "samples": samples, "n": len(samples)}
    if host is not None:
        record.update(host_samples=host, host_median=statistics.median(host))
    return record


@contextmanager
def _workdir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run of the harness still uses it
            pass


# ================================================================ set-up


def _materialize(workload: Workload, seed: int, smoke: bool) -> None:
    """Compile every trace the workload replays into the active store."""
    from repro.workloads.compiled import compiled_trace_for

    for name, length in trace_inputs(workload, smoke):
        compiled_trace_for(name, length, seed=seed)


def _setup_probe(workload: Workload, seed: int, smoke: bool) -> None:
    """One fresh-process set-up: simulator imports plus trace materialisation."""
    before = _calibration_s()
    start = time.perf_counter()
    import repro.experiments.figures  # noqa: F401
    from repro.workloads.compiled import TraceStore, set_trace_store

    set_trace_store(TraceStore())
    _materialize(workload, seed, smoke)
    seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": _at_reference_speed(seconds, before, _calibration_s()),
                      "host_s": seconds}))


def _child(args: List[str], env: Optional[Dict[str, str]] = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
        timeout=CHILD_TIMEOUT_S,
    )


def _last_json(completed: subprocess.CompletedProcess, what: str) -> Dict[str, Any]:
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{what} failed (exit {completed.returncode}):\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def _setup_sample(workload: Workload, seed: int, smoke: bool) -> Dict[str, float]:
    """Set-up seconds of one fresh process; the parent waits for it."""
    args = ["--setup-probe", "--workload", workload.name, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    return _last_json(_child(args), "set-up probe")


# ============================================================= iterations


def _unwrapped(fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


class Session:
    """One workload's warm process: traces materialised, iterations on demand."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, workdir: Path) -> None:
        from repro.experiments import figures
        from repro.workloads.compiled import TraceStore, set_trace_store

        self.workload = workload
        self.smoke = smoke
        self.workdir = workdir
        self._figure = getattr(figures, workload.figure)
        self._kwargs = figure_kwargs(workload, seed, smoke)
        set_trace_store(TraceStore())
        _materialize(workload, seed, smoke)
        self._filled: Optional[Path] = None
        if workload.cached:
            self._filled = workdir / "filled-cache"
            self.iterate()

    def _render(self) -> Any:
        result = None
        for _ in range(self.workload.renders):
            result = self._figure(**self._kwargs)
        return result

    def iterate(self, wrap: Callable[[Callable[..., Any]], Callable[..., Any]] = _unwrapped
                ) -> Tuple[Any, float, Dict[str, int]]:
        """One iteration: ``(figure result, seconds, exact work counts)``.

        The result cache is fresh and empty, or for a cached workload the
        one filled at set-up; either way the telemetry is the iteration's own.
        ``wrap`` decorates the timed call (the traced run's root span).
        """
        from repro.experiments.runner import ExecutionContext, ResultCache, use_context

        cache_dir = self._filled or Path(tempfile.mkdtemp(dir=self.workdir))
        context = ExecutionContext(jobs=1, cache=ResultCache(cache_dir))
        render = wrap(self._render)
        with use_context(context):
            start = time.perf_counter()
            result = render()
            seconds = time.perf_counter() - start
        if self._filled is None:
            shutil.rmtree(cache_dir)
        return result, seconds, self._counts(context.telemetry)

    def _counts(self, telemetry: Any) -> Dict[str, int]:
        executed = [task for task in telemetry.tasks if not task.cache_hit]
        return {
            "sim.tasks": len(telemetry.tasks),
            "sim.cache_hits": telemetry.cache_hits,
            "sim.records": sum(task.records for task in executed
                               if task.lane_kernel is None),
            "sim.lane_records": sum(task.records for task in executed
                                    if task.lane_kernel is not None),
            # Zero unless the workload is an SMT figure, whose tasks all
            # simulate the full epoch budget.
            "sim.smt_cycles": len(executed) * smt_cycles_per_task(self.workload, self.smoke),
        }

    def work(self, counts: Dict[str, int]) -> int:
        """The throughput numerator of one iteration."""
        if self.workload.work == "tasks":
            return counts["sim.cache_hits"]
        if self.workload.work == "cycles":
            return counts["sim.smt_cycles"]
        return counts["sim.records"] + counts["sim.lane_records"]


class Checker:
    """Counts attempted and failed iterations against the expected output."""

    def __init__(self, expected_digest: Optional[str]) -> None:
        self.expected = expected_digest
        self.counts: Optional[Dict[str, int]] = None
        self.digests: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, session: Session,
            wrap: Callable[[Callable[..., Any]], Callable[..., Any]] = _unwrapped
            ) -> Optional[Tuple[float, Dict[str, int]]]:
        """One checked iteration; ``None`` when it failed."""
        self.attempted += 1
        try:
            result, seconds, counts = session.iterate(wrap)
            value = digest(result)
        except Exception as error:  # a failed iteration is counted, not fatal
            return self._fail(f"{type(error).__name__}: {error}")
        self.digests.append(value)
        if self.expected is None:
            self.expected = value
        if value != self.expected:
            return self._fail(f"digest {value[:12]} != expected {self.expected[:12]}")
        if not all_finite(result):
            return self._fail("non-finite value in the figure output")
        if self.counts is None:
            self.counts = counts
        if counts != self.counts:
            return self._fail(f"work counts {counts} != {self.counts}")
        return seconds, counts

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
        return None


def _expected_digest(workload: Workload, seed: int, smoke: bool) -> Optional[str]:
    if seed != 0 or smoke:
        return None
    return _load_pins().get(workload.name)


def _timed_loop(step: Callable[[], Any], seconds: float, minimum: int,
                between: Optional[Callable[[float], None]] = None) -> None:
    """Call ``step`` back to back for ``seconds``, at least ``minimum`` times.

    ``between``, when given, is called before each step with the share of
    ``seconds`` already spent.
    """
    start = time.perf_counter()
    calls = 0
    while calls < minimum or time.perf_counter() - start < seconds:
        if between is not None:
            between((time.perf_counter() - start) / seconds if seconds else 1.0)
        step()
        calls += 1


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Measure one workload in this process; returns its JSON record."""
    record: Dict[str, Any] = {"workload": workload.name, "seed": seed,
                              "trace": trace, "smoke": smoke, "work": workload.work}
    with _workdir() as workdir:
        session = Session(workload, seed, smoke, workdir)
        checker = Checker(_expected_digest(workload, seed, smoke))
        checker.run(session)  # warm-up: checked, untimed
        if trace:
            record.update(_traced(session, checker, seconds, smoke, workdir))
        else:
            walls: List[float] = []
            host_walls: List[float] = []
            work: List[int] = []
            setup: List[Dict[str, float]] = []
            setup_count = SETUP_PROCESSES[smoke]

            def step() -> None:
                before = _calibration_s()
                outcome = checker.run(session)
                after = _calibration_s()
                if outcome is not None:
                    host_walls.append(outcome[0])
                    walls.append(_at_reference_speed(outcome[0], before, after))
                    work.append(session.work(outcome[1]))

            def between(spent: float) -> None:
                # Set-up probes are spread evenly over the run, so their
                # median sees the same host as the timed iterations.
                if len(setup) < setup_count and spent >= len(setup) / setup_count:
                    setup.append(_setup_sample(workload, seed, smoke))

            _timed_loop(step, seconds, MIN_TIMED[smoke], between)
            while len(setup) < setup_count:
                setup.append(_setup_sample(workload, seed, smoke))
            if not walls:
                raise RuntimeError("no timed iteration succeeded")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record["metrics"] = {
                "wall_s": _timing(walls, "s", host_walls),
                "throughput": _timing(
                    [units / wall for units, wall in zip(work, walls)], "work/s"),
                "setup_s": _timing([sample["setup_s"] for sample in setup], "s",
                                   [sample["host_s"] for sample in setup]),
                "peak_rss_mb": _timing([peak], "MB"),
                "error_rate": {"value": checker.failed / checker.attempted,
                               "unit": "fraction"},
            }
    record.update(
        digest=checker.expected, digests=sorted(set(checker.digests)),
        pinned=_expected_digest(workload, seed, smoke),
        counts=checker.counts or {}, attempted=checker.attempted,
        failed=checker.failed, errors=checker.errors,
    )
    return record


def _traced(session: Session, checker: Checker, seconds: float, smoke: bool,
            workdir: Path) -> Dict[str, Any]:
    """Alternate untraced and traced iterations, then run the layer probes."""
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    iterations = itertools.count()

    def pair() -> None:
        outcome = checker.run(session)
        if outcome is not None:
            untraced.append(outcome[0])
        iteration = next(iterations)
        with tracer.patched():
            outcome = checker.run(session, tracer.root(iteration))
        if outcome is not None:
            traced.append(outcome[0])
            layers.append(tracer.self_times(iteration))

    _timed_loop(pair, seconds, MIN_TRACED_PAIRS)
    if not (traced and untraced):
        raise RuntimeError("no traced or untraced iteration succeeded")
    # Layer times are means, so they add up to the mean traced wall.
    mean_wall = statistics.fmean(traced)
    metrics: Dict[str, Dict[str, Any]] = {
        name: {"value": statistics.fmean(layer[name] for layer in layers), "unit": "s"}
        for name in LAYER_METRICS
    }
    metrics["trace.wall_s"] = {"value": mean_wall, "unit": "s", "statistic": "mean",
                               "samples": traced, "n": len(traced)}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1,
        "unit": "fraction"}
    metrics["trace.coverage"] = {
        "value": sum(metrics[name]["value"] for name in LAYER_METRICS) / mean_wall,
        "unit": "fraction"}
    for name, count in (checker.counts or {}).items():
        metrics[name] = {"value": count, "unit": "count"}
    for name, (value, unit) in run_probes(workdir, smoke).items():
        metrics[name] = {"value": value, "unit": unit}
    return {"metrics": metrics, "spans": tracer.records(iteration=0)}


# =============================================================== reporting


def _print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    for metric, entry in record.get("metrics", {}).items():
        line = f"{name:14s} {metric:52s} {entry['value']:.6g} {entry['unit']}"
        if metric == "throughput":
            line += f" ({record['work']}/s)"
        if "host_median" in entry:
            line += f" (unscaled host median {entry['host_median']:.6g} s)"
        if "samples" in entry:
            line += f"  {entry['statistic']} of {entry['n']}: " + " ".join(
                f"{sample:.4g}" for sample in entry["samples"])
        print(line)
    status = "ok" if record["failed"] == 0 else "FAILED"
    pinned = record.get("pinned")
    pin_note = ("matches pin" if pinned == record["digest"] else
                "DIFFERS FROM PIN" if pinned else "no pin for this seed/scale")
    print(f"{name:14s} digest {record['digest'] or '-'} ({pin_note}); "
          f"{record['attempted']} attempted, {record['failed']} failed: {status}")
    for error in record["errors"]:
        print(f"{name:14s} error: {error}")


def _result_line(records: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The final JSON line: exactly the metrics BENCHMARK.json names."""
    spec = _load_benchmark()
    names = [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]
    metrics: Dict[str, Any] = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}/"
        for name in names:
            entry = record["metrics"][name]
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": all(record["failed"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def _write(path: Optional[str], records: List[Dict[str, Any]]) -> None:
    """The ``--out`` file: every workload's record, keyed by name."""
    if path:
        payload = {"workloads": {record["workload"]: record for record in records}}
        Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _workload_args(args: argparse.Namespace, name: str, out: str) -> List[str]:
    child = ["--workload", name, "--seed", str(args.seed), "--trace", str(int(args.trace)),
             "--out", out]
    if args.seconds is not None:
        child += ["--seconds", str(args.seconds)]
    if args.smoke:
        child.append("--smoke")
    return child


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Every named workload in its own fresh process, one at a time."""
    records = []
    with _workdir() as scratch:
        for name in names:
            out = str(scratch / f"{name}.json")
            completed = _child(_workload_args(args, name, out))
            lines = completed.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if not Path(out).is_file():
                sys.stderr.write(completed.stderr)
                print(f"perfbench: workload {name} produced no record", file=sys.stderr)
                return 1
            records.append(json.loads(Path(out).read_text())["workloads"][name])
    _write(args.out, records)
    result = _result_line(records, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ======================================================= reference check


def _once(workload: Workload, seed: int, smoke: bool) -> None:
    """Set up and run one iteration; print its digest (reference checks)."""
    with _workdir() as workdir:
        result, _, _ = Session(workload, seed, smoke, workdir).iterate()
    print(json.dumps({"digest": digest(result)}))


def verify_reference(args: argparse.Namespace, names: List[str]) -> int:
    """Fast and reference paths must give one digest (and the pinned one)."""
    pins = _load_pins()
    check_pins = args.seed == 0 and not args.smoke
    agreed: Dict[str, str] = {}
    ok = True
    for name in names:
        base = ["--once", "--workload", name, "--seed", str(args.seed)]
        if args.smoke:
            base.append("--smoke")
        fast = _last_json(_child(base), f"{name} fast path")["digest"]
        reference = _last_json(_child(base, dict(os.environ, **REFERENCE_ENV)),
                               f"{name} reference path")["digest"]
        pinned = pins.get(name) if check_pins else None
        agree = fast == reference and (args.pin or pinned in (None, fast))
        ok = ok and agree
        if fast == reference:
            agreed[name] = fast
        print(f"{name:14s} fast {fast[:16]} reference {reference[:16]} "
              f"pinned {(pinned or '-')[:16]} {'ok' if agree else 'MISMATCH'}")
    if args.pin:
        if not (ok and check_pins):
            print("perfbench: pins are written only for seed 0 at full scale, "
                  "when both paths agree", file=sys.stderr)
            return 1
        pins.update(agreed)
        PINNED.write_text(json.dumps({"seed": 0, "digests": pins}, indent=1) + "\n")
        print(f"pinned {len(agreed)} digests in {PINNED.name}")
    return 0 if ok else 1


# ================================================================= compare


def compare(a_path: str, b_path: str) -> int:
    """Check B against A on every workload x end-to-end metric."""
    spec = _load_benchmark()
    a_all = json.loads(Path(a_path).read_text())["workloads"]
    b_all = json.loads(Path(b_path).read_text())["workloads"]
    failed = False
    for name, a in a_all.items():
        b = b_all.get(name)
        if b is None:
            print(f"{name:14s} missing from {b_path}: FAIL")
            failed = True
            continue
        for field in ("digest", "counts"):
            if a[field] != b[field]:
                print(f"{name:14s} {field} differs: FAIL")
                failed = True
        if b["failed"] / b["attempted"] > a["failed"] / a["attempted"]:
            print(f"{name:14s} error_rate rose: FAIL")
            failed = True
        for metric in spec["end_to_end"]:
            a_metric, b_metric = a["metrics"][metric["name"]], b["metrics"][metric["name"]]
            a_samples, b_samples = a_metric["samples"], b_metric["samples"]
            a_value, b_value = a_metric["value"], b_metric["value"]
            lower = metric["better"] == "lower"
            worse = (b_value - a_value if lower else a_value - b_value) / a_value
            spread = _iqr(a_samples) / statistics.median(a_samples)
            b_beats_all = all((bs < as_) if lower else (bs > as_)
                              for bs in b_samples for as_ in a_samples)
            if spread > metric["bound"] and not b_beats_all:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                failed = True
            else:
                verdict = "ok"
            print(f"{name:14s} {metric['name']:12s} A {a_value:.6g} B {b_value:.6g} "
                  f"B/A {b_value / a_value:.4f} spread(A) {spread:.3f} "
                  f"bound {metric['bound']}: {verdict}")
    return 1 if failed else 0


# ==================================================================== main


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run with layer probes")
    parser.add_argument("--out", help="write the JSON record here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness self-test")
    parser.add_argument("--verify-reference", action="store_true",
                        help="check digests on the scalar-lane/object-SMT paths")
    parser.add_argument("--pin", action="store_true",
                        help="with --verify-reference: write seed-0 digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = _parser().parse_args(argv)
    _require_source()
    names = args.workload or [workload.name for workload in WORKLOADS]
    if args.setup_probe or args.once:
        (_setup_probe if args.setup_probe else _once)(BY_NAME[names[0]], args.seed, args.smoke)
        return 0
    if args.verify_reference:
        return verify_reference(args, names)
    if len(names) > 1:
        return run_all(args, names)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(_load_benchmark()["run_seconds"])
    record = run_workload(BY_NAME[names[0]], args.seed, seconds, bool(args.trace), args.smoke)
    _write(args.out, [record])
    _print_record(record)
    result = _result_line([record], bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
