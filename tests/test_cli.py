"""Tests for the command-line interface."""

import os

import pytest

import repro.experiments.figures as figures
import repro.workloads.suites as suites
from repro.cli import COMMANDS, build_parser, main
from repro.core_model.sanitizer import SANITIZE_ENV
from repro.experiments.runner import ResultCache
from repro.workloads.compiled import (
    TRACE_CACHE_ENV,
    get_trace_store,
    trace_key,
    use_trace_store,
)

_TUNE_SELECTION = {"--trace-length", "--workloads", "--workload-names"}
_SMT = {"--mixes", "--epochs", "--epoch-cycles", "--step-epochs",
        "--step-epochs-rr"}

#: The figure flags each subcommand's handler reads.
READS = {
    "fig02": {"--trace-length"},
    "fig05": _SMT,
    "table08": _TUNE_SELECTION,
    "table09": _SMT,
    "fig07": _SMT - {"--mixes"} | {"--trace-length"},
    "fig08": {"--trace-length"},
    "fig09": _TUNE_SELECTION,
    "fig10": _TUNE_SELECTION,
    "fig08rep": _TUNE_SELECTION | {"--replicates"},
    "fig10rep": _TUNE_SELECTION | {"--replicates"},
    "fig11": {"--trace-length"},
    "fig12": _TUNE_SELECTION,
    "fig13": _SMT,
    "fig14": {"--trace-length", "--workloads"},
    "fig15": _SMT,
    "sec65": set(),
    "traces": {"--trace-length", "--output-dir"},
}
#: A value each figure flag parses.
FLAG_VALUES = {
    "--trace-length": "1000", "--workloads": "2", "--workload-names": "milc06",
    "--mixes": "1", "--epochs": "10", "--epoch-cycles": "100",
    "--step-epochs": "2", "--step-epochs-rr": "4", "--replicates": "2",
    "--output-dir": "out",
}
UNREAD = [
    (command, flag)
    for command in READS
    for flag in FLAG_VALUES
    if flag not in READS[command]
]


class TestParser:
    def test_all_experiments_registered(self):
        expected = {
            "fig02", "fig05", "fig07", "fig08", "fig08rep", "fig09",
            "fig10", "fig10rep", "fig11", "fig12", "fig13", "fig14",
            "fig15", "table08", "table09", "sec65", "traces",
        }
        assert set(COMMANDS) == expected
        assert all(callable(handler) for handler in COMMANDS.values())

    def test_parses_options(self):
        parser = build_parser()
        args = parser.parse_args(["fig08", "--trace-length", "5000"])
        assert args.command == "fig08"
        assert args.trace_length == 5000

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    @pytest.mark.parametrize("flag", [
        "--trace-length", "--workloads", "--mixes", "--epochs",
        "--epoch-cycles", "--step-epochs", "--step-epochs-rr", "--replicates",
        "--jobs",
    ])
    def test_size_flags_reject_non_positive_values(self, flag, capsys):
        """Zero or negative sizes used to hang a step loop or crash deep in
        a run, and ``--jobs -3`` ran serially while reporting ``jobs -3``;
        each must exit 2 with a usage message before anything runs."""
        command = {"--trace-length": "fig08", "--workloads": "fig14",
                   "--replicates": "fig08rep"}.get(flag, "fig13")
        parser = build_parser()
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, flag, value])
            assert excinfo.value.code == 2
            assert "must be a positive integer" in capsys.readouterr().err
        args = parser.parse_args([command, flag, "1"])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == 1

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_figure_flags_are_rejected(self, command, flag, capsys):
        """A figure flag the subcommand's handler never reads used to be
        accepted and dropped (``fig08 --workloads 2`` still replayed all 38
        traces); it must exit 2 with the usage line instead."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, flag, FLAG_VALUES[flag]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", sorted(READS))
    def test_handlers_read_exactly_their_flags(self, command, tmp_path,
                                               monkeypatch):
        """Each handler reads every figure flag its subcommand accepts and
        no other, so no accepted flag is dropped."""

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        class Spy:
            def __init__(self, namespace):
                self.__dict__["values"] = vars(namespace)
                self.__dict__["reads"] = set()

            def __getattr__(self, name):
                self.reads.add("--" + name.replace("_", "-"))
                return self.values[name]

        for name in dir(figures):
            if name.startswith(("fig", "table", "sec")):
                monkeypatch.setattr(figures, name, stop)
        spec = type("Spec", (), {"suite": "S", "name": "n", "trace": stop})
        monkeypatch.setattr(suites, "eval_specs", lambda: [spec()])
        argv = [command]
        if command == "traces":
            argv += ["--output-dir", str(tmp_path)]
        spy = Spy(build_parser().parse_args(argv))
        with pytest.raises(Stop):
            COMMANDS[command](spy)
        assert spy.reads == READS[command]

    def test_smt_scale_defaults_match_canonical_config(self):
        """Regression: the CLI once hardcoded step_epochs_rr=2 instead of
        the Table 6 default carried by SMTBanditConfig."""
        from repro.cli import _smt_scale
        from repro.smt.bandit_control import SMTBanditConfig

        args = build_parser().parse_args(["table09"])
        scale = _smt_scale(args)
        canonical = SMTBanditConfig()
        assert scale.step_epochs == canonical.step_epochs
        assert scale.step_epochs_rr == canonical.step_epochs_rr

    def test_step_epochs_flags_exposed(self):
        args = build_parser().parse_args(
            ["table09", "--step-epochs", "3", "--step-epochs-rr", "5"]
        )
        from repro.cli import _smt_scale

        scale = _smt_scale(args)
        assert scale.step_epochs == 3
        assert scale.step_epochs_rr == 5

    def test_workload_names_override_prefix(self):
        from repro.cli import _tune_selection
        from repro.workloads import tune_specs

        args = build_parser().parse_args(
            ["fig08rep", "--workload-names", "milc06, cactus06", "--workloads", "2"]
        )
        names = [spec.name for spec in _tune_selection(args)]
        assert names == ["milc06", "cactus06"]

        args = build_parser().parse_args(["fig08rep", "--workloads", "2"])
        prefix = [spec.name for spec in _tune_selection(args)]
        assert prefix == [spec.name for spec in tune_specs()[:2]]

    @pytest.mark.parametrize("value", [
        "milc06,nosuch", "milc06,", ",milc06", "milc06,,cactus06", " ",
    ])
    def test_workload_names_reject_unknown_or_empty_entries(self, value,
                                                            capsys):
        """An unknown name or an empty entry (a trailing comma) used to pass
        argparse and die in the run with a ``ValueError`` traceback; each
        must exit 2 with a usage message before anything runs."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig08rep", "--workload-names", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--workload-names" in err

    @pytest.mark.parametrize("command", ["fig08", "sec65"])
    def test_workload_names_rejected_where_nothing_reads_it(self, command,
                                                           capsys):
        """Only the tune-set sweeps read ``--workload-names``; elsewhere it
        used to be accepted and dropped, so ``fig08`` still replayed every
        trace. It must exit 2 with a usage message instead."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "--workload-names", "milc06"]
            )
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage:")

    def test_execution_flags_exposed(self):
        args = build_parser().parse_args(
            ["fig08", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True


class TestMain:
    @pytest.fixture(autouse=True)
    def _run_in_tmp_path(self, tmp_path, monkeypatch):
        """Run each command from its own directory, so a command without
        ``--cache-dir`` writes its default ``.repro-cache`` there and never
        reads or writes the one in the directory pytest runs from."""
        monkeypatch.chdir(tmp_path)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "table09" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_sec65_runs(self, capsys):
        assert main(["sec65"]) == 0
        out = capsys.readouterr().out
        assert '"storage_bytes": 88' in out

    def test_fig02_runs_small(self, capsys):
        assert main(["fig02", "--trace-length", "1500"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_traces_export(self, tmp_path, capsys):
        from repro.workloads.trace import read_trace

        assert main(["traces", "--trace-length", "100",
                     "--output-dir", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.trace.gz"))
        assert len(files) == 38  # every workload in every suite
        assert len(read_trace(files[0])) == 100

    def test_cache_and_manifest(self, tmp_path, capsys):
        import json

        cache_dir = tmp_path / "cache"
        argv = ["fig12", "--trace-length", "1200", "--workloads", "1",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        manifest = json.loads((cache_dir / "fig12.manifest.json").read_text())
        assert manifest["totals"]["cache_misses"] > 0
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold
        manifest = json.loads((cache_dir / "fig12.manifest.json").read_text())
        assert manifest["totals"]["cache_misses"] == 0
        assert manifest["totals"]["tasks"] == manifest["totals"]["cache_hits"]

    def test_environment_lasts_for_one_call(self, tmp_path, monkeypatch,
                                            capsys):
        """``--sanitize`` and the trace store's directory hold for their own
        call only: two in-process runs keep their traces in their own
        stores, the second runs unsanitized, and the environment and the
        trace store end as they began, also when the command raises."""
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        before = dict(os.environ)
        store = get_trace_store()
        seen = []
        fig12 = COMMANDS["fig12"]

        def spy(args):
            seen.append((os.environ.get(SANITIZE_ENV),
                         os.environ.get(TRACE_CACHE_ENV)))
            return fig12(args)

        monkeypatch.setitem(COMMANDS, "fig12", spy)
        runs = [(tmp_path / "envA", 600, ["--sanitize"]),
                (tmp_path / "envB", 700, [])]
        for cache_dir, length, extra in runs:
            assert main(["fig12", "--trace-length", str(length),
                         "--workloads", "1", "--cache-dir", str(cache_dir),
                         *extra]) == 0
            assert dict(os.environ) == before
            assert get_trace_store() is store
        assert seen == [("1", str(tmp_path / "envA")),
                        (None, str(tmp_path / "envB"))]
        spec = suites.tune_specs()[0]
        for cache_dir, _, _ in runs:
            cache = ResultCache(cache_dir)
            stored = [cache.get(trace_key(spec, length, 0))[0]
                      for _, length, _ in runs]
            cache.close()
            assert stored == [other == cache_dir for other, _, _ in runs]

        def fail(args):
            raise RuntimeError("figure failed")

        monkeypatch.setitem(COMMANDS, "fig12", fail)
        with pytest.raises(RuntimeError, match="figure failed"):
            main(["fig12", "--sanitize", "--cache-dir",
                  str(tmp_path / "envC")])
        assert dict(os.environ) == before
        assert get_trace_store() is store

    def test_user_trace_directory_wins(self, tmp_path, monkeypatch, capsys):
        """A ``REPRO_TRACE_CACHE_DIR`` the user set keeps the traces, and
        stays set after the call."""
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "traces"))
        with use_trace_store(None):
            assert main(["fig12", "--trace-length", "600", "--workloads",
                         "1", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert os.environ[TRACE_CACHE_ENV] == str(tmp_path / "traces")
        key = trace_key(suites.tune_specs()[0], 600, 0)
        for cache_dir, holds_trace in (("traces", True), ("cache", False)):
            cache = ResultCache(tmp_path / cache_dir)
            assert cache.get(key)[0] is holds_trace
            cache.close()

    def test_profile_writes_dump_and_keeps_output(self, tmp_path, capsys):
        """``--profile`` writes profiles/<cmd>.{prof,json} under the cache
        dir and leaves stdout exactly the table of an unprofiled run."""
        import json

        base = ["fig12", "--trace-length", "1200", "--workloads", "1"]
        cache_dir = tmp_path / "cache"
        assert main(base + ["--profile", "--cache-dir", str(cache_dir)]) == 0
        profiled = capsys.readouterr()
        assert main(base + ["--no-cache"]) == 0
        assert profiled.out == capsys.readouterr().out
        profiles = cache_dir / "profiles"
        assert (profiles / "fig12.prof").is_file()
        summary = json.loads((profiles / "fig12.json").read_text())
        assert summary["label"] == "fig12"
        assert summary["top_cumulative"]
        assert f"[profile] summary: {profiles / 'fig12.json'}" in profiled.err

    def test_jobs_match_serial_output(self, tmp_path, capsys):
        base = ["fig12", "--trace-length", "1200", "--workloads", "1",
                "--no-cache"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert not (tmp_path / ".repro-cache").exists()
