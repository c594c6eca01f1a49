"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


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
        parser = build_parser()
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(["fig13", flag, value])
            assert excinfo.value.code == 2
            assert "must be a positive integer" in capsys.readouterr().err
        args = parser.parse_args(["fig13", flag, "1"])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == 1

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

    def test_execution_flags_exposed(self):
        args = build_parser().parse_args(
            ["fig08", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True


class TestMain:
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
