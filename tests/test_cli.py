"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        expected = {
            "fig02", "fig05", "fig07", "fig08", "fig08rep", "fig09",
            "fig10", "fig10rep", "fig11", "fig12", "fig13", "fig14",
            "fig15", "table08", "table09", "sec65", "traces", "matrix",
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
    ])
    def test_size_flags_reject_non_positive_values(self, flag, capsys):
        """Zero or negative sizes used to hang a step loop or crash deep in
        a run; they must exit 2 with a usage message before anything runs."""
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

    def test_jobs_match_serial_output(self, tmp_path, capsys):
        base = ["fig12", "--trace-length", "1200", "--workloads", "1",
                "--no-cache"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert not (tmp_path / ".repro-cache").exists()


class TestMatrixCommand:
    def test_expand_only_prints_points(self, capsys):
        assert main(["matrix",
                     "--axis", "workload=milc06,cactus06",
                     "--axis", "scenario=none,stride",
                     "--expand-only"]) == 0
        out = capsys.readouterr().out
        assert "Matrix expansion (4 points)" in out
        assert "milc06" in out and "cactus06" in out

    def test_exclude_and_include_flags(self, capsys):
        assert main(["matrix",
                     "--axis", "workload=milc06,cactus06",
                     "--axis", "scenario=none,stride",
                     "--exclude", "workload=cactus06,scenario=stride",
                     "--include", "workload=milc06,scenario=bandit",
                     "--expand-only"]) == 0
        out = capsys.readouterr().out
        assert "Matrix expansion (4 points)" in out
        assert "bandit" in out

    def test_suite_values_expand_to_members(self, capsys):
        assert main(["matrix", "--axis", "workload=suite:SPEC06",
                     "--axis", "scenario=none", "--expand-only"]) == 0
        out = capsys.readouterr().out
        assert "Matrix expansion (10 points)" in out
        assert "milc06" in out

    def test_spec_file_runs_points(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "axes": {"workload": ["milc06"],
                     "scenario": ["stride", "bandit"]},
        }))
        assert main(["matrix", "--spec", str(spec),
                     "--trace-length", "1500", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Scenario matrix (2 points)" in out
        assert "vs none" in out

    def test_spec_and_axis_are_exclusive(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        with pytest.raises(SystemExit):
            main(["matrix", "--spec", str(spec),
                  "--axis", "scenario=none", "--expand-only"])

    def test_requires_spec_or_axes(self):
        with pytest.raises(SystemExit):
            main(["matrix", "--expand-only"])
