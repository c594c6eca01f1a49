"""Self-test of the benchmark harness at ``--smoke`` scale.

Run from the repository root with ``python3 -m pytest perfbench``. One
untraced and one traced run of every workload take about thirty seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload.name for workload in WORKLOADS]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    plain = _result(_run("--smoke", "--out", str(out / "plain.json")))
    traced = _result(_run("--smoke", "--trace", "--out", str(out / "traced.json")))
    return {
        "dir": out,
        "plain": plain,
        "traced": traced,
        "plain_records": json.loads((out / "plain.json").read_text())["workloads"],
        "traced_records": json.loads((out / "traced.json").read_text())["workloads"],
    }


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [entry["name"] for entry in SPEC["workloads"]] == NAMES
    assert all(set(entry) == {"name", "why"} for entry in SPEC["workloads"])
    assert all(set(entry) == {"name", "unit", "better", "bound"}
               and 0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert all(set(entry) == {"name", "unit", "better"} for entry in SPEC["per_layer"])
    setup = [entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    names = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


def test_result_lines_name_every_benchmark_metric(runs):
    for mode, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        result = runs[mode]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2 * len(NAMES)
        expected = {f"{name}/{entry['name']}": entry["unit"]
                    for name in NAMES for entry in SPEC[section]}
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
        assert all(isinstance(entry["value"], (int, float))
                   for entry in result["metrics"].values())


def test_records_carry_samples_counts_and_digests(runs):
    for name, record in runs["plain_records"].items():
        for entry in SPEC["end_to_end"]:
            metric = record["metrics"][entry["name"]]
            assert metric["n"] == len(metric["samples"]) >= 1
            assert metric["value"] > 0
        assert record["metrics"]["error_rate"]["value"] == 0
        assert re.fullmatch(r"[0-9a-f]{64}", record["digest"])
        assert record["digests"] == [record["digest"]]
        assert set(record["counts"]) == {"sim.tasks", "sim.cache_hits", "sim.records",
                                         "sim.lane_records", "sim.smt_cycles"}


def test_digests_and_counts_repeat_across_runs(runs):
    for name in NAMES:
        plain, traced = runs["plain_records"][name], runs["traced_records"][name]
        assert plain["digest"] == traced["digest"], name
        assert plain["counts"] == traced["counts"], name


def test_layer_self_times_sum_to_the_traced_wall(runs):
    for name, record in runs["traced_records"].items():
        metrics = record["metrics"]
        wall = metrics["trace.wall_s"]["value"]
        layers = sum(metrics[layer]["value"] for layer in LAYER_METRICS)
        assert abs(layers - wall) <= 0.05 * wall, name
        assert record["spans"] and all(span["end"] >= span["start"]
                                       for span in record["spans"])


def test_compare_passes_a_run_against_itself_and_fails_on_a_digest_change(runs):
    plain = runs["dir"] / "plain.json"
    assert _run("compare", str(plain), str(plain)).returncode == 0
    tampered = json.loads(plain.read_text())
    tampered["workloads"][NAMES[0]]["digest"] = "0" * 64
    changed = runs["dir"] / "tampered.json"
    changed.write_text(json.dumps(tampered))
    completed = _run("compare", str(plain), str(changed))
    assert completed.returncode == 1 and "digest differs" in completed.stdout


def test_run_without_the_simulator_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
