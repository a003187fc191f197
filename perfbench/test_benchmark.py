"""Smallest-size self-test of the benchmark: it checks the result schema
and the metric names against BENCHMARK.json, never the timings."""

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.fixture
def smallest(monkeypatch, tmp_path):
    """The shipped workload cut down to its oscillator problem."""
    run._check_checkout()
    full = workloads.BUILDERS["shipped"]

    def oscillator_only(seed, root):
        workload = full(seed, root)
        workload.problems = [p for p in workload.problems if p.name == "oscillator"]
        return workload

    monkeypatch.setitem(workloads.BUILDERS, "shipped", oscillator_only)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("traced, section", [(False, "end_to_end"), (True, "per_layer")])
def test_result_schema_and_metric_names(smallest, traced, section):
    result = run.measure("shipped", 1, 0.0, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_a_command_kind_that_fails_everywhere_still_gives_a_result(smallest, monkeypatch):
    from perfbench import oracle

    def broken(report):
        raise oracle.Wrong("simulate broken on purpose")

    monkeypatch.setattr(oracle, "check_simulate", broken)
    result = run.measure("shipped", 1, 0.0, False)
    assert result["correct"] is False and result["failed"] >= 1
    # a case never timed counts at its budget
    budget_ms = workloads.DECIDED_BUDGET_S * 1e3
    assert result["metrics"]["simulate_ms"]["value"] == pytest.approx(budget_ms)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
