"""Tests of the benchmark itself: every metric is emitted with its unit for
every workload, and a wrong result counts as failed and makes the exit
status nonzero.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be positive on each workload; the others
# measure layers the workload never calls and read 0 there.
SEARCHES = {
    "constructions.first_component_s",
    "constructions.first_component_states",
    "minimization.partition_s",
    "minimization.states_per_s",
    "minimization.blocks",
    "oracle.search_s",
    "oracle.search_kernel_s",
    "oracle.pairs_covered",
    "oracle.kernel_pairs_per_s",
    "trace.overhead",
}
EXERCISED = {
    "witness-grid": {
        "constructions.first_component_s",
        "constructions.first_component_states",
        "constructions.product_s",
        "constructions.product_states",
        "minimization.partition_s",
        "minimization.states_per_s",
        "minimization.quotient_s",
        "minimization.blocks",
        "minimization.state_complexity_s",
        "witnesses.witness_pair_s",
        "trace.overhead",
    },
    "exhaustive-search": SEARCHES | {"oracle.enumerate_s", "oracle.machines_enumerated"},
    "sampled-search": SEARCHES | {"oracle.random_dfa_s", "oracle.random_dfas"},
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_runner_units_match_the_spec():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(EXERCISED) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    positive = EXERCISED[workload] if trace else set(record["metrics"])
    for name in positive:
        assert record["metrics"][name]["value"] > 0, name
    for m in spec:
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines)
    assert any(line.startswith("fail_rate 0 ratio") for line in lines)


def test_the_reference_task_is_fixed():
    assert reference.EXPECTED == (1493, 1493)
    assert reference.timed() > 0


def test_a_pass_is_timed_in_reference_durations():
    # Ops that each run the reference task five times take about five
    # reference durations each, whatever the host's speed.
    op = SimpleNamespace(run=lambda: [reference.task() for _ in range(5)], problem=lambda out: None)
    result = run.Result()
    timed = run.run_pass([op] * 4, result, None)
    assert result.correct and result.attempted == 4
    assert timed.seconds > 0
    assert 10 < timed.refs < 40


def traced_metrics(workload: str) -> dict[str, float]:
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def test_spans_time_the_workloads_own_calls():
    grid = traced_metrics("witness-grid")
    # Every minimize span is one the workload made: its blocks add up to the
    # minimal states one pass measures, not twice that.
    assert grid["minimization.blocks"] == 150_444
    stages = sum(
        grid[m]
        for m in (
            "constructions.first_component_s",
            "constructions.product_s",
            "minimization.partition_s",
            "minimization.quotient_s",
        )
    )
    assert stages <= grid["minimization.state_complexity_s"]
    search = traced_metrics("exhaustive-search")
    assert search["oracle.pairs_covered"] == 4 * 65_536
    # Refinement inside the search kernel is traced too.
    assert search["minimization.partition_s"] < search["oracle.search_kernel_s"]
    assert search["oracle.search_kernel_s"] < search["oracle.search_s"]


def load_with(patch):
    def load():
        lib = run.load_sclab()
        patch(lib)
        return lib

    return load


def wrong_size(lib):
    lib.state_complexity = lambda dM, dN, op: 1


def wrong_maximum(lib):
    search_max = lib.search_max

    def search(*args, **kwargs):
        report = search_max(*args, **kwargs)
        return dataclasses.replace(report, observed_max=report.observed_max + 1)

    lib.search_max = search


def wrong_minimize(lib):
    minimize = lib.minimize
    lib.minimize = lambda d: SimpleNamespace(state_count=minimize(d).state_count + 1)


@pytest.mark.parametrize(
    "workload, trace, patch, wrong_per_pass",
    [
        ("witness-grid", 0, wrong_size, 12),
        ("exhaustive-search", 0, wrong_maximum, 4),
        ("sampled-search", 0, wrong_maximum, 4),
        # Only the traced run's stage-by-stage check calls minimize through
        # the package.
        ("exhaustive-search", 1, wrong_minimize, 4),
    ],
)
def test_a_wrong_result_raises_fail_rate(capsys, workload, trace, patch, wrong_per_pass):
    args = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace)
    assert run.run_one(args, load=load_with(patch)) == 1
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-1])
    assert record["correct"] is False
    assert record["failed"] == wrong_per_pass
    assert record["attempted"] == wrong_per_pass * (3 if trace else 1)
    rate = record["failed"] / record["attempted"]
    assert any(line.startswith(f"fail_rate {rate:.6g} ratio") for line in lines)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
