"""Tests of the benchmark harness itself, on seconds-long inputs.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DEADLINE_S = 120.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(workload, tmp_path):
    record = run.run(workload, seed=5, seconds=0.1, trace=False, size="tiny")
    assert record["correct"], record["failures"]
    assert record["failed"] == 0
    spec = workloads.prepare(workload, 5, "tiny", tmp_path)
    assert record["attempted"] == len(record["samples"]["wall_s"]) * workloads.attempted(spec)
    assert all(value > 0 for value in record["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_passes_calls_through_unchanged(workload, tmp_path):
    spec = workloads.prepare(workload, 2, "tiny", tmp_path / "inputs")
    env = run.child_env(None)
    deadline = time.perf_counter() + DEADLINE_S
    plain = run.run_worker(spec, tmp_path / "plain", False, env, deadline)
    traced = run.run_worker(spec, tmp_path / "traced", True, env, deadline)
    assert "layers" in traced and "layers" not in plain
    assert traced["exits"] == plain["exits"]
    plain_files = workloads.output_files(tmp_path / "plain" / "out")
    assert plain_files
    assert workloads.output_files(tmp_path / "traced" / "out") == plain_files


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace, section):
    line = run.result_line(run.run(workload, seed=1, seconds=0.1,
                                   trace=bool(trace), size="tiny"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected


def test_check_detects_a_changed_value(tmp_path):
    spec = workloads.prepare("sim", 3, "tiny", tmp_path / "inputs")
    rep = run.run_worker(spec, tmp_path / "rep", False, run.child_env(None),
                         time.perf_counter() + DEADLINE_S)
    out = tmp_path / "rep" / "out"
    reference = json.loads(gzip.decompress(workloads.reference_path(spec).read_bytes()))
    assert not workloads.check(spec, rep["exits"], out, reference)

    tidy = out / "sim_tidy.csv"
    header, first, *rest = tidy.read_text().splitlines()
    cells = first.split(",")
    column = header.split(",").index("test_risk")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6))
    tidy.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert workloads.check(spec, rep["exits"], out, reference)["mismatch"] == 1


def test_fails_without_the_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=DEADLINE_S)
    assert proc.returncode != 0
    assert proc.stdout == ""
