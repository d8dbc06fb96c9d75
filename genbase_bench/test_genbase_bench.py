"""Smoke test of the benchmark harness: all six workloads on ``tiny``, one sweep.

It checks what the harness promises — every declared metric reported with its
unit, no failed cell, well-formed traces, a comparison tool that flags what it
must — and measures nothing.
"""

from __future__ import annotations

import copy
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare_runs  # noqa: E402

CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("genbase_bench") / "result.json"
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return json.loads(out.read_text())


def test_contract_limits():
    assert len(WORKLOADS) == 6
    assert len(CONTRACT["end_to_end"]) <= 16 and len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(report, workload):
    result = report["workloads"][workload]
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in CONTRACT[kind]}
        assert set(result[kind]) == set(declared)
        for name, metric in result[kind].items():
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
    assert all(result["end_to_end"][m["name"]]["value"] > 0 for m in CONTRACT["end_to_end"])
    assert result["fail_ratio"] == 0 and result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0


def test_environment_is_recorded(report):
    environment = report["environment"]
    assert {"git_commit", "nproc", "python", "numpy", "blas", "thread_pins"} <= set(environment)
    assert environment["thread_pins"]["OMP_NUM_THREADS"] == "1"
    assert report["seed"] == 42
    assert all(report["workloads"][w]["wall_s"] > 0 for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_is_well_formed(report, workload):
    trace_file = Path(report["workloads"][workload]["detail"]["traced"]["trace_file"])
    trace = json.loads(trace_file.read_text())
    assert trace["columns"] == ["id", "name", "start_s", "end_s", "parent", "query"]
    spans = trace["spans"]
    assert spans
    for index, name, start, end, parent, query in spans:
        assert end >= start
        if parent is None:  # only the benchmark's own roots have no parent
            assert name.startswith(("cell:", "probe:")), name
        else:
            _, _, parent_start, parent_end, _, parent_query = spans[parent]
            assert parent < index and parent_query == query
            assert parent_start <= start and end <= parent_end
    assert any(name == "core.engine" for _, name, *_ in spans)


def run_compare(base: dict, candidate: dict) -> tuple[int, str]:
    out = io.StringIO()
    return compare_runs.compare(base, candidate, CONTRACT, out), out.getvalue()


def test_compare_runs_accepts_identical_files(report):
    status, text = run_compare(report, report)
    assert status == 0 and "0 regressed, 0 count metrics changed" in text


def test_compare_runs_flags_a_slower_sweep(report):
    slower = copy.deepcopy(report)
    metric = slower["workloads"]["colstore_xl"]["end_to_end"]["sweep_ms"]
    metric["value"] *= 1.3  # the bound is 25 %
    metric["runs"] = [value * 1.3 for value in metric["runs"]]
    status, text = run_compare(report, slower)
    assert status == 1
    flagged = [line for line in text.splitlines() if line.endswith("regressed")]
    assert len(flagged) == 1 and "colstore_xl" in flagged[0] and "sweep_ms" in flagged[0]
    assert run_compare(slower, report)[0] == 0  # the other way round it is a gain


def test_compare_runs_flags_a_failed_cell(report):
    failing = copy.deepcopy(report)
    result = failing["workloads"]["fig1_grid"]
    result["failed"], result["failures"] = 1, ["hadoop/svd/n1: error injected"]
    result["fail_ratio"] = 1 / result["attempted"]
    status, text = run_compare(report, failing)
    assert status == 1 and "fail_ratio" in text and "injected" in text


def test_compare_runs_reports_unresolved_and_counts(report):
    noisy = copy.deepcopy(report)
    metric = noisy["workloads"]["kernels_xl"]["end_to_end"]["sweep_ms"]
    metric["runs"] = [metric["value"] * 0.8, metric["value"], metric["value"] * 1.5]
    metric["value"] *= 1.3
    noisy["workloads"]["fig1_grid"]["per_layer"]["mapreduce.shuffle_records"]["value"] += 1
    status, text = run_compare(report, noisy)
    assert status == 0
    assert any(line.endswith("unresolved") and "kernels_xl" in line for line in text.splitlines())
    assert "mapreduce.shuffle_records: count changed" in text
