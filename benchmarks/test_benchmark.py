"""Smoke tests for the benchmark.  Run with ``pytest benchmarks``; the
tier-1 suite (``testpaths = ["tests"]``) does not collect them.

The ``--quick`` runs use toy sizes, one pass and one set-up per
workload, so the whole module takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness
import pytest
from compare import compare
from probe import Probe

RUN = [sys.executable, str(harness.BENCH_DIR / "run.py")]
SPEC = harness.load_spec()


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One quick traced run of every workload and its report."""
    report = tmp_path_factory.mktemp("bench") / "report.json"
    proc = run_bench("--quick", "--trace", "--out", str(report))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(report.read_text())


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit(traced):
    proc, _ = traced
    printed = {tuple(line.split()[:2]): line.split()[-1]
               for line in proc.stdout.splitlines()[:-1]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed.get((workload, metric["name"])) == metric["unit"], \
                (workload, metric["name"])
    line = last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert len(line["metrics"]) == len(SPEC["workloads"]) * len(SPEC["per_layer"])


def test_no_request_fails(traced):
    proc, report = traced
    line = last_line(proc)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for result in report["runs"][0]["workloads"].values():
        assert result["failed"] == 0 and result["problems"] == []


def test_throughput_is_scaled_by_the_probed_host_speed(traced):
    for result in traced[1]["runs"][0]["workloads"].values():
        speed = Probe.nominal_s / result["probe_s"]["value"]
        assert result["metrics"]["maccess_per_s"]["value"] == pytest.approx(
            result["raw"]["maccess_per_s"]["value"] / speed)


def test_a_flipped_hit_is_counted_as_a_failure(tmp_path):
    harness.use_program()
    import workloads

    wl = workloads.OneshotPy(seed=3, quick=True, work=tmp_path)
    req = wl.requests[-1]
    result = wl.simulate(req)
    checker = harness.Checker()
    assert checker.record(wl.check(req, result))
    result.l2.hits[0] = not result.l2.hits[0]
    assert not checker.record(wl.check(req, result))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_seed_changes_inputs_but_not_metric_names(tmp_path, traced):
    harness.use_program()
    import workloads

    def inputs(wl):
        # stream-files builds its requests from the files setup() writes.
        if isinstance(wl, workloads.StreamFiles):
            return wl.trace.to_dict()
        return [r.to_dict() for r in wl.requests]

    for cls in workloads.WORKLOADS.values():
        assert inputs(cls(1, True, tmp_path)) == inputs(cls(1, True, tmp_path))
        assert inputs(cls(1, True, tmp_path)) != inputs(cls(2, True, tmp_path))
    proc = run_bench("--quick", "--trace", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert set(last_line(proc)["metrics"]) == set(last_line(traced[0])["metrics"])


def test_comparing_a_report_with_itself_reports_no_change(traced):
    _, report = traced
    runs = report["runs"] * 10
    lines, ok = compare(runs, runs, SPEC)
    assert ok
    assert all(line.endswith("no change") for line in lines if line.startswith("  "))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "oneshot-py"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_code_passes_ruff():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    proc = subprocess.run([ruff, "check", "benchmarks"], cwd=harness.ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
