"""Shared plumbing for the benchmark: paths, spans, statistics, checks.

Nothing here imports the program under test, so the parent process of
``run.py`` stays light and every byte of set-up time lands in the
workload child that pays it.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "benchmarks"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space (results caches, trace files, compiled-kernel caches).
WORK_DIR = BENCH_DIR / ".work"
#: Reports and Chrome traces.
OUT_DIR = BENCH_DIR / "out"


def program_present() -> bool:
    return (SRC / "emissary" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import emissary`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict[str, str]:
    """Environment for every process the benchmark starts: the program
    comes from ``src/``, and the compiled-kernel switch is at its default
    so a stray ``EMISSARY_COMPILED=off`` cannot change what is measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EMISSARY_COMPILED", None)
    env.update(extra)
    return env


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


# -- statistics ---------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by the default
    (exclusive) method of ``statistics.quantiles``: for a few runs it
    reaches further into the extremes than the inclusive method, so a
    spread within a bound here is within it by either method."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def spread(values: list[float]) -> float:
    """Run-to-run spread: interquartile range over median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid


def summary(values: list[float]) -> dict[str, float]:
    """Median plus min, max and the sample count, as the report stores it."""
    return {"value": median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def metric_value(metric: Any) -> float:
    """A report metric's value, whether stored bare or as a :func:`summary`."""
    return metric["value"] if isinstance(metric, dict) else float(metric)


# -- process facts --------------------------------------------------------------


def vm_hwm_mib() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Hand freed heap memory back to the system, then reset this
    process's ``VmHWM`` to its current resident set size.  Without the
    trim, memory that was freed but kept by ``malloc`` would count toward
    the new peak, by an amount that varies from run to run."""
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def machine_facts() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


# -- correctness accounting -----------------------------------------------------


class Checker:
    """Counts requests attempted and failed; a failed request is one that
    errored, was refused, or returned a result that did not check out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)
        return False


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent, request id.

    Spans are opened by the benchmark around the public calls it makes,
    never inside the program, and nest through a stack.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: int | None = None):
        sid = len(self.records)
        self.records.append({"id": sid, "name": name,
                             "start": time.perf_counter(), "end": math.nan,
                             "parent": self._stack[-1] if self._stack else None,
                             "rid": rid})
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.records[sid]["end"] = time.perf_counter()

    def _root_name(self, rec: dict[str, Any]) -> str:
        while rec["parent"] is not None:
            rec = self.records[rec["parent"]]
        return rec["name"]

    def self_times(self, root: str | None = None) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part its
        children cover; only spans under a ``root`` span when given."""
        child_time = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[str, float] = {}
        for rec, covered in zip(self.records, child_time):
            if root is not None and self._root_name(rec) != root:
                continue
            own = rec["end"] - rec["start"] - covered
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + own
        return totals

    def coverage(self, root: str, glue: tuple[str, ...] = ()) -> float:
        """Share of the ``root`` spans' wall time that layer spans account
        for in self time (the root and ``glue`` wrappers excluded)."""
        wall = sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == root)
        inside = self.self_times(root)
        layers = sum(t for name, t in inside.items()
                     if name != root and name not in glue)
        return layers / wall if wall else 0.0

    def chrome_trace(self) -> dict[str, Any]:
        base = min((r["start"] for r in self.records), default=0.0)
        pid = os.getpid()
        events = [{"name": r["name"], "ph": "X", "pid": pid, "tid": 0,
                   "ts": (r["start"] - base) * 1e6,
                   "dur": (r["end"] - r["start"]) * 1e6,
                   "args": {"id": r["id"], "parent": r["parent"],
                            "request": r["rid"]}}
                  for r in self.records]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
