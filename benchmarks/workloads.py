"""The three benchmark workloads.

Each workload builds its inputs from the seed alone and reaches the
program only through public entry points.  A run is: ``setup()`` (timed
from process start by the caller), one untimed checked warm pass, timed
passes with telemetry off, and, when traced, one pass decomposed into
benchmark-opened spans plus one telemetry-on pass whose engine spans
give layer shares.  Every modelled cache starts empty for every request.

Run as a script, this module is the separate trace-writing process of
``stream-files``: ``python workloads.py write-traces SPEC_JSON OUT_DIR``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any

import harness
import numpy as np

from emissary import trace_io
from emissary.api import PolicySpec, SimRequest, simulate
from emissary.compiled import get_kernels
from emissary.engine import CacheConfig
from emissary.hierarchy import BatchedHierarchyEngine, HierarchyConfig
from emissary.traces import InterleaveSpec, TraceSpec

#: The paper-style hierarchy: a 32 KiB L1I (64 sets x 8 ways, LRU) in
#: front of the 512 KiB L2 under test (1024 x 8).
HIER = HierarchyConfig(l1=CacheConfig(num_sets=64, ways=8),
                       l2=CacheConfig(num_sets=1024, ways=8))
#: A loop footprint of 1.5x the L2's 8192 lines, so LRU thrashes the L2.
LOOP_PARAMS = {"footprint_lines": 12288}
EMISSARY = PolicySpec("emissary", {"min_l1_misses": 2})
EMISSARY_PARTITIONED = PolicySpec("emissary", {"min_l1_misses": 2,
                                               "hp_budget": "partitioned"})
POLICIES = (PolicySpec("lru"), PolicySpec("srrip"), PolicySpec("random"),
            EMISSARY)
STREAM_CHUNK_BYTES = 256 << 10
REFERENCE_PREFIX = 100_000

#: Telemetry span name -> per-layer share metric.  ``l1_stage`` and
#: ``l2_stage`` include the ``l1.*`` / ``l2.*`` engine spans nested in them.
TELEMETRY_SHARES = {
    "l1_stage": "hierarchy.l1_stage_share",
    "miss_extract": "hierarchy.miss_extract_share",
    "l2_stage": "hierarchy.l2_stage_share",
    "stream_ingest": "hierarchy.stream_ingest_share",
    "l1.decode": "engine.decode_share.l1",
    "l2.decode": "engine.decode_share.l2",
    "l1.run_collapse": "engine.run_collapse_share.l1",
    "l2.run_collapse": "engine.run_collapse_share.l2",
    "l1.stable_sort": "engine.stable_sort_share.l1",
    "l2.stable_sort": "engine.stable_sort_share.l2",
    "l1.stream_chunk": "engine.stream_chunk_share.l1",
    "l2.stream_chunk": "engine.stream_chunk_share.l2",
    "l1.kernel_loop": "policies.kernel_loop_share.l1",
    "l2.kernel_loop": "policies.kernel_loop_share.l2",
}


def variant(policy: PolicySpec) -> str:
    if policy.params.get("hp_budget") == "partitioned":
        return f"{policy.name}_partitioned"
    return policy.name


def counts(result: dict[str, Any]) -> dict[str, Any]:
    """The outcome a request must reproduce exactly, from a result's wire
    dict: access count, per-level hits, misses and policy statistics,
    and the per-core rows of a multi-core run."""
    return {"n": result["n"],
            "l1": [result["l1"][k] for k in ("hit_count", "miss_count",
                                              "policy_stats")],
            "l2": [result["l2"][k] for k in ("hit_count", "miss_count",
                                              "policy_stats")],
            "per_core": result.get("per_core")}


def compare_hierarchy(got: Any, want: Any, against: str,
                      stats: bool = True) -> str | None:
    """First difference between two hierarchy results (hit vectors, counts,
    per-core rows and, with ``stats``, policy statistics), or None."""
    for level in ("l1", "l2"):
        if not np.array_equal(getattr(got, level).hits,
                              getattr(want, level).hits):
            return f"{level} hit vector differs from {against}"
    a, b = counts(got.to_dict()), counts(want.to_dict())
    if not stats:
        for row in (a, b):
            row["l1"], row["l2"] = row["l1"][:2], row["l2"][:2]
    if a != b:
        return f"counts or policy stats differ from {against}"
    return None


def model_layers(requests: list[SimRequest],
                 results: list[dict[str, Any]]) -> dict[str, float]:
    """Simulated statistics over one pass: they must repeat exactly."""
    n = sum(r["n"] for r in results)
    out = {"hierarchy.l1_hit_rate": sum(r["l1"]["hit_count"]
                                        for r in results) / n,
           "policies.hp_promotions": float(sum(
               r["l2"]["policy_stats"].get("hp_promotions", 0)
               for r in results))}
    by_variant: dict[str, list[int]] = {}
    for req, r in zip(requests, results):
        acc = by_variant.setdefault(variant(req.policy), [0, 0])
        acc[0] += r["l2"]["miss_count"]
        acc[1] += r["n"]
    for name, (misses, total) in by_variant.items():
        out[f"hierarchy.l2_mpki.{name}"] = 1000.0 * misses / total
    return out


def telemetry_shares(payloads: list[tuple[dict[str, Any], float]]
                     ) -> dict[str, float]:
    """Layer shares from telemetry-on results: each engine span's total
    time over the requests' wall time, plus the fraction of accesses
    that reach a policy kernel after MRU run collapsing."""
    span_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    wall = sum(seconds for _, seconds in payloads)
    for tel, _ in payloads:
        for span in tel["spans"]:
            span_s[span["name"]] = (span_s.get(span["name"], 0.0)
                                    + span["dur_us"] / 1e6)
        for name, value in tel["counters"].items():
            counters[name] = counters.get(name, 0) + value
    out = {TELEMETRY_SHARES.get(name, f"engine.{name}_share"): total / wall
           for name, total in span_s.items()}
    for level in ("l1", "l2"):
        accesses = counters.get(f"{level}.engine.accesses", 0)
        if accesses:
            out[f"engine.edge_fraction.{level}"] = (
                counters[f"{level}.engine.edge_accesses"] / accesses)
    return out


def cold_kernels() -> dict[str, float]:
    """Load the compiled kernels; the caller points ``EMISSARY_CC_CACHE``
    at an empty directory, so this includes the C build."""
    start = time.perf_counter()
    get_kernels()
    return {"compiled.load_s": time.perf_counter() - start}


def facts() -> dict[str, str]:
    return {"numpy": np.__version__, "compiled_provider": get_kernels().name}


class SimWorkload:
    """One pass runs every request once, in order, through ``api.simulate``."""

    name = ""
    min_passes = 3
    #: Traced-pass span name -> per-layer metric (seconds per pass).
    span_metrics: dict[str, str] = {}

    def __init__(self, seed: int, quick: bool, work: Path) -> None:
        self.quick = quick
        self.work = work
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.requests: list[SimRequest] = []
        self.expected: list[dict[str, Any]] = []
        self.results: list[dict[str, Any]] = []

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def setup(self) -> dict[str, float]:
        return cold_kernels()

    def simulate(self, req: SimRequest) -> Any:
        return simulate(req)

    def check(self, req: SimRequest, result: Any) -> str | None:
        """The other kernel backend on the full request, and the
        per-access reference engine on a prefix.  The multi-core
        reference engine reports no policy statistics, so that check
        covers hit vectors, counts and per-core rows only."""
        problem = compare_hierarchy(result, simulate(req, engine="compiled"),
                                    "the compiled backend")
        if problem is None:
            prefix = shrink(req, REFERENCE_PREFIX // (10 if self.quick else 1))
            problem = compare_hierarchy(simulate(prefix),
                                        simulate(prefix, engine="reference"),
                                        "the reference engine", stats=False)
        return None if problem is None else f"{variant(req.policy)}: {problem}"

    def traced_request(self, req: SimRequest, spans: harness.Spans) -> Any:
        raise NotImplementedError

    def warm_pass(self, checker: harness.Checker) -> None:
        for req in self.requests:
            result = self.simulate(req)
            checker.record(self.check(req, result))
            self.results.append(result.to_dict())
            self.expected.append(counts(self.results[-1]))

    def timed_pass(self, checker: harness.Checker) -> dict[str, Any]:
        latencies = []
        start = time.perf_counter()
        for req, want in zip(self.requests, self.expected):
            begin = time.perf_counter()
            result = self.simulate(req)
            latencies.append(time.perf_counter() - begin)
            checker.record(None if counts(result.to_dict()) == want
                           else f"{variant(req.policy)}: outcome changed "
                                f"between passes")
        return {"wall": time.perf_counter() - start, "latencies": latencies,
                "accesses": sum(req.trace.n for req in self.requests)}

    def traced(self, checker: harness.Checker, passes: list[dict[str, Any]],
               spans: harness.Spans) -> dict[str, float]:
        with spans.span("pass"):
            for rid, (req, want) in enumerate(zip(self.requests,
                                                  self.expected)):
                with spans.span("request", rid=rid):
                    result = self.traced_request(req, spans)
                    with spans.span("bench.check"):
                        checker.record(None if counts(result.to_dict()) == want
                                       else "traced outcome differs")
        own = spans.self_times("pass")
        layers = {metric: own.get(name, 0.0)
                  for name, metric in self.span_metrics.items()}
        request_s = harness.median([sum(p["latencies"]) for p in passes])
        layers["api.simulate_overhead_s"] = request_s - sum(layers.values())
        telemetry = []
        for req in self.requests:
            start = time.perf_counter()
            result = self.simulate(dataclasses.replace(req, telemetry=True))
            telemetry.append((result.telemetry, time.perf_counter() - start))
        layers.update(telemetry_shares(telemetry))
        layers.update(model_layers(self.requests, self.results))
        return layers


def shrink(req: SimRequest, n: int) -> SimRequest:
    """The first ``n`` accesses of a request's trace.  ``loop`` and
    ``call`` traces are prefix-stable in ``n``, and an interleave of
    prefixes in its weight ratio is a prefix of the interleave."""
    trace = req.trace
    if isinstance(trace, InterleaveSpec):
        trace = dataclasses.replace(trace, cores=tuple(
            dataclasses.replace(core, n=max(1, n * core.n // trace.n))
            for core in trace.cores))
    else:
        trace = dataclasses.replace(trace, n=min(n, trace.n))
    return dataclasses.replace(req, trace=trace)


class OneshotPy(SimWorkload):
    name = "oneshot-py"
    span_metrics = {"traces.generate": "traces.generate_s",
                    "hierarchy.run": "hierarchy.run_s"}

    def __init__(self, seed: int, quick: bool, work: Path) -> None:
        super().__init__(seed, quick, work)
        n = 30_000 if quick else 1_000_000
        traces = [TraceSpec("loop", n, self._seed(), LOOP_PARAMS),
                  TraceSpec("call", n, self._seed())]
        req_seed = self._seed()
        self.requests = [SimRequest(t, p, HIER, seed=req_seed)
                         for t in traces for p in POLICIES]

    def traced_request(self, req: SimRequest, spans: harness.Spans) -> Any:
        with spans.span("traces.generate"):
            addresses = req.trace.generate()
        with spans.span("hierarchy.run"):
            return BatchedHierarchyEngine(req.config).run(
                addresses, req.policy, seed=req.seed)


class Multicore2c(SimWorkload):
    name = "multicore-2c"
    span_metrics = {"traces.generate": "traces.generate_s",
                    "hierarchy.run_multicore": "hierarchy.run_multicore_s"}

    def __init__(self, seed: int, quick: bool, work: Path) -> None:
        super().__init__(seed, quick, work)
        n = 10_000 if quick else 400_000
        trace = InterleaveSpec(cores=(
            TraceSpec("loop", 2 * n, self._seed(), LOOP_PARAMS),
            TraceSpec("call", n, self._seed())), weights=(2, 1))
        req_seed = self._seed()
        policies = (PolicySpec("lru"), PolicySpec("srrip"), EMISSARY,
                    EMISSARY_PARTITIONED)
        self.requests = [SimRequest(trace, p, HIER, seed=req_seed)
                         for p in policies]

    def traced_request(self, req: SimRequest, spans: harness.Spans) -> Any:
        with spans.span("traces.generate"):
            addresses, cores = req.trace.generate()
        with spans.span("hierarchy.run_multicore"):
            return BatchedHierarchyEngine(req.config).run_multicore(
                addresses, cores, req.policy,
                num_cores=req.trace.num_cores, seed=req.seed)


def write_traces(spec: dict[str, Any], out_dir: Path) -> dict[str, float]:
    """Write one synthetic trace as ``.champsim.gz`` and as ``.npy``."""
    trace = TraceSpec.from_dict(spec)
    times = {}
    for fmt, suffix in (("gz", "champsim.gz"), ("npy", "npy")):
        start = time.perf_counter()
        trace_io.write_trace(out_dir / f"trace.{suffix}",
                             trace.generate_chunks(STREAM_CHUNK_BYTES))
        times[fmt] = time.perf_counter() - start
    return times


class StreamFiles(SimWorkload):
    name = "stream-files"
    span_metrics = {"trace_io.read.gz": "trace_io.read_s.gz",
                    "trace_io.read.npy": "trace_io.read_s.npy",
                    "hierarchy.simulate_stream": "hierarchy.simulate_stream_s"}

    def __init__(self, seed: int, quick: bool, work: Path) -> None:
        super().__init__(seed, quick, work)
        n = 20_000 if quick else 500_000
        self.trace = TraceSpec("shift", n, self._seed())
        self.req_seed = self._seed()
        self.paths = {"gz": work / "trace.champsim.gz",
                      "npy": work / "trace.npy"}
        self.oneshot: dict[str, Any] = {}

    def setup(self) -> dict[str, float]:
        out = cold_kernels()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "write-traces",
             json.dumps(self.trace.to_dict()), str(self.work)],
            env=harness.child_env(), capture_output=True, text=True,
            timeout=120, check=True)
        for fmt, seconds in json.loads(proc.stdout).items():
            out[f"trace_io.write_s.{fmt}"] = seconds
        out["trace_io.write_s"] = sum(
            v for k, v in out.items() if k.startswith("trace_io.write_s."))
        specs = [trace_io.file_spec(self.paths[fmt], STREAM_CHUNK_BYTES)
                 for fmt in ("gz", "npy")]
        self.requests = [SimRequest(spec, p, HIER, seed=self.req_seed,
                                    backend="compiled")
                         for spec in specs for p in POLICIES]
        return out

    def simulate(self, req: SimRequest) -> Any:
        return simulate(req, stream=True, chunk_bytes=STREAM_CHUNK_BYTES)

    def check(self, req: SimRequest, result: Any) -> str | None:
        """Streamed from the file == one-shot in memory on ``batched``,
        over the addresses the generator produced."""
        key = variant(req.policy)
        if key not in self.oneshot:
            self.oneshot[key] = simulate(self.trace.generate(), req.policy,
                                         req.config, seed=req.seed)
        problem = compare_hierarchy(result, self.oneshot[key],
                                    "the in-memory one-shot run")
        fmt = req.trace.params["format"]
        return None if problem is None else f"{fmt} {key}: {problem}"

    def warm_pass(self, checker: harness.Checker) -> None:
        super().warm_pass(checker)
        self.oneshot.clear()  # keeps the timed passes' memory streamed

    def traced_request(self, req: SimRequest, spans: harness.Spans) -> Any:
        fmt = "gz" if req.trace.params["format"] == "champsim.gz" else "npy"
        with spans.span(f"trace_io.read.{fmt}"):
            chunks = list(trace_io.open_trace(self.paths[fmt],
                                              STREAM_CHUNK_BYTES))
        with spans.span("hierarchy.simulate_stream"):
            return BatchedHierarchyEngine(
                req.config, kernel_backend="compiled").simulate_stream(
                    chunks, req.policy, seed=req.seed)

    def traced(self, checker: harness.Checker, passes: list[dict[str, Any]],
               spans: harness.Spans) -> dict[str, float]:
        layers = super().traced(checker, passes, spans)
        reads = len(POLICIES)  # each file is read once per policy per pass
        layers["trace_io.chunks"] = float(reads * sum(
            sum(1 for _ in trace_io.open_trace(path, STREAM_CHUNK_BYTES))
            for path in self.paths.values()))
        for fmt, path in self.paths.items():
            layers[f"trace_io.read_mib_per_s.{fmt}"] = (
                reads * path.stat().st_size / 2**20
                / layers[f"trace_io.read_s.{fmt}"])
        return layers


WORKLOADS = {cls.name: cls for cls in (OneshotPy, StreamFiles, Multicore2c)}


if __name__ == "__main__":
    if sys.argv[1:2] != ["write-traces"] or len(sys.argv) != 4:
        sys.exit("usage: workloads.py write-traces SPEC_JSON OUT_DIR")
    print(json.dumps(write_traces(json.loads(sys.argv[2]), Path(sys.argv[3]))))
