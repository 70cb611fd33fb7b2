"""Throughput benchmark harness.

Runs every policy over a large synthetic trace on both engines, checks
that hit/miss outcomes are bit-identical, and writes a ``BENCH_*.json``
recording accesses/sec, speedup, and per-policy MPKI / hit-rate so the
performance trajectory is tracked from PR 1 onward.  With
``--hierarchy`` the same cross-check runs on the two-level L1I -> L2
engines (``BatchedHierarchyEngine`` vs the per-access
``HierarchyReferenceEngine``), comparing L1 hit vectors and L2 outcomes,
and writes ``BENCH_hierarchy.json``.

With ``--stream`` the same trace is written to disk (ChampSim gzip and
``.npy``), streamed back through ``simulate_stream`` at several chunk
budgets, checked bit-identical against the in-memory one-shot run, and
the streamed throughput is written to ``BENCH_stream.json``.

Usage::

    python -m emissary.bench                 # 1M accesses, all policies
    python -m emissary.bench --n 100000 --policies lru,emissary
    python -m emissary.bench --hierarchy     # two-level engine benchmark
    python -m emissary.bench --stream        # chunked streaming benchmark
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import platform
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from emissary import __version__
from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyReferenceEngine)
from emissary.policies import POLICY_NAMES
from emissary.telemetry import Telemetry
from emissary.traces import AddressArray, InterleaveSpec, TraceSpec

#: In the hierarchy bench, EMISSARY gates HP candidacy on measured L1I
#: miss counts (a line must have cost >= 2 demand misses to qualify).
#: Single-level runs have no measured signal, so they get no override.
EMISSARY_HIERARCHY_PARAMS = {"min_l1_misses": 2}


def _best_of(engine, addresses: AddressArray, spec: PolicySpec, seed: int, repeats: int):
    """Fastest of ``repeats`` runs (timing noise floor); outcomes are seeded
    so every repeat is bit-identical and any run's hits are representative."""
    best = None
    for _ in range(max(1, repeats)):
        result = engine.simulate_stream([addresses], spec, seed=seed)
        if best is None or result.elapsed_s < best.elapsed_s:
            best = result
    return best


def bench_policy(addresses: AddressArray, spec: PolicySpec, config: CacheConfig,
                 seed: int, skip_reference: bool = False,
                 repeats: int = 3) -> dict[str, Any]:
    batched = _best_of(BatchedEngine(config), addresses, spec, seed, repeats)
    row: dict[str, Any] = {
        "policy": spec.name,
        "batched": batched.to_dict(),
        "hit_rate": batched.hit_rate,
        "mpki": batched.mpki,
    }
    if not skip_reference:
        reference = _best_of(ReferenceEngine(config), addresses, spec, seed, repeats)
        identical = bool(np.array_equal(batched.hits, reference.hits))
        row["reference"] = reference.to_dict()
        row["outcomes_identical"] = identical
        row["speedup"] = reference.elapsed_s / batched.elapsed_s
    return row


def bench_hierarchy_policy(addresses: AddressArray, spec: PolicySpec,
                           config: HierarchyConfig, seed: int,
                           skip_reference: bool = False,
                           repeats: int = 3) -> dict[str, Any]:
    batched = _best_of(BatchedHierarchyEngine(config), addresses, spec, seed, repeats)
    row: dict[str, Any] = {
        "policy": spec.name,
        "batched": batched.to_dict(),
        "l1_hit_rate": batched.l1_hit_rate,
        "l2_local_hit_rate": batched.l2_local_hit_rate,
        "l2_mpki": batched.l2_mpki,
    }
    if not skip_reference:
        reference = _best_of(HierarchyReferenceEngine(config), addresses, spec,
                             seed, repeats)
        identical = bool(np.array_equal(batched.l1.hits, reference.l1.hits)
                         and np.array_equal(batched.l2.hits, reference.l2.hits))
        row["reference"] = reference.to_dict()
        row["outcomes_identical"] = identical
        row["speedup"] = reference.elapsed_s / batched.elapsed_s
    return row


def bench_multicore_policy(addresses: AddressArray, core_ids: Any,
                           num_cores: int, spec: PolicySpec,
                           config: HierarchyConfig, seed: int,
                           skip_reference: bool = False,
                           repeats: int = 3) -> dict[str, Any]:
    """One N-core shared-L2 bench row: batched throughput, and (unless
    skipped) bit-identity plus speedup against the per-access multi-core
    oracle — hit vectors at both levels *and* the per-core fairness
    breakdown must match."""
    engine = BatchedHierarchyEngine(config)
    batched = None
    for _ in range(max(1, repeats)):
        result = engine.simulate_stream([(addresses, core_ids)], spec,
                                        num_cores=num_cores, seed=seed)
        if batched is None or result.elapsed_s < batched.elapsed_s:
            batched = result
    row: dict[str, Any] = {
        "policy": spec.name,
        "params": dict(spec.params),
        "num_cores": num_cores,
        "batched": batched.to_dict(),
        "l1_hit_rate": batched.l1_hit_rate,
        "l2_local_hit_rate": batched.l2_local_hit_rate,
        "l2_mpki": batched.l2_mpki,
        "per_core": batched.per_core,
    }
    if not skip_reference:
        reference = HierarchyReferenceEngine(config).simulate_stream(
            [(addresses, core_ids)], spec, num_cores=num_cores, seed=seed)
        identical = bool(np.array_equal(batched.l1.hits, reference.l1.hits)
                         and np.array_equal(batched.l2.hits, reference.l2.hits)
                         and batched.per_core == reference.per_core)
        row["reference"] = reference.to_dict()
        row["outcomes_identical"] = identical
        row["speedup"] = reference.elapsed_s / batched.elapsed_s
    return row


def _bench_specs(policies: list[str], hierarchy: bool = False) -> list[PolicySpec]:
    extra = EMISSARY_HIERARCHY_PARAMS if hierarchy else {}
    return [PolicySpec(p, dict(extra) if p == "emissary" else {}) for p in policies]


def _finalize(report: dict[str, Any], rows: list[dict[str, Any]],
              skip_reference: bool) -> dict[str, Any]:
    report["policies"] = rows
    if not skip_reference:
        report["all_outcomes_identical"] = all(r["outcomes_identical"] for r in rows)
        report["min_speedup"] = min(r["speedup"] for r in rows)
        report["max_speedup"] = max(r["speedup"] for r in rows)
    return report


def _report_header(benchmark: str, spec: TraceSpec) -> dict[str, Any]:
    return {
        "benchmark": benchmark,
        "emissary_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trace": spec.to_dict(),
    }


def run_bench(n: int = 1_000_000, policies: list[str] | None = None,
              trace_kind: str = "loop", seed: int = 42,
              config: CacheConfig | None = None,
              skip_reference: bool = False, repeats: int = 3) -> dict[str, Any]:
    config = config or CacheConfig()
    policies = policies or list(POLICY_NAMES)
    footprint = int(config.num_sets * config.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    addresses = spec.generate()

    rows = [bench_policy(addresses, p, config, seed, skip_reference, repeats)
            for p in _bench_specs(policies)]
    report = _report_header("engine_throughput", spec)
    report["cache"] = config.to_dict()
    return _finalize(report, rows, skip_reference)


def run_hierarchy_bench(n: int = 1_000_000, policies: list[str] | None = None,
                        trace_kind: str = "loop", seed: int = 42,
                        config: HierarchyConfig | None = None,
                        skip_reference: bool = False,
                        repeats: int = 3) -> dict[str, Any]:
    config = config or HierarchyConfig()
    policies = policies or list(POLICY_NAMES)
    footprint = int(config.l2.num_sets * config.l2.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    addresses = spec.generate()

    rows = [bench_hierarchy_policy(addresses, p, config, seed, skip_reference, repeats)
            for p in _bench_specs(policies, hierarchy=True)]
    report = _report_header("hierarchy_throughput", spec)
    report["hierarchy"] = config.to_dict()
    report = _finalize(report, rows, skip_reference)

    # Multi-core arm: two instruction streams interleaved 2:1 into the
    # shared L2, benched with LRU and partitioned-budget EMISSARY and
    # (unless skipped) proven bit-identical to the per-access N-core
    # oracle — including the per-core fairness breakdown.
    mix = InterleaveSpec(
        cores=(TraceSpec(trace_kind, n // 2, seed,
                         {"footprint_lines": footprint}
                         if trace_kind in ("loop", "shift") else {}),
               TraceSpec("call", n // 4, seed + 1)),
        weights=(2, 1))
    mc_addresses, mc_cores = mix.generate()
    mc_specs = [PolicySpec("lru"),
                PolicySpec("emissary", {**EMISSARY_HIERARCHY_PARAMS,
                                        "hp_budget": "partitioned"})]
    mc_rows = [bench_multicore_policy(mc_addresses, mc_cores, mix.num_cores,
                                      p, config, seed, skip_reference, repeats)
               for p in mc_specs]
    multicore: dict[str, Any] = {"trace": mix.to_dict(), "policies": mc_rows}
    if not skip_reference:
        multicore["all_outcomes_identical"] = all(
            r["outcomes_identical"] for r in mc_rows)
        report["all_outcomes_identical"] = (
            report["all_outcomes_identical"]
            and multicore["all_outcomes_identical"])
    report["multicore"] = multicore
    return report


def run_backend_bench(n: int = 1_000_000, policies: list[str] | None = None,
                      trace_kind: str = "loop", seed: int = 42,
                      config: CacheConfig | None = None,
                      l1_config: CacheConfig | None = None,
                      skip_reference: bool = False,
                      repeats: int = 3) -> dict[str, Any]:
    """Benchmark the compiled kernel backend against python-batched (and
    the per-access reference oracle) on every policy, plus one two-level
    hierarchy point where EMISSARY's ``cost`` channel is live.

    Timings are *warm*: each compiled engine runs a small slice first so
    the C build and load are paid before the clock starts, and
    ``_best_of`` keeps the fastest of ``repeats`` runs.
    Every row records ``outcomes_identical`` (hit vectors and policy
    stats across backends) and the report carries the aggregate
    ``all_outcomes_identical`` — a speedup that changes outcomes is a
    bug, not a result.  The C kernels are loaded up front and the bench
    fails loudly when they are unavailable (a silent fallback to the
    python kernels would benchmark python against itself).
    """
    from emissary.compiled import get_kernels

    provider = get_kernels().name  # raises CompiledUnavailableError: fail loudly
    config = config or CacheConfig()
    policies = policies or list(POLICY_NAMES)
    footprint = int(config.num_sets * config.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    addresses = spec.generate()
    warm = addresses[:min(len(addresses), 65_536)]

    rows: list[dict[str, Any]] = []
    for policy_spec in _bench_specs(policies):
        python = _best_of(BatchedEngine(config), addresses, policy_spec, seed,
                          repeats)
        compiled_engine = BatchedEngine(config, kernel_backend="compiled")
        compiled_engine.simulate_stream([warm], policy_spec, seed=seed)  # JIT/build warm-up
        compiled = _best_of(compiled_engine, addresses, policy_spec, seed,
                            repeats)
        identical = bool(np.array_equal(python.hits, compiled.hits)
                         and python.policy_stats == compiled.policy_stats)
        row: dict[str, Any] = {
            "policy": policy_spec.name,
            "hierarchy": False,
            "hit_rate": python.hit_rate,
            "mpki": python.mpki,
            "python": python.to_dict(),
            "compiled": compiled.to_dict(),
            "speedup_vs_python": python.elapsed_s / compiled.elapsed_s,
        }
        if not skip_reference:
            reference = _best_of(ReferenceEngine(config), addresses,
                                 policy_spec, seed, repeats)
            identical = identical and bool(
                np.array_equal(reference.hits, compiled.hits))
            row["reference"] = reference.to_dict()
            row["speedup_vs_reference"] = \
                reference.elapsed_s / compiled.elapsed_s
        row["outcomes_identical"] = identical
        rows.append(row)

    # The paper's setting: EMISSARY behind an L1I filter, with HP
    # candidacy gated on measured L1I miss counts (cost channel live).
    hier = HierarchyConfig(l1=l1_config or CacheConfig(num_sets=64, ways=8),
                           l2=config)
    hier_spec = PolicySpec("emissary", dict(EMISSARY_HIERARCHY_PARAMS))
    python_h = _best_of(BatchedHierarchyEngine(hier), addresses, hier_spec,
                        seed, repeats)
    compiled_h_engine = BatchedHierarchyEngine(hier, kernel_backend="compiled")
    compiled_h_engine.simulate_stream([warm], hier_spec, seed=seed)
    compiled_h = _best_of(compiled_h_engine, addresses, hier_spec, seed,
                          repeats)
    identical = bool(np.array_equal(python_h.l1.hits, compiled_h.l1.hits)
                     and np.array_equal(python_h.l2.hits, compiled_h.l2.hits)
                     and python_h.l2.policy_stats == compiled_h.l2.policy_stats)
    hier_row: dict[str, Any] = {
        "policy": "emissary",
        "hierarchy": True,
        "hit_rate": python_h.l2_local_hit_rate,
        "mpki": python_h.l2_mpki,
        "python": python_h.to_dict(),
        "compiled": compiled_h.to_dict(),
        "speedup_vs_python": python_h.elapsed_s / compiled_h.elapsed_s,
    }
    if not skip_reference:
        reference_h = _best_of(HierarchyReferenceEngine(hier), addresses,
                               hier_spec, seed, repeats)
        identical = identical and bool(
            np.array_equal(reference_h.l1.hits, compiled_h.l1.hits)
            and np.array_equal(reference_h.l2.hits, compiled_h.l2.hits))
        hier_row["reference"] = reference_h.to_dict()
        hier_row["speedup_vs_reference"] = \
            reference_h.elapsed_s / compiled_h.elapsed_s
    hier_row["outcomes_identical"] = identical
    rows.append(hier_row)

    report = _report_header("backend_throughput", spec)
    report["cache"] = config.to_dict()
    report["hierarchy"] = hier.to_dict()
    report["compiled_provider"] = provider
    report["policies"] = rows
    report["all_outcomes_identical"] = all(r["outcomes_identical"] for r in rows)
    report["min_speedup_vs_python"] = min(r["speedup_vs_python"] for r in rows)
    report["max_speedup_vs_python"] = max(r["speedup_vs_python"] for r in rows)
    return report


def _summarize_backend(report: dict[str, Any]) -> str:
    lines = [f"trace={report['trace']['kind']} n={report['trace']['n']} "
             f"cache={report['cache']} "
             f"compiled provider={report['compiled_provider']}"]
    has_ref = any("reference" in row for row in report["policies"])
    header = (f"{'policy':<20} {'hit%':>7} {'python Macc/s':>14} "
              f"{'compiled Macc/s':>16} {'speedup':>8}")
    if has_ref:
        header += f" {'naive Macc/s':>13} {'vs naive':>9}"
    header += f" {'identical':>9}"
    lines += [header, "-" * len(header)]
    for row in report["policies"]:
        name = row["policy"] + (" (L1I->L2)" if row["hierarchy"] else "")
        line = (f"{name:<20} {100 * row['hit_rate']:>6.2f}% "
                f"{row['python']['accesses_per_s'] / 1e6:>14.2f} "
                f"{row['compiled']['accesses_per_s'] / 1e6:>16.2f} "
                f"{row['speedup_vs_python']:>7.1f}x")
        if has_ref:
            line += (f" {row['reference']['accesses_per_s'] / 1e6:>13.2f} "
                     f"{row['speedup_vs_reference']:>8.1f}x")
        line += f" {str(row['outcomes_identical']):>9}"
        lines.append(line)
    lines.append(f"\ncompiled speedup vs python-batched: "
                 f"{report['min_speedup_vs_python']:.1f}x - "
                 f"{report['max_speedup_vs_python']:.1f}x, "
                 f"all outcomes identical: {report['all_outcomes_identical']}")
    return "\n".join(lines)


#: Chunk budgets exercised by the streaming benchmark: small enough that
#: a 1M-access trace crosses many chunk boundaries, up to the reader
#: default (8 MiB).
STREAM_CHUNK_BYTES = (256 << 10, 1 << 20, 8 << 20)
STREAM_FORMATS = ("champsim.gz", "npy")


def run_stream_bench(n: int = 1_000_000, policies: list[str] | None = None,
                     trace_kind: str = "loop", seed: int = 42,
                     config: CacheConfig | None = None,
                     chunk_sizes: Sequence[int] = STREAM_CHUNK_BYTES,
                     formats: Sequence[str] = STREAM_FORMATS,
                     repeats: int = 3) -> dict[str, Any]:
    """Benchmark chunked streaming against the in-memory one-shot path.

    The synthetic trace is materialized once, written to disk in each
    ``formats`` entry, then for every policy x format x chunk budget the
    file is re-opened and fed through
    :meth:`~emissary.engine.BatchedEngine.simulate_stream`.  Each
    streamed run's hit vector and policy stats must be bit-identical to
    the one-shot run — the report carries ``outcomes_identical`` per
    combination and CI fails on any mismatch.  Streamed timings include
    file decode, so ``relative_throughput`` is the honest cost of
    bounding memory by the chunk budget.
    """
    from emissary import trace_io

    config = config or CacheConfig()
    policies = policies or list(POLICY_NAMES)
    footprint = int(config.num_sets * config.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    addresses = spec.generate()

    rows: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="emissary_bench_") as td:
        files = {}
        for fmt in formats:
            path = Path(td) / f"trace.{fmt}"
            trace_io.write_trace(path, [addresses], format=fmt)
            files[fmt] = path

        for policy_spec in _bench_specs(policies):
            baseline = _best_of(BatchedEngine(config), addresses, policy_spec,
                                seed, repeats)
            row: dict[str, Any] = {
                "policy": policy_spec.name,
                "in_memory": baseline.to_dict(),
                "hit_rate": baseline.hit_rate,
                "mpki": baseline.mpki,
                "streams": [],
            }
            for fmt, path in files.items():
                for chunk_bytes in chunk_sizes:
                    best = None
                    for _ in range(max(1, repeats)):
                        source = trace_io.open_trace(path, chunk_bytes=chunk_bytes)
                        result = BatchedEngine(config).simulate_stream(
                            source, policy_spec, seed=seed)
                        if best is None or result.elapsed_s < best.elapsed_s:
                            best = result
                    identical = bool(
                        np.array_equal(best.hits, baseline.hits)
                        and best.policy_stats == baseline.policy_stats)
                    row["streams"].append({
                        "format": fmt,
                        "chunk_bytes": chunk_bytes,
                        "elapsed_s": best.elapsed_s,
                        "accesses_per_s": best.accesses_per_s,
                        "relative_throughput":
                            best.accesses_per_s / baseline.accesses_per_s,
                        "outcomes_identical": identical,
                    })
            row["outcomes_identical"] = all(s["outcomes_identical"]
                                            for s in row["streams"])
            rows.append(row)

    report = _report_header("stream_throughput", spec)
    report["cache"] = config.to_dict()
    report["chunk_bytes"] = list(chunk_sizes)
    report["formats"] = list(formats)
    report["policies"] = rows
    report["all_outcomes_identical"] = all(r["outcomes_identical"] for r in rows)
    return report


def _summarize_stream(report: dict[str, Any]) -> str:
    lines = [f"trace={report['trace']['kind']} n={report['trace']['n']} "
             f"cache={report['cache']} formats={','.join(report['formats'])}"]
    header = (f"{'policy':<10} {'format':<12} {'chunk':>8} {'Macc/s':>8} "
              f"{'vs memory':>10} {'identical':>9}")
    lines += [header, "-" * len(header)]
    for row in report["policies"]:
        mem = row["in_memory"]["accesses_per_s"]
        lines.append(f"{row['policy']:<10} {'(in memory)':<12} {'-':>8} "
                     f"{mem / 1e6:>8.2f} {'1.00x':>10} {'-':>9}")
        for s in row["streams"]:
            chunk = f"{s['chunk_bytes'] >> 10}K"
            lines.append(f"{'':<10} {s['format']:<12} {chunk:>8} "
                         f"{s['accesses_per_s'] / 1e6:>8.2f} "
                         f"{s['relative_throughput']:>9.2f}x "
                         f"{str(s['outcomes_identical']):>9}")
    lines.append(f"\nall streamed outcomes identical: "
                 f"{report['all_outcomes_identical']}")
    return "\n".join(lines)


def _serve_obs_arm_rps(obs: bool, clients: int, requests_per_client: int,
                       distinct: int,
                       seed: int) -> tuple[float, dict[str, int]]:
    """One serve-path arm: in-process server + loadgen, fresh cache dir.

    Each arm gets its own temporary results cache, and a short
    *unmeasured* pass populates it first: the measured pass is pure
    steady-state request handling (cache hits + the obs plane), because
    a handful of cold-miss simulations racing inside a sub-second
    window would otherwise dominate the wall time and drown the
    obs-on/off signal in scheduling noise.  Returns the measured pass's
    throughput and the arm's final ``serve.latency_us`` histogram
    (stringified keys, the ``to_dict`` form) so the report can derive
    latency percentiles.
    """
    from emissary.serve.loadgen import run_loadgen
    from emissary.serve.server import start_server
    from emissary.serve.service import SimService

    async def _run() -> tuple[float, dict[str, int]]:
        with tempfile.TemporaryDirectory(prefix="emissary-obsbench-") as tmp:
            service = SimService(cache_dir=tmp, max_workers=2, obs=obs,
                                 queue_watermark=max(64, clients))
            server = await start_server(service, "127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                await run_loadgen(  # populate the cache; not measured
                    "127.0.0.1", port, clients=distinct,
                    requests_per_client=1, distinct=distinct, seed=seed)
                payload = await run_loadgen(
                    "127.0.0.1", port, clients=clients,
                    requests_per_client=requests_per_client,
                    distinct=distinct, seed=seed)
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            hist = service.telemetry.histograms.get("serve.latency_us", {})
            return float(payload["req_per_s"]), {str(value): count
                                                 for value, count
                                                 in sorted(hist.items())}

    return asyncio.run(_run())


def run_serve_obs_overhead_bench(clients: int = 64,
                                 requests_per_client: int = 16,
                                 distinct: int = 8, seed: int = 0,
                                 repeats: int = 3) -> dict[str, Any]:
    """Measure what the observability plane costs the serve path.

    Same interleaved-arm discipline as the kernel guard: ``off`` /
    ``off_control`` are two identical ``obs=False`` servers (their gap
    is the noise floor), ``on`` is ``obs=True`` — per-request trace
    contexts, server-side phase spans, the log ring, and the request
    epilogue all active.  Each arm boots a fresh in-process server and
    drives the standard loadgen mix against it; best-of throughput per
    arm is compared.  ``obs_overhead`` is the on-vs-best-off throughput
    delta — the number the README quotes and BENCH_telemetry.json
    records.
    """
    arms = ("off", "off_control", "on")
    rps: dict[str, list[float]] = {arm: [] for arm in arms}
    latency_hist: dict[str, int] = {}
    _serve_obs_arm_rps(False, clients, requests_per_client, distinct, seed)  # warmup
    for repeat in range(max(1, repeats)):
        for offset in range(len(arms)):
            arm = arms[(repeat + offset) % len(arms)]
            arm_rps, hist = _serve_obs_arm_rps(
                arm == "on", clients, requests_per_client, distinct, seed)
            rps[arm].append(arm_rps)
            if arm == "on" and arm_rps >= max(rps["on"]):
                latency_hist = hist
    off = max(rps["off"])
    control = max(rps["off_control"])
    on = max(rps["on"])
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "distinct_configs": distinct,
        "repeats": max(1, repeats),
        "off_req_per_s": round(off, 2),
        "off_control_req_per_s": round(control, 2),
        "on_req_per_s": round(on, 2),
        "off_overhead": control / off - 1.0,
        # off vs on, each best-of-``repeats`` — deliberately NOT
        # max(off, control) vs on, which would pit the best of six
        # disabled runs against the best of three enabled ones and bias
        # the overhead estimate upward by the noise floor.
        "obs_overhead": off / on - 1.0,
        "latency_us_hist": latency_hist,
    }


def run_telemetry_overhead_bench(n: int = 200_000,
                                 policies: list[str] | None = None,
                                 trace_kind: str = "loop", seed: int = 42,
                                 config: CacheConfig | None = None,
                                 repeats: int = 5) -> dict[str, Any]:
    """Guard the telemetry-off default path against overhead creep.

    Telemetry-off is cheap: disabled engines hold ``telemetry=None``,
    and kernels test a flag per lockstep step, or per hit and per
    eviction in their scalar loops, and record nothing until attached
    (the telemetry tests assert a disabled dispatch records nothing).
    This bench backs that design claim with a measurement CI can gate
    on.  Three interleaved arms per policy:

    ``off`` / ``off_control``
        Two identical telemetry-disabled runs.  Their best-of ratio is
        the honest measurement-noise floor for this machine; the guard
        ``off_overhead = min(off) / min(off_control) - 1`` must stay
        under the CI threshold (default 5%).  Any change that leaks
        per-access work onto the disabled path also widens the on/off
        gap tracked below.

    ``on``
        The instrumented run, reported as ``on_cost`` (slowdown vs the
        best disabled arm) — allowed to be expensive, tracked so the
        cost of *enabling* telemetry stays visible in BENCH history.

    Arms are interleaved and their order rotates every repeat, and each
    policy gets one discarded warmup run first, so cold-start cost and
    cache/thermal drift land evenly across arms instead of biasing
    whichever arm happens to run first or last.
    """
    config = config or CacheConfig()
    policies = policies or list(POLICY_NAMES)
    footprint = int(config.num_sets * config.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    addresses = spec.generate()

    arms = ("off", "off_control", "on")
    rows: list[dict[str, Any]] = []
    for policy_spec in _bench_specs(policies):
        BatchedEngine(config).simulate_stream([addresses], policy_spec, seed=seed)  # warmup
        times: dict[str, list[float]] = {arm: [] for arm in arms}
        for repeat in range(max(1, repeats)):
            for offset in range(len(arms)):
                arm = arms[(repeat + offset) % len(arms)]
                telemetry = Telemetry() if arm == "on" else None
                result = BatchedEngine(config, telemetry=telemetry).simulate_stream(
                    [addresses], policy_spec, seed=seed)
                times[arm].append(result.elapsed_s)
        off = min(times["off"])
        control = min(times["off_control"])
        on = min(times["on"])
        rows.append({
            "policy": policy_spec.name,
            "off_s": off,
            "off_control_s": control,
            "on_s": on,
            "off_overhead": off / control - 1.0,
            "on_cost": on / min(off, control) - 1.0,
        })

    report = _report_header("telemetry_overhead", spec)
    report["cache"] = config.to_dict()
    report["repeats"] = max(1, repeats)
    report["policies"] = rows
    report["max_off_overhead"] = max(r["off_overhead"] for r in rows)
    return report


def run_sanitizer_overhead_bench(n: int = 200_000,
                                 policies: list[str] | None = None,
                                 trace_kind: str = "loop", seed: int = 42,
                                 config: CacheConfig | None = None,
                                 repeats: int = 5) -> dict[str, Any]:
    """Guard the sanitizer-off default path against overhead creep.

    Mirrors :func:`run_telemetry_overhead_bench`: detached sanitizers are
    structurally free (engines hold ``sanitizer=None`` and only wrap the
    kernel dispatch loop when one is attached), so the guard is the
    best-of ratio between two identical sanitizer-off arms, which must
    stay under the CI threshold.  The ``on`` arm attaches a
    :class:`~emissary.analysis.sanitizer.Sanitizer`, is allowed to be
    expensive, and is tracked as ``on_cost``; its outcomes must stay
    bit-identical to the unsanitized run (``outcomes_identical``).
    """
    from emissary.analysis.sanitizer import Sanitizer

    config = config or CacheConfig()
    policies = policies or list(POLICY_NAMES)
    footprint = int(config.num_sets * config.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    addresses = spec.generate()

    arms = ("off", "off_control", "on")
    rows: list[dict[str, Any]] = []
    for policy_spec in _bench_specs(policies):
        baseline = BatchedEngine(config).simulate_stream([addresses], policy_spec, seed=seed)
        times: dict[str, list[float]] = {arm: [] for arm in arms}
        identical = True
        checks = 0
        for repeat in range(max(1, repeats)):
            for offset in range(len(arms)):
                arm = arms[(repeat + offset) % len(arms)]
                sanitizer = Sanitizer() if arm == "on" else None
                result = BatchedEngine(config, sanitizer=sanitizer).simulate_stream(
                    [addresses], policy_spec, seed=seed)
                times[arm].append(result.elapsed_s)
                if sanitizer is not None:
                    checks = sanitizer.checks
                    identical = identical and bool(
                        np.array_equal(result.hits, baseline.hits))
        off = min(times["off"])
        control = min(times["off_control"])
        on = min(times["on"])
        rows.append({
            "policy": policy_spec.name,
            "off_s": off,
            "off_control_s": control,
            "on_s": on,
            "off_overhead": off / control - 1.0,
            "on_cost": on / min(off, control) - 1.0,
            "checks": checks,
            "outcomes_identical": identical,
        })

    report = _report_header("sanitizer_overhead", spec)
    report["cache"] = config.to_dict()
    report["repeats"] = max(1, repeats)
    report["policies"] = rows
    report["max_off_overhead"] = max(r["off_overhead"] for r in rows)
    report["all_outcomes_identical"] = all(r["outcomes_identical"] for r in rows)
    return report


def _summarize_overhead_rows(report: dict[str, Any], off_label: str) -> str:
    lines = [f"trace={report['trace']['kind']} n={report['trace']['n']} "
             f"cache={report['cache']} repeats={report['repeats']}"]
    header = (f"{'policy':<10} {'off ms':>8} {'control ms':>11} {'on ms':>8} "
              f"{'off overhead':>13} {'on cost':>9}")
    lines += [header, "-" * len(header)]
    for row in report["policies"]:
        lines.append(f"{row['policy']:<10} {1e3 * row['off_s']:>8.2f} "
                     f"{1e3 * row['off_control_s']:>11.2f} {1e3 * row['on_s']:>8.2f} "
                     f"{100 * row['off_overhead']:>+12.2f}% "
                     f"{100 * row['on_cost']:>+8.1f}%")
    lines.append(f"\nmax {off_label}-off overhead: "
                 f"{100 * report['max_off_overhead']:+.2f}%")
    return "\n".join(lines)


def _summarize_sanitizer_overhead(report: dict[str, Any]) -> str:
    out = _summarize_overhead_rows(report, "sanitizer")
    return (out + f"\nall sanitized outcomes identical: "
                  f"{report['all_outcomes_identical']}")


def _summarize_telemetry_overhead(report: dict[str, Any]) -> str:
    out = _summarize_overhead_rows(report, "telemetry")
    serve = report.get("serve")
    if serve:
        out += (f"\nserve path: off {serve['off_req_per_s']:.0f} req/s, "
                f"on {serve['on_req_per_s']:.0f} req/s, "
                f"obs overhead {100 * serve['obs_overhead']:+.2f}%")
    return out


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


def _summarize(report: dict[str, Any]) -> str:
    hierarchy = report["benchmark"] == "hierarchy_throughput"
    geometry = report["hierarchy"] if hierarchy else report["cache"]
    lines = [f"trace={report['trace']['kind']} n={report['trace']['n']} "
             f"{'hierarchy' if hierarchy else 'cache'}={geometry}"]
    if hierarchy:
        header = (f"{'policy':<10} {'L1hit%':>7} {'L2hit%':>7} {'L2MPKI':>8} "
                  f"{'batched Macc/s':>15}")
    else:
        header = f"{'policy':<10} {'hit%':>7} {'MPKI':>8} {'batched Macc/s':>15}"
    if "min_speedup" in report:
        header += f" {'naive Macc/s':>13} {'speedup':>8} {'identical':>9}"
    lines += [header, "-" * len(header)]
    for row in report["policies"]:
        if hierarchy:
            line = (f"{row['policy']:<10} {100 * row['l1_hit_rate']:>6.2f}% "
                    f"{100 * row['l2_local_hit_rate']:>6.2f}% {row['l2_mpki']:>8.2f} "
                    f"{row['batched']['accesses_per_s'] / 1e6:>15.2f}")
        else:
            line = (f"{row['policy']:<10} {100 * row['hit_rate']:>6.2f}% "
                    f"{row['mpki']:>8.2f} "
                    f"{row['batched']['accesses_per_s'] / 1e6:>15.2f}")
        if "speedup" in row:
            line += (f" {row['reference']['accesses_per_s'] / 1e6:>13.2f} "
                     f"{row['speedup']:>7.1f}x {str(row['outcomes_identical']):>9}")
        lines.append(line)
    if "min_speedup" in report:
        lines.append(f"\nmin speedup {report['min_speedup']:.1f}x, "
                     f"all outcomes identical: {report['all_outcomes_identical']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="emissary.bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=1_000_000, help="trace length")
    parser.add_argument("--policies", default=",".join(POLICY_NAMES))
    parser.add_argument("--trace", default="loop", help="trace kind to benchmark on")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--num-sets", type=int, default=1024)
    parser.add_argument("--ways", type=int, default=8)
    parser.add_argument("--hierarchy", action="store_true",
                        help="benchmark the two-level L1I -> L2 engines")
    parser.add_argument("--l1-sets", type=int, default=64)
    parser.add_argument("--l1-ways", type=int, default=8)
    parser.add_argument("--skip-reference", action="store_true",
                        help="benchmark only the batched engine (no oracle cross-check)")
    parser.add_argument("--stream", action="store_true",
                        help="benchmark chunked trace streaming (file formats x "
                             "chunk budgets) against the in-memory path")
    parser.add_argument("--backend", action="store_true",
                        help="benchmark the compiled kernel backend against "
                             "python-batched (and the reference oracle) on "
                             "every policy plus a hierarchy point")
    parser.add_argument("--chunk-bytes",
                        default=",".join(str(c) for c in STREAM_CHUNK_BYTES),
                        help="comma-separated chunk budgets (bytes) for --stream")
    parser.add_argument("--telemetry-overhead", action="store_true",
                        help="run the telemetry-off overhead guard instead of "
                             "the throughput benchmark (includes the serve-path "
                             "obs-overhead arm unless --skip-serve)")
    parser.add_argument("--skip-serve", action="store_true",
                        help="with --telemetry-overhead: skip the serve-path "
                             "obs on/off arm")
    parser.add_argument("--sanitizer-overhead", action="store_true",
                        help="run the sanitizer-off overhead guard instead of "
                             "the throughput benchmark")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="fail (exit 1) if the telemetry-/sanitizer-off "
                             "overhead exceeds this fraction (default 0.05 = 5%%)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per engine (fastest run is reported)")
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_engine.json, or "
                             "BENCH_hierarchy.json with --hierarchy)")
    args = parser.parse_args(argv)

    policies = [p for p in args.policies.split(",") if p]
    l2 = CacheConfig(num_sets=args.num_sets, ways=args.ways)
    if args.telemetry_overhead:
        report = run_telemetry_overhead_bench(
            n=args.n, policies=policies, trace_kind=args.trace, seed=args.seed,
            config=l2, repeats=args.repeats)
        if not args.skip_serve:
            report["serve"] = run_serve_obs_overhead_bench(
                seed=args.seed, repeats=min(3, max(1, args.repeats)))
        out = args.out or "BENCH_telemetry.json"
        print(_summarize_telemetry_overhead(report))
        write_report(report, out)
        print(f"report written to {out}")
        if report["max_off_overhead"] > args.max_overhead:
            print(f"ERROR: telemetry-off overhead "
                  f"{100 * report['max_off_overhead']:.2f}% exceeds "
                  f"{100 * args.max_overhead:.2f}% budget", file=sys.stderr)
            return 1
        return 0
    if args.sanitizer_overhead:
        report = run_sanitizer_overhead_bench(
            n=args.n, policies=policies, trace_kind=args.trace, seed=args.seed,
            config=l2, repeats=args.repeats)
        out = args.out or "BENCH_sanitizer.json"
        print(_summarize_sanitizer_overhead(report))
        write_report(report, out)
        print(f"report written to {out}")
        if not report["all_outcomes_identical"]:
            print("ERROR: sanitized outcomes differ from the unsanitized run",
                  file=sys.stderr)
            return 1
        if report["max_off_overhead"] > args.max_overhead:
            print(f"ERROR: sanitizer-off overhead "
                  f"{100 * report['max_off_overhead']:.2f}% exceeds "
                  f"{100 * args.max_overhead:.2f}% budget", file=sys.stderr)
            return 1
        return 0
    if args.backend:
        report = run_backend_bench(
            n=args.n, policies=policies, trace_kind=args.trace, seed=args.seed,
            config=l2,
            l1_config=CacheConfig(num_sets=args.l1_sets, ways=args.l1_ways),
            skip_reference=args.skip_reference, repeats=args.repeats)
        out = args.out or "BENCH_backend.json"
        print(_summarize_backend(report))
        write_report(report, out)
        print(f"report written to {out}")
        if not report["all_outcomes_identical"]:
            print("ERROR: compiled backend outcomes differ from python",
                  file=sys.stderr)
            return 1
        return 0
    if args.stream:
        report = run_stream_bench(
            n=args.n, policies=policies, trace_kind=args.trace, seed=args.seed,
            config=l2,
            chunk_sizes=[int(c) for c in args.chunk_bytes.split(",") if c],
            repeats=args.repeats)
        out = args.out or "BENCH_stream.json"
        print(_summarize_stream(report))
        write_report(report, out)
        print(f"report written to {out}")
        if not report["all_outcomes_identical"]:
            print("ERROR: streamed outcomes differ from the in-memory run",
                  file=sys.stderr)
            return 1
        return 0
    if args.hierarchy:
        report = run_hierarchy_bench(
            n=args.n, policies=policies, trace_kind=args.trace, seed=args.seed,
            config=HierarchyConfig(l1=CacheConfig(num_sets=args.l1_sets,
                                                  ways=args.l1_ways), l2=l2),
            skip_reference=args.skip_reference, repeats=args.repeats)
        out = args.out or "BENCH_hierarchy.json"
    else:
        report = run_bench(
            n=args.n, policies=policies, trace_kind=args.trace, seed=args.seed,
            config=l2, skip_reference=args.skip_reference, repeats=args.repeats)
        out = args.out or "BENCH_engine.json"
    print(_summarize(report))
    write_report(report, out)
    print(f"report written to {out}")
    if not args.skip_reference and not report["all_outcomes_identical"]:
        print("ERROR: batched and reference engines disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
