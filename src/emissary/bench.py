"""Overhead guards for the default, disabled paths of telemetry and the
state sanitizer.

Each guard times identical engine runs in interleaved arms and fails
(exit 1) when the disabled path is slower than its identical control
arm by more than ``--max-overhead``.  The telemetry guard also measures
what the observability plane costs the serve path.  Throughput numbers
come from ``benchmarks/run.py``, not from here.

Usage::

    python -m emissary.bench --telemetry-overhead --n 200000 --repeats 5 \\
        --max-overhead 0.05 --out BENCH_telemetry.json
    python -m emissary.bench --sanitizer-overhead --n 200000 --repeats 5 \\
        --max-overhead 0.05
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import platform
import sys
import tempfile
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from emissary import __version__
from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, SimResult
from emissary.policies import POLICY_NAMES
from emissary.telemetry import Telemetry
from emissary.traces import AddressArray, TraceSpec

#: The interleaved arms of every guard: two identical disabled runs,
#: whose gap is the noise floor, and the enabled run.
_ARMS = ("off", "off_control", "on")


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
    rps: dict[str, list[float]] = {arm: [] for arm in _ARMS}
    latency_hist: dict[str, int] = {}
    _serve_obs_arm_rps(False, clients, requests_per_client, distinct, seed)  # warmup
    for repeat in range(max(1, repeats)):
        for offset in range(len(_ARMS)):
            arm = _ARMS[(repeat + offset) % len(_ARMS)]
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


def _workload(n: int, trace_kind: str, seed: int,
              config: CacheConfig | None
              ) -> tuple[CacheConfig, TraceSpec, AddressArray]:
    """The guards' cache and trace: ``loop`` and ``shift`` get a
    footprint of 1.5x the cache, so every policy evicts."""
    config = config or CacheConfig()
    footprint = int(config.num_sets * config.ways * 1.5)
    spec = TraceSpec(trace_kind, n, seed, {"footprint_lines": footprint}
                     if trace_kind in ("loop", "shift") else {})
    return config, spec, spec.generate()


def _interleaved(config: CacheConfig, addresses: AddressArray,
                 spec: PolicySpec, seed: int, repeats: int,
                 on_kwargs: Callable[[], dict[str, Any]]
                 ) -> Iterator[tuple[str, BatchedEngine, SimResult]]:
    """Yield ``(arm, engine, result)`` for ``repeats`` runs of each arm.

    The ``on`` arm's engine is built with ``on_kwargs()``.  Arms are
    interleaved and their order rotates every repeat, so cache/thermal
    drift lands evenly across arms instead of biasing whichever arm
    happens to run first or last; callers make one discarded warmup
    run first, so cold-start cost lands on none of them.
    """
    for repeat in range(max(1, repeats)):
        for offset in range(len(_ARMS)):
            arm = _ARMS[(repeat + offset) % len(_ARMS)]
            engine = BatchedEngine(config, **(on_kwargs() if arm == "on" else {}))
            yield arm, engine, engine.simulate_stream([addresses], spec, seed=seed)


def _row(spec: PolicySpec, times: dict[str, list[float]]) -> dict[str, Any]:
    off, control, on = (min(times[arm]) for arm in _ARMS)
    return {
        "policy": spec.name,
        "off_s": off,
        "off_control_s": control,
        "on_s": on,
        "off_overhead": off / control - 1.0,
        "on_cost": on / min(off, control) - 1.0,
    }


def _report(benchmark: str, spec: TraceSpec, config: CacheConfig,
            repeats: int, rows: list[dict[str, Any]]) -> dict[str, Any]:
    report = _report_header(benchmark, spec)
    report["cache"] = config.to_dict()
    report["repeats"] = max(1, repeats)
    report["policies"] = rows
    report["max_off_overhead"] = max(r["off_overhead"] for r in rows)
    return report


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
    """
    config, spec, addresses = _workload(n, trace_kind, seed, config)
    rows: list[dict[str, Any]] = []
    for policy in policies or POLICY_NAMES:
        policy_spec = PolicySpec(policy)
        BatchedEngine(config).simulate_stream([addresses], policy_spec, seed=seed)  # warmup
        times: dict[str, list[float]] = {arm: [] for arm in _ARMS}
        for arm, _, result in _interleaved(config, addresses, policy_spec, seed,
                                           repeats, lambda: {"telemetry": Telemetry()}):
            times[arm].append(result.elapsed_s)
        rows.append(_row(policy_spec, times))
    return _report("telemetry_overhead", spec, config, repeats, rows)


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

    config, spec, addresses = _workload(n, trace_kind, seed, config)
    rows: list[dict[str, Any]] = []
    for policy in policies or POLICY_NAMES:
        policy_spec = PolicySpec(policy)
        baseline = BatchedEngine(config).simulate_stream([addresses], policy_spec,
                                                         seed=seed)
        times: dict[str, list[float]] = {arm: [] for arm in _ARMS}
        identical = True
        checks = 0
        for arm, engine, result in _interleaved(config, addresses, policy_spec, seed,
                                                repeats, lambda: {"sanitizer": Sanitizer()}):
            times[arm].append(result.elapsed_s)
            if engine.sanitizer is not None:
                checks = engine.sanitizer.checks
                identical = identical and bool(np.array_equal(result.hits, baseline.hits))
        rows.append({**_row(policy_spec, times), "checks": checks,
                     "outcomes_identical": identical})
    report = _report("sanitizer_overhead", spec, config, repeats, rows)
    report["all_outcomes_identical"] = all(r["outcomes_identical"] for r in rows)
    return report


def _summarize(report: dict[str, Any], off_label: str) -> str:
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
    if "all_outcomes_identical" in report:
        lines.append(f"all sanitized outcomes identical: "
                     f"{report['all_outcomes_identical']}")
    serve = report.get("serve")
    if serve:
        lines.append(f"serve path: off {serve['off_req_per_s']:.0f} req/s, "
                     f"on {serve['on_req_per_s']:.0f} req/s, "
                     f"obs overhead {100 * serve['obs_overhead']:+.2f}%")
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="emissary.bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    guard = parser.add_mutually_exclusive_group(required=True)
    guard.add_argument("--telemetry-overhead", action="store_true",
                       help="run the telemetry-off overhead guard (includes "
                            "the serve-path obs-overhead arm unless "
                            "--skip-serve)")
    guard.add_argument("--sanitizer-overhead", action="store_true",
                       help="run the sanitizer-off overhead guard")
    parser.add_argument("--n", type=int, default=1_000_000, help="trace length")
    parser.add_argument("--policies", default=",".join(POLICY_NAMES))
    parser.add_argument("--trace", default="loop", help="trace kind to time")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--num-sets", type=int, default=1024)
    parser.add_argument("--ways", type=int, default=8)
    parser.add_argument("--skip-serve", action="store_true",
                        help="with --telemetry-overhead: skip the serve-path "
                             "obs on/off arm")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="fail (exit 1) if the telemetry-/sanitizer-off "
                             "overhead exceeds this fraction (default 0.05 = 5%%)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per arm (fastest run is reported)")
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_telemetry.json or "
                             "BENCH_sanitizer.json)")
    args = parser.parse_args(argv)

    options: dict[str, Any] = dict(
        n=args.n, policies=[p for p in args.policies.split(",") if p],
        trace_kind=args.trace, seed=args.seed,
        config=CacheConfig(num_sets=args.num_sets, ways=args.ways),
        repeats=args.repeats)
    if args.telemetry_overhead:
        label, out = "telemetry", args.out or "BENCH_telemetry.json"
        report = run_telemetry_overhead_bench(**options)
        if not args.skip_serve:
            report["serve"] = run_serve_obs_overhead_bench(
                seed=args.seed, repeats=min(3, max(1, args.repeats)))
    else:
        label, out = "sanitizer", args.out or "BENCH_sanitizer.json"
        report = run_sanitizer_overhead_bench(**options)
    print(_summarize(report, label))
    write_report(report, out)
    print(f"report written to {out}")
    if not report.get("all_outcomes_identical", True):
        print("ERROR: sanitized outcomes differ from the unsanitized run",
              file=sys.stderr)
        return 1
    if report["max_off_overhead"] > args.max_overhead:
        print(f"ERROR: {label}-off overhead "
              f"{100 * report['max_off_overhead']:.2f}% exceeds "
              f"{100 * args.max_overhead:.2f}% budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
