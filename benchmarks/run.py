#!/usr/bin/env python3
"""One benchmark for the EMISSARY simulator.

Run from the repository root::

    python3 benchmarks/run.py [--workload NAME[,NAME...]]... [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--runs N] [--out FILE]

Workloads run one after another, each in its own child process, after
set-up-only children of the same workload (the set-up time is the
median of all the set-ups).  Timing metrics are scaled to a nominal host
speed measured by a fixed probe (``probe.py``).  Every end-to-end metric is
printed as ``<workload> <metric> <value> <unit>``; ``--trace`` adds the
per-layer metrics, a span self-time table and a Chrome trace under
``benchmarks/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace`` the per-layer ones, as named in
``BENCHMARK.json``).  ``--runs N`` repeats everything with seeds
``seed .. seed+N-1`` and exits 1 when a metric's spread across runs
(interquartile range of the run medians over their median) exceeds its
bound.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import harness

#: Set-ups per workload run, the measuring child's included.
SETUP_RUNS = 3
#: Probes right after each set-up, which time the host speed for it.
SETUP_PROBES = 3
#: Seconds of timed passes between probes.
PROBE_EVERY_S = 1.0
CHILD_TIMEOUT_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=[],
                        help="run these workloads, comma-separated "
                             "(repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-pass budget per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced passes")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, one pass, one set-up (smoke test)")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with successive seeds; report spreads")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    # Internal: a workload child or a set-up-only child.
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child side -----------------------------------------------------------------


def measure(wl: Any, seconds: float, trace: int, seed: int,
            host: Any) -> dict[str, Any]:
    checker = harness.Checker()
    wl.warm_pass(checker)
    # The warm pass's checks run reference simulations (the other kernel
    # backend, or an in-memory run of a streamed trace); peak memory is
    # that of the timed passes alone.
    harness.reset_peak_rss()
    need = 1 if wl.quick else wl.min_passes
    passes: list[dict[str, Any]] = []
    # A probe before the first pass, then one after each pass that ends
    # PROBE_EVERY_S or more after the last probe, so that the probes sample
    # the same spells of host speed as the passes.
    probe_s = [host.seconds()]
    start = last_probe = time.perf_counter()
    while len(passes) < need or time.perf_counter() - start < seconds:
        passes.append(wl.timed_pass(checker))
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probe_s.append(host.seconds())
            last_probe = time.perf_counter()
    rates = [p["accesses"] / p["wall"] / 1e6 for p in passes]
    speed = host.speed(probe_s)
    out: dict[str, Any] = {
        "metrics": {"maccess_per_s": harness.summary([r / speed for r in rates]),
                    "peak_rss_mib": harness.vm_hwm_mib()},
        "raw": {"maccess_per_s": harness.summary(rates)},
        "probe_s": harness.summary(probe_s),
        "passes": len(passes)}
    if trace:
        spans = harness.Spans()
        layers = wl.traced(checker, passes, spans)
        layers["host.probe_s"] = out["probe_s"]["value"]
        (root,) = [r for r in spans.records if r["name"] == "pass"]
        traced_wall = root["end"] - root["start"]
        layers["trace.overhead_pct"] = 100.0 * (
            traced_wall / harness.median([p["wall"] for p in passes]) - 1.0)
        layers["trace.coverage"] = spans.coverage("pass", glue=("request",))
        out["self_times"] = {name: {"s": s, "share": s / traced_wall}
                             for name, s in spans.self_times("pass").items()}
        out["layers"] = layers
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = harness.OUT_DIR / f"trace-{wl.name}-{seed}.json"
        path.write_text(json.dumps(spans.chrome_trace()))
        out["chrome_trace"] = str(path.relative_to(harness.ROOT))
    out.update(attempted=checker.attempted, failed=checker.failed,
               problems=checker.problems)
    return out


def child_main(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    harness.use_program()
    import probe
    import workloads

    setup = {"setup.import_s": time.perf_counter() - start}
    work = Path(args.work)
    wl = workloads.WORKLOADS[args.child](args.seed, args.quick, work)
    setup.update(wl.setup())
    setup_s = time.monotonic() - args.spawned_at
    host = probe.Probe()
    speed = host.speed([host.seconds()
                        for _ in range(1 if args.quick else SETUP_PROBES)])
    out: dict[str, Any] = {"setup_s": setup_s * speed,
                           "raw_setup_s": setup_s, "setup_layers": setup,
                           "facts": workloads.facts()}
    if not args.setup_only:
        out.update(measure(wl, 0.0 if args.quick else args.seconds,
                           args.trace, args.seed, host))
    (work / "result.json").write_text(json.dumps(out))
    return 0


# -- parent side ------------------------------------------------------------------


def spawn(args: argparse.Namespace, name: str, seed: int, seconds: float,
          work: Path, setup_only: bool) -> dict[str, Any]:
    (work / "tmp").mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    env = harness.child_env(EMISSARY_CC_CACHE=str(work / "cc"),
                            TMPDIR=str(work / "tmp"))
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{name}: child did not finish in "
                           f"{CHILD_TIMEOUT_S} s") from None
    if code != 0:
        raise RuntimeError(f"{name}: child exited with status {code}")
    return json.loads((work / "result.json").read_text())


def run_workload(args: argparse.Namespace, name: str, seed: int,
                 seconds: float) -> dict[str, Any]:
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=harness.WORK_DIR))
    try:
        samples = [spawn(args, name, seed, seconds, work / f"setup{i}", True)
                   for i in range(0 if args.quick else SETUP_RUNS - 1)]
        result = spawn(args, name, seed, seconds, work / "run", False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples.append(result)
    result["setup_samples"] = len(samples)
    result["metrics"]["setup_s"] = harness.summary([s["setup_s"]
                                                    for s in samples])
    result["raw"]["setup_s"] = harness.summary([s["raw_setup_s"]
                                                for s in samples])
    if args.trace:
        for key in result["setup_layers"]:
            result["layers"][key] = harness.median(
                [s["setup_layers"][key] for s in samples])
    return result


def print_workload(name: str, result: dict[str, Any], spec: dict[str, Any],
                   trace: int) -> None:
    for m in spec["end_to_end"]:
        got = harness.metric_value(result["metrics"][m["name"]])
        print(f"{name} {m['name']} {got:.6g} {m['unit']}")
    if not trace:
        return
    for m in spec["per_layer"]:
        got = result["layers"].get(m["name"], 0.0)
        print(f"{name} {m['name']} {got:.6g} {m['unit']}")
    for span, row in sorted(result["self_times"].items(),
                            key=lambda item: -item[1]["s"]):
        print(f"{name} self-time {span:<28} {row['s']:9.4f} s "
              f"{100 * row['share']:5.1f}%")
    print(f"{name} chrome trace written to {result['chrome_trace']}")


def result_line(results: dict[str, dict[str, Any]], spec: dict[str, Any],
                  trace: int) -> dict[str, Any]:
    """The last-line JSON object.  A per-layer metric a workload never
    exercises (its layer is not on that workload's path) reads 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics: dict[str, Any] = {}
    for name, result in results.items():
        source = result["layers"] if trace else result["metrics"]
        for m in wanted:
            got = harness.metric_value(source.get(m["name"], 0.0))
            key = m["name"] if len(results) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": got if math.isfinite(got) else None,
                            "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and attempted > 0 and all(
        m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def spreads(runs: list[dict[str, Any]], spec: dict[str, Any]
            ) -> dict[str, dict[str, Any]]:
    """Per workload and end-to-end metric: the spread of the run medians
    (:func:`harness.spread`)."""
    out: dict[str, dict[str, Any]] = {}
    for name in runs[0]["workloads"]:
        for m in spec["end_to_end"]:
            values = [harness.metric_value(run["workloads"][name]["metrics"][m["name"]])
                      for run in runs]
            spread = harness.spread(values)
            out.setdefault(name, {})[m["name"]] = {
                "spread": spread, "bound": m["bound"],
                "ok": spread <= m["bound"], "values": values}
    return out


def median_run(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """One result per workload whose metrics are medians across runs."""
    merged = {}
    for name in runs[0]["workloads"]:
        results = [run["workloads"][name] for run in runs]
        merged[name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {k: harness.median(
                            [harness.metric_value(r["metrics"][k]) for r in results])
                        for k in results[0]["metrics"]},
            "layers": {k: harness.median([r["layers"].get(k, 0.0)
                                          for r in results])
                       for k in results[0].get("layers", {})},
        }
    return merged


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not harness.program_present():
        print(f"run.py: the program is missing ({harness.SRC / 'emissary'} "
              f"not found); run from a full checkout", file=sys.stderr)
        return 2
    spec = harness.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = [n for arg in args.workload for n in arg.split(",") if n] or known
    unknown = sorted(set(names) - set(known))
    if unknown or args.runs < 1:
        print(f"run.py: unknown workload(s) {unknown}; known: {known}"
              if unknown else "run.py: --runs must be at least 1",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    runs = []
    for index in range(args.runs):
        seed = args.seed + index
        run: dict[str, Any] = {"seed": seed, "workloads": {}}
        for name in names:
            result = run_workload(args, name, seed, seconds)
            run["workloads"][name] = result
            print_workload(name, result, spec, args.trace)
            for problem in result["problems"]:
                print(f"{name} FAILED: {problem}", file=sys.stderr)
        runs.append(run)

    report: dict[str, Any] = {
        "schema": 1,
        "machine": {**harness.machine_facts(),
                    **runs[0]["workloads"][names[0]]["facts"]},
        "settings": {"seconds": seconds, "trace": args.trace,
                     "quick": args.quick, "seeds": [r["seed"] for r in runs]},
        "runs": runs,
    }
    ok = True
    if args.runs > 1:
        report["spreads"] = spreads(runs, spec)
        for name, rows in report["spreads"].items():
            for metric, row in rows.items():
                ok = ok and row["ok"]
                print(f"{name} {metric} spread {100 * row['spread']:.2f}% "
                      f"(bound {100 * row['bound']:.0f}%)"
                      f"{'' if row['ok'] else ' OVER BOUND'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    results = runs[0]["workloads"] if args.runs == 1 else median_run(runs)
    line = result_line(results, spec, args.trace)
    print(json.dumps(line))
    return 0 if ok and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
