"""Parallel sweep runner.

Fans (trace x policy x hp_threshold x prob_inv) configurations —
single-level or two-level L1I -> L2 hierarchy points — across
``multiprocessing`` workers.  The parent process consults the on-disk
results cache first, dispatches only uncached configurations, and writes
each result back the moment its worker completes (``imap_unordered`` +
per-completion ``store``), so an interrupted sweep keeps everything that
finished and repeated sweeps are incremental.  Workers regenerate the
synthetic trace from its spec (the spec is part of the config key),
keeping inter-process payloads tiny.

Sweep points are typed :class:`~emissary.api.SimRequest` objects; their
``to_dict`` encoding keys the results cache.

Usage::

    python -m emissary.sweep --demo
    python -m emissary.sweep --traces loop,shift,call --n 200000 \
        --policies lru,srrip,emissary --hp-thresholds 2,4 --prob-invs 16,32
    python -m emissary.sweep --l1-sets 64 --l1-ways 8 --min-l1-misses 2
"""

from __future__ import annotations

import argparse
import json
import logging
import multiprocessing as mp
import os
import sys
import time
from collections.abc import Sequence
from dataclasses import replace
from typing import Any

from emissary.api import (BATCHED_BACKENDS, DEFAULT_BACKEND, PolicySpec,
                          SimRequest, simulate)
from emissary.engine import CacheConfig
from emissary.hierarchy import HierarchyConfig
from emissary.policies import POLICY_NAMES
from emissary.results_cache import DEFAULT_CACHE_DIR, ResultsCache
from emissary.traces import InterleaveSpec, TraceSpec

logger = logging.getLogger(__name__)

AnyCacheConfig = CacheConfig | HierarchyConfig

#: Version of the ``--out`` / run-report JSON envelope.  Version 1 was a
#: bare row list (still readable by ``python -m emissary.report``);
#: version 3 added the ``analysis`` lint-posture digest.
SWEEP_SCHEMA_VERSION = 3


def make_config(request: SimRequest) -> dict[str, Any]:
    """One sweep point, encoded as the version-stamped wire dict that
    keys the results cache.  The PR 2 legacy positional form
    ``make_config(trace_spec, policy_name, cache, seed, policy_params)``
    has been removed; build a :class:`~emissary.api.SimRequest`."""
    if not isinstance(request, SimRequest):
        raise TypeError(
            f"make_config takes a SimRequest (the legacy positional form was "
            f"removed), got {type(request).__name__}")
    return request.to_dict()


def run_config(config: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: simulate one wire dict, return plain dicts.

    The dict is decoded into a :class:`~emissary.api.SimRequest` and run
    through :func:`emissary.api.simulate` on the request's own
    ``backend``, without hit vectors.  A config with ``"telemetry":
    true`` runs instrumented; its result dict then carries the telemetry
    payload.  On a batched backend every trace, synthetic, multi-core
    or file-backed (``kind="file"``), is generated or read one chunk
    budget at a time rather than materialized, so a worker's peak memory
    stays bounded by the budget however long the trace is.
    """
    return simulate(SimRequest.from_dict(config), keep_hits=False).to_dict()


def _run_indexed(item: tuple[int, dict[str, Any]]
                 ) -> tuple[int, dict[str, Any], dict[str, Any]]:
    """Run one indexed config, never letting an exception escape the
    worker: a raising config becomes an ``{"error": ...}`` payload so one
    bad point cannot kill the pool and discard in-flight results.

    The third element is worker metadata (pid, wall time) for the run
    report."""
    index, config = item
    started = time.perf_counter()
    try:
        payload = {"result": run_config(config)}
    except Exception as exc:  # noqa: BLE001 - isolate arbitrary config failures
        payload = {"error": f"{type(exc).__name__}: {exc}"}
    worker = {"pid": os.getpid(), "elapsed_s": time.perf_counter() - started}
    return index, payload, worker


def build_grid(traces: Sequence[TraceSpec | InterleaveSpec],
               policies: Sequence[str],
               cache: AnyCacheConfig, seed: int, hp_thresholds: Sequence[int],
               prob_invs: Sequence[int], min_l1_misses: int = 1,
               hp_budgets: Sequence[str] = ("shared",)) -> list[SimRequest]:
    """Cross traces x policies (x EMISSARY parameter grid) into SimRequests.

    ``min_l1_misses`` only applies to EMISSARY points and only has a
    measured signal to gate on when ``cache`` is a
    :class:`~emissary.hierarchy.HierarchyConfig`.

    ``hp_budgets`` adds the EMISSARY partitioned-vs-shared HP-budget axis
    (``"shared"`` / ``"partitioned"``): partitioning only bites on
    multi-core :class:`~emissary.traces.InterleaveSpec` traces, where the
    per-set HP quota is split across cores.  The default ``"shared"`` is
    encoded implicitly (no ``hp_budget`` param), so existing single-core
    cache keys are untouched.
    """
    grid: list[SimRequest] = []
    for trace in traces:
        for policy in policies:
            if policy == "emissary":
                for thr in hp_thresholds:
                    for pinv in prob_invs:
                        for budget in hp_budgets:
                            params = {"hp_threshold": thr, "prob_inv": pinv}
                            if min_l1_misses != 1:
                                params["min_l1_misses"] = min_l1_misses
                            if budget != "shared":
                                params["hp_budget"] = budget
                            grid.append(SimRequest(trace,
                                                   PolicySpec(policy, params),
                                                   cache, seed))
            else:
                grid.append(SimRequest(trace, PolicySpec(policy), cache, seed))
    return grid


def solo_requests(request: SimRequest) -> list[SimRequest]:
    """One single-core request per core of a multi-core sweep point.

    Each core's own :class:`~emissary.traces.TraceSpec` runs alone on the
    same hierarchy, policy, seed and backend — the baseline the fairness
    metric compares the contended run against.  Solo requests are
    ordinary cacheable sweep points, so repeated fairness sweeps reuse
    them.
    """
    if not request.is_multicore:
        raise ValueError("solo_requests needs a multi-core request "
                         "(trace must be an InterleaveSpec)")
    # A solo run has one core, where a partitioned HP budget is provably
    # identical to the shared one — drop the axis so the shared and
    # partitioned variants of a mix compare against the *same* cached
    # baselines.
    params = {k: v for k, v in request.policy.params.items()
              if k != "hp_budget"}
    policy = PolicySpec(request.policy.name, params)
    return [SimRequest(core_spec, policy, request.config, request.seed,
                       backend=request.backend)
            for core_spec in request.trace.cores]


def add_fairness(rows: list[dict[str, Any]], workers: int = 0,
                 cache_dir: str = DEFAULT_CACHE_DIR,
                 store: ResultsCache | None = None) -> int:
    """Attach per-core fairness deltas to every multi-core sweep row.

    For each multi-core row, every core's trace is re-run *solo* (same
    hierarchy, policy, seed; deduplicated across rows and served from the
    results cache), and the row gains ``row["fairness"]["per_core"]``:
    the core's solo L2 MPKI, its MPKI inside the contended run, and the
    contention penalty ``delta_l2_mpki = shared - solo``.  Solo runs use
    the row's ``backend``.  Returns the number of rows annotated.
    """
    targets: list[tuple[dict[str, Any], list[str]]] = []
    solos: dict[str, SimRequest] = {}
    for row in rows:
        if "result" not in row or "cores" not in row["config"].get("trace", {}):
            continue
        request = SimRequest.from_dict(
            dict(row["config"], backend=row.get("backend", DEFAULT_BACKEND)))
        keys = []
        for solo in solo_requests(request):
            key = json.dumps(solo.to_dict(), sort_keys=True)
            solos.setdefault(key, solo)
            keys.append(key)
        targets.append((row, keys))
    if not targets:
        return 0
    ordered = sorted(solos)
    solo_rows = run_sweep([solos[key] for key in ordered],
                          workers=workers, cache_dir=cache_dir, store=store)
    by_key = dict(zip(ordered, solo_rows))
    for row, keys in targets:
        per_core = []
        for core, key in enumerate(keys):
            solo_row = by_key[key]
            shared = row["result"]["per_core"][core]
            if "error" in solo_row:
                per_core.append({"core": core, "error": solo_row["error"]})
                continue
            solo_mpki = solo_row["result"]["l2_mpki"]
            per_core.append({
                "core": core,
                "solo_l2_mpki": solo_mpki,
                "shared_l2_mpki": shared["l2_mpki"],
                "delta_l2_mpki": shared["l2_mpki"] - solo_mpki,
            })
        row["fairness"] = {"per_core": per_core}
    return len(targets)


def run_sweep(grid: Sequence[SimRequest | dict[str, Any]], workers: int = 0,
              cache_dir: str = DEFAULT_CACHE_DIR,
              telemetry: bool = False,
              store: ResultsCache | None = None) -> list[dict[str, Any]]:
    """Run every configuration, reusing cached results; returns one row per config.

    Fresh results are persisted to the cache *as each worker completes*
    (not in one batch at the end), so interrupting a sweep loses only the
    configurations still in flight.  A configuration that *raises* does
    not kill the pool: its row carries ``"error"`` instead of
    ``"result"``, is logged, and the remaining configurations keep
    running (the CLI exits nonzero if any row errored).

    ``telemetry=True`` re-keys every grid point with the telemetry flag
    (instrumented results cache separately from default ones) and fresh
    rows then carry the telemetry payload inside ``row["result"]``.
    Fresh rows also record ``row["worker"]`` metadata (pid, wall time)
    for the run report.

    Each request runs on its own ``backend`` (a wire dict may carry a
    ``backend`` key); rows record it next to the backend-free ``config``,
    which is the cache key, so a sweep run on any backend reuses (and
    warms) the same cached results.

    Pass ``store`` to supply (and afterwards inspect, via
    :meth:`~emissary.results_cache.ResultsCache.stats`) the results-cache
    handle; otherwise one is opened on ``cache_dir``.
    """
    if store is None:
        store = ResultsCache(cache_dir)
    configs = [g.to_dict() if isinstance(g, SimRequest) else dict(g) for g in grid]
    # A wire dict may name its backend; the cache key never does.
    backends = [g.backend if isinstance(g, SimRequest)
                else config.pop("backend", DEFAULT_BACKEND)
                for g, config in zip(grid, configs)]
    if telemetry:
        for config in configs:
            config["telemetry"] = True
    rows: list[dict[str, Any] | None] = [None] * len(configs)
    pending: list[int] = []
    for i, config in enumerate(configs):
        cached = store.load(config)
        if cached is not None:
            rows[i] = {"config": config, "backend": backends[i],
                       "result": cached, "cached": True}
        else:
            pending.append(i)

    def record(i: int, payload: dict[str, Any], worker: dict[str, Any]) -> None:
        row = {"config": configs[i], "backend": backends[i], "cached": False,
               "worker": worker}
        if "error" in payload:
            logger.error("config %d failed: %s", i, payload["error"])
            row["error"] = payload["error"]
        else:
            store.store(configs[i], payload["result"])
            row["result"] = payload["result"]
        rows[i] = row

    if pending:
        if workers <= 0:
            workers = min(len(pending), os.cpu_count() or 1)
        items = [(i, dict(configs[i], backend=backends[i])) for i in pending]
        if workers == 1:
            for item in items:
                record(*_run_indexed(item))
        else:
            with mp.Pool(processes=workers) as pool:
                for i, payload, worker in pool.imap_unordered(_run_indexed, items):
                    record(i, payload, worker)

    assert all(row is not None for row in rows)
    return rows  # type: ignore[return-value]


def build_envelope(rows: list[dict[str, Any]], seed: int, elapsed_s: float,
                   cache_stats: dict[str, int] | None = None,
                   telemetry: bool = False) -> dict[str, Any]:
    """Assemble the schema-versioned run-report envelope around sweep rows.

    This is what ``--out`` writes and ``python -m emissary.report``
    renders: grid size, fresh/cached/error counts, per-worker wall time,
    and the results-cache hit/miss counts, with the row list (and any
    per-config telemetry) nested under ``"rows"``.
    """
    fresh = sum(1 for r in rows if not r["cached"] and "error" not in r)
    errors = sum(1 for r in rows if "error" in r)
    workers: dict[str, dict[str, Any]] = {}
    for row in rows:
        meta = row.get("worker")
        if meta is None:
            continue
        per = workers.setdefault(str(meta["pid"]), {"configs": 0, "elapsed_s": 0.0})
        per["configs"] += 1
        per["elapsed_s"] += meta["elapsed_s"]
    from emissary.analysis.posture import posture

    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "generated_by": "emissary.sweep",
        "analysis": posture(),
        "seed": seed,
        "elapsed_s": elapsed_s,
        "grid_size": len(rows),
        "fresh": fresh,
        "cached": sum(1 for r in rows if r["cached"]),
        "errors": errors,
        "telemetry_enabled": telemetry,
        "cache_stats": dict(cache_stats or {}),
        "workers": workers,
        "rows": rows,
    }


def _trace_label(trace: dict[str, Any]) -> str:
    """Table label for a trace config dict: the kind for a single-core
    trace, ``mix/<kinds>`` for a multi-core interleave."""
    if "cores" in trace:
        return "mix/" + "+".join(core["kind"] for core in trace["cores"])
    return trace["kind"]


def _format_table(rows: list[dict[str, Any]]) -> str:
    def params_of(cfg: dict[str, Any]) -> str:
        return ",".join(f"{k}={v}"
                        for k, v in sorted(cfg["policy"]["params"].items())) or "-"

    pw = max([22] + [len(params_of(row["config"])) for row in rows])
    tw = max([8] + [len(_trace_label(row["config"]["trace"])) for row in rows])
    header = (f"{'trace':<{tw}} {'policy':<10} {'params':<{pw}} {'L1hit%':>7} "
              f"{'L2hit%':>7} {'MPKI':>8} {'Macc/s':>8} {'cached':>6}")
    lines = [header, "-" * len(header)]
    for row in rows:
        cfg = row["config"]
        params = params_of(cfg)
        prefix = (f"{_trace_label(cfg['trace']):<{tw}} "
                  f"{cfg['policy']['name']:<10} {params:<{pw}} ")
        if "error" in row:
            lines.append(prefix + f"ERROR: {row['error']}")
            continue
        res = row["result"]
        if "l1" in res:  # hierarchy row: per-level stats
            l1_hit = f"{100.0 * res['l1_hit_rate']:>6.2f}%"
            l2_hit = f"{100.0 * res['l2_local_hit_rate']:>6.2f}%"
            mpki = res["l2_mpki"]
        else:  # single-level row: the lone cache plays the L2 column
            l1_hit = f"{'-':>7}"
            l2_hit = f"{100.0 * res['hit_rate']:>6.2f}%"
            mpki = res["mpki"]
        rate = res.get("accesses_per_s")
        macc = f"{rate / 1e6:>8.2f}" if rate is not None else f"{'-':>8}"
        lines.append(
            f"{prefix}{l1_hit} {l2_hit} {mpki:>8.2f} "
            f"{macc} {str(row['cached']):>6}"
        )
    return "\n".join(lines)


def demo_grid(n: int = 200_000, seed: int = 42) -> list[SimRequest]:
    # A small L2 (256 sets x 8 ways = 2048 lines) with a footprint ~1.25x
    # capacity: the loop cycles several times within n accesses, so pure
    # LRU thrashes while EMISSARY's protected lines keep hitting — the
    # paper's qualitative effect is visible straight from the demo table.
    l2 = CacheConfig(num_sets=256, ways=8)
    lines = int(l2.num_sets * l2.ways * 1.25)
    traces = [
        TraceSpec("loop", n, seed, {"footprint_lines": lines}),
        TraceSpec("shift", n, seed, {"footprint_lines": lines // 2, "phases": 4}),
        TraceSpec("call", n, seed, {"caller_lines": lines // 2, "num_callees": 128}),
    ]
    grid = build_grid(traces, list(POLICY_NAMES), l2, seed,
                      hp_thresholds=[4, 6], prob_invs=[8, 32])
    # The paper's actual setting: the same L2 behind a 32 KiB L1I filter.
    # EMISSARY's HP candidacy is gated on *measured* L1I miss counts
    # (min_l1_misses=2: a line must already have cost two demand misses).
    hierarchy = HierarchyConfig(l1=CacheConfig(num_sets=64, ways=8), l2=l2)
    grid += build_grid(traces, list(POLICY_NAMES), hierarchy, seed,
                       hp_thresholds=[4, 6], prob_invs=[8, 32], min_l1_misses=2)
    # Multi-core contention leg: two instruction streams interleaved 2:1
    # into the same shared L2, swept with the HP budget both shared and
    # partitioned — the fairness digest compares each core against its
    # solo baseline.
    mix = InterleaveSpec(cores=(traces[0], traces[2]), weights=(2, 1))
    grid += build_grid([mix], ["lru", "emissary"], hierarchy, seed,
                       hp_thresholds=[6], prob_invs=[8], min_l1_misses=2,
                       hp_budgets=("shared", "partitioned"))
    return grid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="emissary.sweep", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--demo", action="store_true",
                        help="run the built-in demonstration sweep")
    parser.add_argument("--traces", default="loop,shift,call",
                        help="comma-separated trace kinds (pass '' to sweep "
                             "only --trace-file traces)")
    parser.add_argument("--trace-file", action="append", default=[],
                        metavar="PATH",
                        help="add a trace file (ChampSim binary, .gz variant, "
                             ".npy, or .npz) as a sweep trace; repeatable. "
                             "Workers stream the file in bounded-memory chunks")
    parser.add_argument("--n", type=int, default=200_000, help="accesses per trace")
    parser.add_argument("--policies", default=",".join(POLICY_NAMES),
                        help="comma-separated policy names")
    parser.add_argument("--hp-thresholds", default="4",
                        help="comma-separated EMISSARY HP thresholds")
    parser.add_argument("--prob-invs", default="32",
                        help="comma-separated EMISSARY 1/P denominators")
    parser.add_argument("--num-sets", type=int, default=1024)
    parser.add_argument("--ways", type=int, default=8)
    parser.add_argument("--l1-sets", type=int, default=0,
                        help="L1I sets; > 0 simulates the two-level L1I -> L2 "
                             "hierarchy with the main cache as L2")
    parser.add_argument("--l1-ways", type=int, default=8, help="L1I associativity")
    parser.add_argument("--l1-policy", default="lru",
                        help="L1I replacement policy (must be deterministic)")
    parser.add_argument("--min-l1-misses", type=int, default=1,
                        help="EMISSARY HP candidacy: minimum measured L1I "
                             "misses for a line to qualify (hierarchy only)")
    parser.add_argument("--hp-budgets", default="shared",
                        help="comma-separated EMISSARY HP budget modes "
                             "('shared', 'partitioned'); partitioning "
                             "splits each set's HP quota across cores")
    parser.add_argument("--interleave", action="store_true",
                        help="also sweep the listed traces interleaved as "
                             "one multi-core mix contending for the shared "
                             "L2 (requires --l1-sets > 0)")
    parser.add_argument("--weights", default="",
                        help="comma-separated per-core interleave weights "
                             "for --interleave (default: equal round-robin)")
    parser.add_argument("--no-fairness", action="store_true",
                        help="skip the per-core solo-baseline fairness "
                             "annotation of multi-core rows")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument("--out", default=None,
                        help="write the schema-versioned run-report envelope "
                             "(results + telemetry) as JSON here")
    parser.add_argument("--telemetry", action="store_true",
                        help="run every configuration instrumented: rows carry "
                             "policy counters, histograms, and engine phase spans")
    parser.add_argument("--backend", choices=BATCHED_BACKENDS,
                        default=DEFAULT_BACKEND,
                        help="backend of every grid request; outcomes are "
                             "bit-identical, so either backend shares the "
                             "same results cache")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    grid: Sequence[SimRequest | dict[str, Any]]
    if args.demo:
        if args.trace_file:
            parser.error("--trace-file cannot be combined with --demo")
        grid = demo_grid(n=args.n, seed=args.seed)
    else:
        l2 = CacheConfig(num_sets=args.num_sets, ways=args.ways)
        cache: AnyCacheConfig = l2
        if args.l1_sets > 0:
            cache = HierarchyConfig(l1=CacheConfig(num_sets=args.l1_sets,
                                                   ways=args.l1_ways),
                                    l2=l2, l1_policy=args.l1_policy)
        lines = int(l2.num_sets * l2.ways * 1.5)
        defaults = {
            "loop": {"footprint_lines": lines},
            "shift": {"footprint_lines": lines // 2, "phases": 4},
            "call": {"caller_lines": lines // 2, "num_callees": 128},
        }
        traces = [TraceSpec(kind, args.n, args.seed, defaults.get(kind, {}))
                  for kind in args.traces.split(",") if kind]
        if args.trace_file:
            from emissary import trace_io

            traces += [trace_io.file_spec(path) for path in args.trace_file]
        policies = [p for p in args.policies.split(",") if p]
        hp_budgets = [b for b in args.hp_budgets.split(",") if b]
        sweep_traces: list[TraceSpec | InterleaveSpec] = list(traces)
        if args.interleave:
            if args.l1_sets <= 0:
                parser.error("--interleave needs --l1-sets > 0 (multi-core "
                             "runs share an L2 behind per-core L1Is)")
            if len(traces) < 2:
                parser.error("--interleave needs at least two traces")
            weights = tuple(int(x) for x in args.weights.split(",") if x)
            sweep_traces.append(InterleaveSpec(cores=tuple(traces),
                                               weights=weights))
        grid = build_grid(sweep_traces, policies, cache, args.seed,
                          [int(x) for x in args.hp_thresholds.split(",") if x],
                          [int(x) for x in args.prob_invs.split(",") if x],
                          min_l1_misses=args.min_l1_misses,
                          hp_budgets=hp_budgets)

    # --backend rides on every request; a wire dict names it as a key.
    grid = [replace(g, backend=args.backend) if isinstance(g, SimRequest)
            else dict(g, backend=args.backend) for g in grid]
    store = ResultsCache(args.cache_dir)
    start = time.perf_counter()
    rows = run_sweep(grid, workers=args.workers, cache_dir=args.cache_dir,
                     telemetry=args.telemetry, store=store)
    if not args.no_fairness:
        annotated = add_fairness(rows, workers=args.workers,
                                 cache_dir=args.cache_dir, store=store)
        if annotated:
            logger.info("fairness baselines attached to %d multi-core rows",
                        annotated)
    elapsed = time.perf_counter() - start

    print(_format_table(rows))
    errors = sum(1 for r in rows if "error" in r)
    fresh = sum(1 for r in rows if not r["cached"]) - errors
    print(f"\n{len(rows)} configs ({fresh} simulated, "
          f"{len(rows) - fresh - errors} cached, {errors} errored) "
          f"in {elapsed:.2f}s")

    if args.out:
        envelope = build_envelope(rows, seed=args.seed, elapsed_s=elapsed,
                                  cache_stats=store.stats(),
                                  telemetry=args.telemetry)
        with open(args.out, "w") as fh:
            json.dump(envelope, fh, indent=1, sort_keys=True)
        print(f"results written to {args.out} "
              f"(render with: python -m emissary.report {args.out})")
    if errors:
        logger.error("%d of %d configurations failed", errors, len(rows))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
