"""Structured run-report renderer for sweep output.

``python -m emissary.sweep --telemetry --out sweep.json`` writes a
schema-versioned envelope (see
:data:`~emissary.sweep.SWEEP_SCHEMA_VERSION`); this module turns it back
into something a human can read::

    python -m emissary.report sweep.json
    python -m emissary.report sweep.json --trace-out trace.json

The text report shows the sweep header (seed, wall time, grid size,
fresh/cached/error counts, results-cache hit/miss), the per-config
results table, per-worker wall-time totals, and — for instrumented rows
— the policy telemetry the paper's argument rests on: evictions split by
priority class, HP promotions/demotions, dead-on-fill lines, final HP
set occupancy, and the per-line hit-count distribution.

``--trace-out`` merges every row's engine phase spans into one Chrome
trace-event JSON file (pid = worker process, tid = config index),
loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.

Pointing the CLI at a benchmark report instead prints its digest:
``BENCH_serve.json`` (serving layer, ``python -m emissary.serve bench``)
shows throughput, the latency distribution, the single-flight dedupe
ratio, and the results-cache hit/eviction accounting;
``BENCH_telemetry.json`` (overhead guard) shows the kernel off-path
guard per policy plus the serve-path observability overhead and latency
percentiles derived from its ``serve.latency_us`` histogram.

Legacy (version 1) output — a bare row list with no envelope — still
loads; missing header fields simply render as absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from emissary.sweep import SWEEP_SCHEMA_VERSION, _format_table, _trace_label
from emissary.telemetry import spans_to_chrome_trace


def load_sweep_output(path: str) -> dict[str, Any]:
    """Read sweep ``--out`` JSON, normalizing to the envelope form.

    Accepts the current schema-versioned envelope or the legacy bare row
    list (pre-envelope output), which is wrapped as a version-1 envelope
    with only ``rows`` populated.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        return {"schema_version": 1, "rows": payload}
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ValueError(f"{path}: not sweep output (expected an envelope "
                         f"with 'rows' or a bare row list)")
    version = payload.get("schema_version")
    if version is not None and version > SWEEP_SCHEMA_VERSION:
        raise ValueError(f"{path}: envelope schema_version {version} is newer "
                         f"than supported ({SWEEP_SCHEMA_VERSION})")
    return payload


def _config_label(config: dict[str, Any], index: int) -> str:
    policy = config.get("policy", {})
    params = ",".join(f"{k}={v}" for k, v in sorted(policy.get("params", {}).items()))
    trace_cfg = config.get("trace", {})
    trace = _trace_label(trace_cfg) if trace_cfg else "?"
    level = "hier" if "l1" in config.get("config", {}) else "single"
    label = f"[{index}] {trace}/{policy.get('name', '?')}"
    if params:
        label += f"({params})"
    return f"{label} {level}"


def _hist_summary(hist: dict[str, int], max_buckets: int = 6) -> str:
    """Render ``value:count`` pairs, eliding the middle of wide histograms."""
    items = sorted(((int(v), c) for v, c in hist.items()), key=lambda vc: vc[0])
    shown = [f"{v}:{c}" for v, c in items]
    if len(shown) > max_buckets:
        head = max_buckets // 2
        shown = shown[:head] + [f"... ({len(items) - max_buckets} more)"] + shown[-head:]
    total = sum(c for _, c in items)
    mass = sum(v * c for v, c in items)
    mean = mass / total if total else 0.0
    return f"{{{', '.join(shown)}}} (n={total}, mean={mean:.2f})"


def _telemetry_lines(telemetry: dict[str, Any]) -> list[str]:
    """The policy-facing counter/histogram digest for one config."""
    counters: dict[str, int] = telemetry.get("counters", {})
    histograms: dict[str, dict[str, int]] = telemetry.get("histograms", {})
    lines: list[str] = []
    # A hierarchy payload holds both levels under l1./l2. prefixes; a
    # single-level payload holds unprefixed names.  Render whichever
    # prefixes are actually present, engine.* internals last.
    prefixes = sorted({name.split(".", 1)[0] + "."
                       for name in counters if "." in name and
                       not name.startswith("engine.") and
                       not name.startswith("core")}) or [""]
    for prefix in prefixes:
        tag = f"  {prefix.rstrip('.')}: " if prefix else "  "

        def c(name: str, p: str = prefix) -> int | None:
            return counters.get(p + name)

        core = [(label, c(name)) for label, name in (
            ("hits", "hits"), ("misses", "misses"), ("fills", "fills"),
            ("evictions", "evictions"), ("dead_on_fill", "dead_on_fill"))]
        lines.append(tag + "  ".join(f"{label}={value}" for label, value in core
                                     if value is not None))
        hp = [(label, c(name)) for label, name in (
            ("evictions_hp", "evictions_hp"), ("evictions_lp", "evictions_lp"),
            ("hp_promotions", "hp_promotions"), ("hp_demotions", "hp_demotions"),
            ("hp_lines_final", "hp_lines_final"))]
        if any(value is not None for _, value in hp):
            lines.append(tag + "  ".join(f"{label}={value}" for label, value in hp
                                         if value is not None))
        for hist_name in ("line_hits", "resident_line_hits", "hp_set_occupancy"):
            hist = histograms.get(prefix + hist_name)
            if hist:
                lines.append(f"{tag}{hist_name} {_hist_summary(hist)}")
    core = 0
    while f"core{core}.n" in counters:
        lines.append(f"  core{core}: n={counters[f'core{core}.n']}  "
                     f"l1_misses={counters[f'core{core}.l1_misses']}  "
                     f"l2_misses={counters[f'core{core}.l2_misses']}")
        core += 1
    engine = {name: value for name, value in counters.items() if "engine." in name}
    if engine:
        lines.append("  " + "  ".join(f"{name}={value}"
                                      for name, value in sorted(engine.items())))
    stream = _stream_digest(telemetry.get("spans", []))
    if stream:
        lines.append(stream)
    return lines


def _stream_digest(spans: list[dict[str, Any]]) -> str | None:
    """One-line chunk-ingest summary for streamed (chunked) runs.

    Streaming engines emit ``stream_ingest`` spans around pulling each
    chunk from the trace source and ``stream_chunk`` spans around
    simulating it (hierarchy payloads carry them under ``l1.``/``l2.``
    prefixes).  Sums both so I/O-bound vs simulate-bound streamed runs
    are distinguishable straight from the report.
    """
    ingest_us = chunk_us = 0.0
    chunk_count = 0
    for span in spans:
        base = span.get("name", "").rsplit(".", 1)[-1]
        if base == "stream_ingest":
            ingest_us += span.get("dur_us", 0.0)
        elif base == "stream_chunk":
            chunk_us += span.get("dur_us", 0.0)
            chunk_count += 1
    if not chunk_count:
        return None
    return (f"  stream: {chunk_count} chunk spans, "
            f"ingest {ingest_us / 1e3:.1f}ms, simulate {chunk_us / 1e3:.1f}ms")


def fairness_lines(rows: list[dict[str, Any]]) -> list[str]:
    """The multi-core fairness digest: per core, the solo-baseline L2
    MPKI against the MPKI inside the contended run (``delta`` is the
    contention penalty; negative means the core *gained* from sharing),
    plus the per-row spread — the imbalance a partitioned HP budget is
    meant to bound."""
    annotated = [(i, row) for i, row in enumerate(rows)
                 if isinstance(row.get("fairness"), dict)]
    if not annotated:
        return []
    out = ["", "fairness (per-core L2 MPKI vs solo baseline):"]
    for i, row in annotated:
        out.append(_config_label(row["config"], i))
        deltas = []
        for pc in row["fairness"].get("per_core", []):
            if "error" in pc:
                out.append(f"  core {pc['core']}: baseline error: "
                           f"{pc['error']}")
                continue
            out.append(f"  core {pc['core']}: solo {pc['solo_l2_mpki']:.2f} "
                       f"-> shared {pc['shared_l2_mpki']:.2f} MPKI "
                       f"(delta {pc['delta_l2_mpki']:+.2f})")
            deltas.append(pc["delta_l2_mpki"])
        if deltas:
            out.append(f"  worst delta {max(deltas):+.2f}, "
                       f"spread {max(deltas) - min(deltas):.2f}")
    return out


def render_report(envelope: dict[str, Any]) -> str:
    """Render the full text report for a loaded sweep envelope."""
    rows: list[dict[str, Any]] = envelope["rows"]
    out: list[str] = ["emissary sweep report"]
    header_bits = []
    for key, label in (("schema_version", "schema"), ("seed", "seed"),
                       ("grid_size", "configs"), ("fresh", "fresh"),
                       ("cached", "cached"), ("errors", "errors")):
        if key in envelope:
            header_bits.append(f"{label}={envelope[key]}")
    if "elapsed_s" in envelope:
        header_bits.append(f"elapsed={envelope['elapsed_s']:.2f}s")
    cache_stats = envelope.get("cache_stats") or {}
    if cache_stats:
        header_bits.append(f"results-cache hits={cache_stats.get('hits', 0)} "
                           f"misses={cache_stats.get('misses', 0)}")
    if header_bits:
        out.append("  " + "  ".join(header_bits))
    analysis = envelope.get("analysis") or {}
    if analysis:
        # The lint posture of the tree that produced this sweep (v3+
        # envelopes): how checked the code was, and how many findings
        # were waved through.
        out.append(f"  analysis: {analysis.get('rules', '?')} rules, "
                   f"{analysis.get('files_scanned', '?')} files scanned, "
                   f"{analysis.get('suppressions', '?')} suppression(s)")
    out += ["", _format_table(rows)]

    out += fairness_lines(rows)

    workers = envelope.get("workers") or {}
    if workers:
        out += ["", "per-worker wall time:"]
        for pid, meta in sorted(workers.items()):
            out.append(f"  pid {pid}: {meta['configs']} configs "
                       f"in {meta['elapsed_s']:.2f}s")

    telemetry_rows = [(i, row) for i, row in enumerate(rows)
                      if isinstance(row.get("result"), dict)
                      and row["result"].get("telemetry")]
    if telemetry_rows:
        out += ["", "telemetry:"]
        for i, row in telemetry_rows:
            out.append(_config_label(row["config"], i))
            out += _telemetry_lines(row["result"]["telemetry"])
    errors = [(i, row) for i, row in enumerate(rows) if "error" in row]
    if errors:
        out += ["", "errors:"]
        for i, row in errors:
            out.append(f"  {_config_label(row['config'], i)}: {row['error']}")
    return "\n".join(out)


def render_serve_digest(report: dict[str, Any]) -> str:
    """Digest of a ``BENCH_serve.json`` serving-layer load report: fleet
    shape, latency distribution, and the dedupe/cache/eviction verdict."""
    latency = report.get("latency_ms", {})
    dedupe = report.get("dedupe", {})
    cache = report.get("cache", {})
    lines = [
        f"serve load benchmark ({report.get('clients', '?')} clients x "
        f"{report.get('requests_per_client', '?')} reqs, "
        f"{report.get('distinct_configs', '?')} distinct configs)",
        f"  throughput: {report.get('req_per_s', 0):.0f} req/s "
        f"({report.get('completed_requests', 0)} requests in "
        f"{report.get('wall_s', 0):.2f}s)",
        f"  latency ms: p50={latency.get('p50', 0):.1f} "
        f"p90={latency.get('p90', 0):.1f} p99={latency.get('p99', 0):.1f} "
        f"max={latency.get('max', 0):.1f}",
        f"  dedupe: {dedupe.get('simulations', 0)} simulations served "
        f"{dedupe.get('requests', 0)} requests "
        f"({dedupe.get('dedupe_joined', 0)} joined in flight, "
        f"ratio {dedupe.get('dedupe_ratio', 0):.2f})",
        f"  cache: hit rate {cache.get('hit_rate', 0):.2f}, "
        f"{cache.get('evictions', 0)} LRU evictions, "
        f"{cache.get('total_bytes', 0)}/{cache.get('budget_bytes')} bytes "
        f"(under budget: {cache.get('under_budget')})",
    ]
    statuses = report.get("status_counts", {})
    if statuses:
        counted = ", ".join(f"{k}: {v}" for k, v in sorted(statuses.items()))
        lines.append(f"  statuses: {counted}")
    return "\n".join(lines)


def render_telemetry_overhead_digest(report: dict[str, Any]) -> str:
    """Digest of a ``BENCH_telemetry.json`` overhead-guard report: the
    kernel off-path guard per policy, and — when the serve arm ran — the
    serve-path obs overhead plus latency percentiles derived from the
    ``serve.latency_us`` histogram the bench captured."""
    from emissary.obs.metrics import histogram_quantile

    rows: list[dict[str, Any]] = report.get("policies", [])
    lines = [f"telemetry overhead guard "
             f"(trace={report.get('trace', {}).get('kind', '?')} "
             f"n={report.get('trace', {}).get('n', '?')}, "
             f"repeats={report.get('repeats', '?')})"]
    for row in rows:
        lines.append(f"  {row['policy']}: off {1e3 * row['off_s']:.2f}ms, "
                     f"on {1e3 * row['on_s']:.2f}ms, "
                     f"off-path overhead {100 * row['off_overhead']:+.2f}%, "
                     f"telemetry cost {100 * row['on_cost']:+.1f}%")
    lines.append(f"  max off-path overhead: "
                 f"{100 * report.get('max_off_overhead', 0.0):+.2f}%")
    serve = report.get("serve")
    if serve:
        lines.append(
            f"  serve path: obs overhead {100 * serve['obs_overhead']:+.2f}% "
            f"(off {serve['off_req_per_s']:.0f} req/s, "
            f"on {serve['on_req_per_s']:.0f} req/s, "
            f"{serve['clients']} clients x {serve['requests_per_client']})")
        hist = serve.get("latency_us_hist") or {}
        if hist:
            p50 = histogram_quantile(hist, 0.50) / 1e3
            p99 = histogram_quantile(hist, 0.99) / 1e3
            n = sum(int(count) for count in hist.values())
            lines.append(f"  serve latency (obs on): p50={p50:.2f}ms "
                         f"p99={p99:.2f}ms (n={n})")
    return "\n".join(lines)


_BENCH_DIGESTS = {
    "serve_load": render_serve_digest,
    "telemetry_overhead": render_telemetry_overhead_digest,
}


def _try_bench_digest(path: str) -> str | None:
    """Render ``path`` as a known bench report, or None if it isn't one."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(payload, dict):
        renderer = _BENCH_DIGESTS.get(payload.get("benchmark", ""))
        if renderer is not None:
            return renderer(payload)
    return None


def export_chrome_trace(envelope: dict[str, Any]) -> dict[str, Any]:
    """Merge every row's engine phase spans into one Chrome trace.

    Tracks: pid = the worker process that ran the config (0 for cached or
    legacy rows), tid = the config's index in the sweep grid.
    """
    spans: list[dict[str, Any]] = []
    for i, row in enumerate(envelope["rows"]):
        result = row.get("result")
        if not isinstance(result, dict):
            continue
        telemetry = result.get("telemetry")
        if not telemetry:
            continue
        pid = (row.get("worker") or {}).get("pid", 0)
        for span in telemetry.get("spans", []):
            tagged = dict(span)
            tagged["pid"] = pid
            tagged["tid"] = i
            spans.append(tagged)
    return spans_to_chrome_trace(spans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="emissary.report", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("path", help="sweep --out JSON (envelope or legacy row list)")
    parser.add_argument("--trace-out", default=None,
                        help="also write merged engine phase spans as Chrome "
                             "trace-event JSON (open in Perfetto)")
    args = parser.parse_args(argv)

    try:
        envelope = load_sweep_output(args.path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        digest = _try_bench_digest(args.path)
        if digest is not None:
            print(digest)
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(envelope))
    if args.trace_out:
        trace = export_chrome_trace(envelope)
        with open(args.trace_out, "w") as fh:
            json.dump(trace, fh, indent=1)
        print(f"\nchrome trace ({len(trace['traceEvents'])} events) "
              f"written to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
