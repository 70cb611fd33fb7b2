"""Tests for the parallel sweep runner, its cache integration, and the CLI."""

import json

import pytest

from emissary.api import PolicySpec, SimRequest, simulate
from emissary.engine import CacheConfig
from emissary.hierarchy import HierarchyConfig
from emissary.sweep import (SWEEP_SCHEMA_VERSION, add_fairness, build_envelope,
                            build_grid, demo_grid, main, make_config,
                            run_config, run_sweep, solo_requests)
from emissary.traces import InterleaveSpec, TraceSpec


def small_grid(n=2_000):
    cache = CacheConfig(num_sets=16, ways=4)
    traces = [TraceSpec("loop", n, 1, {"footprint_lines": 100})]
    return build_grid(traces, ["lru", "emissary"], cache, seed=1,
                      hp_thresholds=[2], prob_invs=[8])


def hierarchy_grid(n=2_000):
    cache = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                            l2=CacheConfig(num_sets=16, ways=4))
    traces = [TraceSpec("loop", n, 1, {"footprint_lines": 100})]
    return build_grid(traces, ["lru", "emissary"], cache, seed=1,
                      hp_thresholds=[2], prob_invs=[8], min_l1_misses=2)


def multicore_grid(n=2_000):
    cache = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                            l2=CacheConfig(num_sets=16, ways=4))
    mix = InterleaveSpec(cores=(TraceSpec("loop", n, 1,
                                          {"footprint_lines": 100}),
                                TraceSpec("call", n // 2, 2)),
                         weights=(2, 1))
    return build_grid([mix], ["lru", "emissary"], cache, seed=1,
                      hp_thresholds=[2], prob_invs=[8], min_l1_misses=2,
                      hp_budgets=("shared", "partitioned"))


def test_build_grid_hp_budget_axis():
    grid = multicore_grid()
    assert len(grid) == 3  # lru + emissary x {shared, partitioned}
    emissary = [g for g in grid if g.policy.name == "emissary"]
    # Shared is the implicit default — no param, so pre-existing cache
    # keys stay stable; only the partitioned point is annotated.
    assert sorted(g.policy.params.get("hp_budget", "shared")
                  for g in emissary) == ["partitioned", "shared"]
    assert sum("hp_budget" in g.policy.params for g in emissary) == 1


def test_solo_requests_strip_budget_axis():
    partitioned = next(g for g in multicore_grid()
                       if "hp_budget" in g.policy.params)
    solos = solo_requests(partitioned)
    assert [s.trace.kind for s in solos] == ["loop", "call"]
    for solo in solos:
        assert not solo.is_multicore
        assert "hp_budget" not in solo.policy.params  # shared == partitioned solo
        assert solo.config == partitioned.config
        assert solo.seed == partitioned.seed
    with pytest.raises(ValueError, match="multi-core"):
        solo_requests(small_grid()[0])


def test_multicore_sweep_smoke_with_fairness(tmp_path):
    rows = run_sweep(multicore_grid(), workers=0, cache_dir=tmp_path)
    assert all("result" in row for row in rows)
    for row in rows:
        assert row["result"]["num_cores"] == 2
        assert [r["core"] for r in row["result"]["per_core"]] == [0, 1]
    assert add_fairness(rows, workers=0, cache_dir=tmp_path) == len(rows)
    for row in rows:
        per_core = row["fairness"]["per_core"]
        assert [r["core"] for r in per_core] == [0, 1]
        for r in per_core:
            assert r["delta_l2_mpki"] == pytest.approx(
                r["shared_l2_mpki"] - r["solo_l2_mpki"])
            assert r["shared_l2_mpki"] == pytest.approx(
                row["result"]["per_core"][r["core"]]["l2_mpki"])
    # Solo baselines are ordinary cacheable sweep points: a rerun of the
    # fairness pass is answered entirely from the results cache.
    again = run_sweep(multicore_grid(), workers=0, cache_dir=tmp_path)
    assert all(row["cached"] for row in again)
    assert add_fairness(again, workers=0, cache_dir=tmp_path) == len(again)
    assert [row["fairness"] for row in again] == [row["fairness"]
                                                  for row in rows]


def test_build_grid_expands_emissary_params():
    cache = CacheConfig(num_sets=16, ways=4)
    traces = [TraceSpec("loop", 100, 1)]
    grid = build_grid(traces, ["lru", "emissary"], cache, 1,
                      hp_thresholds=[2, 4], prob_invs=[16, 32])
    assert len(grid) == 1 + 4  # lru once, emissary 2x2
    assert all(isinstance(g, SimRequest) for g in grid)
    emissary_params = [g.policy.params for g in grid if g.policy.name == "emissary"]
    assert {frozenset(p.items()) for p in emissary_params} == {
        frozenset({"hp_threshold": t, "prob_inv": p}.items())
        for t in (2, 4) for p in (16, 32)
    }


def test_build_grid_threads_min_l1_misses():
    grid = hierarchy_grid()
    emissary = [g for g in grid if g.policy.name == "emissary"]
    assert all(g.policy.params["min_l1_misses"] == 2 for g in emissary)
    assert all(g.is_hierarchy for g in grid)


def test_run_config_returns_stats():
    request = small_grid()[0]
    result = run_config(request.to_dict())
    assert _scrub_timing(result) == _scrub_timing(simulate(request).to_dict())
    assert result["policy"] == "lru"
    assert result["n"] == 2_000
    assert 0.0 <= result["hit_rate"] <= 1.0
    assert result["hit_count"] + result["miss_count"] == result["n"]


def test_run_config_hierarchy_returns_per_level_stats():
    request = hierarchy_grid()[-1]  # emissary point
    result = run_config(request.to_dict())
    assert _scrub_timing(result) == _scrub_timing(simulate(request).to_dict())
    assert result["policy"] == "emissary"
    assert result["n"] == 2_000
    assert result["l1"]["n"] == 2_000
    assert result["l2"]["n"] == result["l1"]["miss_count"]
    assert result["l2"]["policy_stats"]["min_l1_misses"] == 2
    assert 0.0 <= result["l1_hit_rate"] <= 1.0
    assert 0.0 <= result["l2_local_hit_rate"] <= 1.0


def _scrub_timing(d):
    if isinstance(d, dict):
        return {k: _scrub_timing(v) for k, v in d.items()
                if k != "elapsed_s" and "per_s" not in k}
    return d


def test_run_config_streams_file_traces(tmp_path):
    """A file-backed config must produce the same stats as the same
    addresses simulated from memory (workers stream it chunk by chunk),
    on the backend its wire dict names."""
    from emissary import trace_io

    synth = small_grid()[0]
    path = tmp_path / "t.champsim.gz"
    trace_io.write_trace(path, [synth.trace.generate()])
    file_request = SimRequest(trace_io.file_spec(path), synth.policy,
                              synth.config, seed=synth.seed)
    expected = _scrub_timing(run_config(synth.to_dict()))
    assert _scrub_timing(run_config(file_request.to_dict())) == expected
    assert _scrub_timing(run_config(
        dict(file_request.to_dict(), backend="compiled"))) == expected


def test_cli_trace_file_sweeps_and_caches(tmp_path, capsys):
    from emissary import trace_io

    path = tmp_path / "t.npy"
    trace_io.write_trace(
        path, [TraceSpec("loop", 2_000, 1, {"footprint_lines": 100}).generate()])
    args = ["--traces", "", "--trace-file", str(path), "--policies", "lru",
            "--num-sets", "16", "--ways", "4", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out.json")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "file" in out and "1 simulated" in out
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert rows[0]["config"]["trace"]["kind"] == "file"
    # Second run: everything cached, even after the file moves.
    moved = tmp_path / "moved.npy"
    path.rename(moved)
    args[3] = str(moved)
    assert main(args) == 0
    assert "1 cached" in capsys.readouterr().out


def test_cli_trace_file_rejected_with_demo(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--demo", "--trace-file", str(tmp_path / "t.npy")])


def test_sweep_serial_and_cached_rerun(tmp_path):
    grid = small_grid()
    rows = run_sweep(grid, workers=1, cache_dir=tmp_path)
    assert len(rows) == len(grid)
    assert all(not r["cached"] for r in rows)

    again = run_sweep(grid, workers=1, cache_dir=tmp_path)
    assert all(r["cached"] for r in again)
    assert [r["result"] for r in again] == [r["result"] for r in rows]


def _deterministic(result):
    return {k: v for k, v in result.items()
            if k not in ("elapsed_s", "accesses_per_s", "l1", "l2")}


def test_sweep_parallel_matches_serial(tmp_path):
    grid = small_grid() + hierarchy_grid()
    serial = run_sweep(grid, workers=1, cache_dir=tmp_path / "a")
    parallel = run_sweep(grid, workers=2, cache_dir=tmp_path / "b")
    assert ([_deterministic(r["result"]) for r in serial]
            == [_deterministic(r["result"]) for r in parallel])


def test_sweep_recovers_from_corrupt_cache_entry(tmp_path):
    grid = small_grid()
    run_sweep(grid, workers=1, cache_dir=tmp_path)
    victim = next(tmp_path.glob("*.json"))
    victim.write_text("corrupted")
    rows = run_sweep(grid, workers=1, cache_dir=tmp_path)
    assert sum(1 for r in rows if not r["cached"]) == 1  # only the corrupt one


def test_interrupted_sweep_keeps_completed_results(tmp_path):
    """Results must be written back per completion, not in one batch at
    the end — a crash partway through must not lose finished work."""
    good = small_grid()[0]
    bad = dict(good.to_dict())
    bad["trace"] = {"kind": "loop", "n": -1, "seed": 0, "params": {}}
    rows = run_sweep([good, bad], workers=1, cache_dir=tmp_path)
    assert "result" in rows[0] and "error" in rows[1]
    again = run_sweep([good], workers=1, cache_dir=tmp_path)
    assert again[0]["cached"]  # the config that completed survived the bad one


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_isolates_failing_configs(tmp_path, workers, caplog):
    """One raising config yields an error row; the rest keep running,
    succeed, and get cached — the pool is never killed."""
    grid = [g.to_dict() for g in small_grid()]
    bad = dict(grid[0])
    bad["policy"] = {"name": "lru", "params": {"bogus": 1}}
    rows = run_sweep([grid[0], bad, grid[1]], workers=workers, cache_dir=tmp_path)
    assert [("error" in r) for r in rows] == [False, True, False]
    assert "bogus" in rows[1]["error"]
    assert "result" not in rows[1]
    assert any("failed" in rec.message for rec in caplog.records)
    # Error payloads are never cached; good ones are.
    again = run_sweep([grid[0], bad, grid[1]], workers=1, cache_dir=tmp_path)
    assert [r["cached"] for r in again] == [True, False, True]


def test_wire_dict_backend_stays_out_of_the_key(tmp_path):
    """A wire dict's ``backend`` picks the worker's engine; the row and
    the cache key carry the backend-free config."""
    request = small_grid()[0]
    rows = run_sweep([dict(request.to_dict(), backend="reference")],
                     workers=1, cache_dir=tmp_path)
    assert rows[0]["backend"] == "reference"
    assert rows[0]["config"] == request.to_dict()
    again = run_sweep([request], workers=1, cache_dir=tmp_path)
    assert again[0]["cached"] and again[0]["backend"] == "batched"
    assert again[0]["result"] == rows[0]["result"]


def test_sweep_fresh_rows_carry_worker_metadata(tmp_path):
    rows = run_sweep(small_grid(), workers=2, cache_dir=tmp_path)
    for row in rows:
        assert row["worker"]["pid"] > 0
        assert row["worker"]["elapsed_s"] >= 0.0
    cached = run_sweep(small_grid(), workers=2, cache_dir=tmp_path)
    assert all("worker" not in row for row in cached)


def test_sweep_telemetry_flag_rekeys_and_instruments(tmp_path):
    plain = run_sweep(small_grid(), workers=1, cache_dir=tmp_path)
    instrumented = run_sweep(small_grid(), workers=1, cache_dir=tmp_path,
                             telemetry=True)
    # Separate cache keys: the instrumented pass found nothing cached.
    assert all(not r["cached"] for r in instrumented)
    assert all(r["result"].get("telemetry") is None for r in plain)
    for row in instrumented:
        telemetry = row["result"]["telemetry"]
        assert telemetry["counters"]["fills"] > 0
        assert row["config"]["telemetry"] is True
    # Outcomes are not perturbed by instrumentation.
    assert ([r["result"]["hit_rate"] for r in plain]
            == [r["result"]["hit_rate"] for r in instrumented])


def test_demo_grid_covers_all_policies_and_both_levels():
    grid = demo_grid(n=100)
    assert {g.policy.name for g in grid} == {"lru", "random", "srrip", "emissary"}
    single = [g for g in grid if not g.is_multicore]
    assert {g.trace.kind for g in single} == {"loop", "shift", "call"}
    hierarchy = [g for g in grid if g.is_hierarchy]
    assert hierarchy and any(not g.is_hierarchy for g in grid)
    # The demo's hierarchy EMISSARY points gate HP candidacy on measured
    # L1I miss counts.
    assert all(g.policy.params["min_l1_misses"] == 2
               for g in hierarchy if g.policy.name == "emissary")
    # The multi-core leg sweeps the HP-budget axis on a shared L2.
    multicore = [g for g in grid if g.is_multicore]
    assert multicore and all(g.is_hierarchy for g in multicore)
    budgets = {g.policy.params.get("hp_budget", "shared")
               for g in multicore if g.policy.name == "emissary"}
    assert budgets == {"shared", "partitioned"}


def test_make_config_is_cache_key_stable():
    cache = CacheConfig(num_sets=16, ways=4)
    spec = TraceSpec("loop", 100, 1)
    a = make_config(SimRequest(spec, PolicySpec("lru"), cache, 1))
    b = make_config(SimRequest(spec, PolicySpec("lru"), cache, 1))
    assert a == b


def test_cli_demo_writes_results(tmp_path, capsys):
    out = tmp_path / "results.json"
    rc = main(["--demo", "--n", "1000", "--workers", "1",
               "--cache-dir", str(tmp_path / "rc"), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "configs" in captured.out
    assert "L1hit%" in captured.out  # per-level columns in the table
    envelope = json.loads(out.read_text())
    assert envelope["schema_version"] == SWEEP_SCHEMA_VERSION
    assert envelope["errors"] == 0
    assert envelope["telemetry_enabled"] is False
    assert "hits" in envelope["cache_stats"]
    rows = envelope["rows"]
    assert len(rows) == envelope["grid_size"] == len(demo_grid(n=1000))
    assert envelope["fresh"] + envelope["cached"] == len(rows)
    assert all("result" in r for r in rows)
    assert any("l1" in r["result"] for r in rows)  # hierarchy rows present


def test_cli_hierarchy_axes(tmp_path, capsys):
    out = tmp_path / "results.json"
    rc = main(["--traces", "loop", "--n", "1000", "--policies", "emissary",
               "--hp-thresholds", "2", "--prob-invs", "8",
               "--num-sets", "32", "--ways", "4",
               "--l1-sets", "8", "--l1-ways", "2", "--min-l1-misses", "2",
               "--workers", "1", "--cache-dir", str(tmp_path / "rc"),
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1
    cfg = rows[0]["config"]
    assert cfg["config"]["l1"] == {"num_sets": 8, "ways": 2, "line_size": 64}
    assert cfg["config"]["l2"]["num_sets"] == 32
    assert cfg["policy"]["params"]["min_l1_misses"] == 2
    assert rows[0]["result"]["l2"]["policy_stats"]["min_l1_misses"] == 2
    assert "MPKI" in capsys.readouterr().out


def test_cli_interleave_sweeps_budget_axis(tmp_path, capsys):
    out = tmp_path / "results.json"
    rc = main(["--traces", "loop,call", "--n", "1000", "--policies", "emissary",
               "--hp-thresholds", "2", "--prob-invs", "8",
               "--num-sets", "32", "--ways", "4",
               "--l1-sets", "8", "--l1-ways", "2", "--min-l1-misses", "2",
               "--hp-budgets", "shared,partitioned",
               "--interleave", "--weights", "2,1",
               "--workers", "1", "--cache-dir", str(tmp_path / "rc"),
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    # The interleaved mix rides alongside the plain per-trace points and
    # sweeps both HP-budget modes.
    mix_rows = [r for r in rows if "cores" in r["config"]["trace"]]
    budgets = sorted(r["config"]["policy"]["params"].get("hp_budget", "shared")
                     for r in mix_rows)
    assert budgets == ["partitioned", "shared"]
    for row in mix_rows:
        assert row["result"]["num_cores"] == 2
        assert [pc["core"] for pc in row["fairness"]["per_core"]] == [0, 1]
    assert "mix/loop+call" in capsys.readouterr().out


def test_cli_interleave_requires_hierarchy_and_two_traces(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--traces", "loop,call", "--interleave", "--n", "100",
              "--cache-dir", str(tmp_path)])  # no --l1-sets
    with pytest.raises(SystemExit):
        main(["--traces", "loop", "--interleave", "--l1-sets", "8",
              "--n", "100", "--cache-dir", str(tmp_path)])
    capsys.readouterr()


def test_build_envelope_aggregates_rows():
    rows = [
        {"config": {}, "result": {}, "cached": True},
        {"config": {}, "result": {}, "cached": False,
         "worker": {"pid": 11, "elapsed_s": 0.5}},
        {"config": {}, "error": "ValueError: boom", "cached": False,
         "worker": {"pid": 11, "elapsed_s": 0.25}},
    ]
    env = build_envelope(rows, seed=7, elapsed_s=1.5,
                         cache_stats={"hits": 1, "misses": 2}, telemetry=True)
    assert env["schema_version"] == SWEEP_SCHEMA_VERSION
    assert (env["grid_size"], env["fresh"], env["cached"], env["errors"]) == (3, 1, 1, 1)
    assert env["seed"] == 7 and env["telemetry_enabled"] is True
    assert env["workers"]["11"] == {"configs": 2, "elapsed_s": 0.75}
    assert env["cache_stats"] == {"hits": 1, "misses": 2}


def test_cli_telemetry_flag_embeds_payload(tmp_path):
    out = tmp_path / "results.json"
    rc = main(["--traces", "loop", "--n", "1000", "--policies", "emissary",
               "--hp-thresholds", "2", "--prob-invs", "8",
               "--num-sets", "16", "--ways", "4", "--workers", "1",
               "--cache-dir", str(tmp_path / "rc"), "--telemetry",
               "--out", str(out)])
    assert rc == 0
    envelope = json.loads(out.read_text())
    assert envelope["telemetry_enabled"] is True
    telemetry = envelope["rows"][0]["result"]["telemetry"]
    assert telemetry["counters"]["hp_promotions"] >= 0
    names = [s["name"] for s in telemetry["spans"]]
    # One run of one chunk: its kept accesses wait in the dispatch
    # buffer, and the flush dispatches them with the trailing run.
    assert names.count("stream_chunk") == 1
    assert names.count("kernel_loop") == 1


def test_cli_exits_nonzero_on_config_error(tmp_path, capsys, monkeypatch):
    import emissary.sweep as sweep_mod

    bad = dict(small_grid()[0].to_dict())
    bad["trace"] = {"kind": "loop", "n": -1, "seed": 0, "params": {}}
    monkeypatch.setattr(sweep_mod, "demo_grid", lambda n, seed: [bad])
    out = tmp_path / "results.json"
    rc = main(["--demo", "--workers", "1", "--cache-dir", str(tmp_path / "rc"),
               "--out", str(out)])
    assert rc == 1
    assert "ERROR" in capsys.readouterr().out  # the table shows the error row
    envelope = json.loads(out.read_text())
    assert envelope["errors"] == 1  # the envelope is still written
    assert "error" in envelope["rows"][0]


def test_cli_single_level_argument_parsing(tmp_path, capsys):
    rc = main(["--traces", "loop,call", "--n", "500", "--policies", "lru,srrip",
               "--workers", "1", "--cache-dir", str(tmp_path / "rc")])
    assert rc == 0
    table = capsys.readouterr().out
    assert "4 configs" in table  # 2 traces x 2 policies
    assert "srrip" in table
