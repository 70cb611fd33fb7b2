"""Unit tests for per-policy victim selection and priority bookkeeping."""

import numpy as np
import pytest

from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.policies import make_kernel, make_naive, policy_needs_rng
from emissary.policies.emissary import EmissaryKernel, NaiveEmissary
from emissary.policies.lru import NaiveLRU
from emissary.policies.srrip import RRPV_INSERT, RRPV_MAX, NaiveSRRIP, SRRIPKernel


def addresses_of_lines(lines, line_size=64):
    return np.asarray(lines, dtype=np.uint64) * np.uint64(line_size)


def run_one_set(policy, lines, ways, engine="batched", seed=0, **params):
    """Run a trace confined to a single set (num_sets=1) and return hits."""
    cfg = CacheConfig(num_sets=1, ways=ways)
    cls = BatchedEngine if engine == "batched" else ReferenceEngine
    result = cls(cfg).simulate_stream([addresses_of_lines(lines)],
                                      PolicySpec(policy, params), seed=seed)
    return list(result.hits)


class TestLRU:
    def test_evicts_least_recently_used(self):
        # Fill ways 0..2 with lines 1,2,3; touch 1; insert 4 -> evicts 2.
        hits = run_one_set("lru", [1, 2, 3, 1, 4, 1, 3, 2], ways=3)
        assert hits == [False, False, False, True, False, True, True, False]

    def test_hit_refreshes_recency(self):
        hits = run_one_set("lru", [1, 2, 1, 3, 1, 4, 1], ways=2)
        # 1 survives every eviction because it is touched between fills.
        assert [h for i, h in enumerate(hits) if i % 2 == 0] == [False, True, True, True]

    def test_naive_victim_is_min_timestamp(self):
        naive = NaiveLRU(1, 4)
        for way in (2, 0, 3, 1):
            naive.on_fill(0, way, 0, 0.0)
        assert naive.find_victim(0, 0.0) == 2


class TestSRRIP:
    def test_insert_then_age_then_evict(self):
        hits = run_one_set("srrip", [1, 2, 3], ways=2)
        # Third line must age both resident lines to RRPV_MAX and evict way 0.
        assert hits == [False, False, False]
        kernel = make_kernel("srrip", 1, 2)
        kernel.run_set(0, [1, 2, 3], None, [False, False, False])
        assert kernel.effective_rrpv(0) == [RRPV_INSERT, RRPV_MAX]

    def test_hit_promotes_to_zero(self):
        kernel = make_kernel("srrip", 1, 2)
        kernel.run_set(0, [1, 2, 1], None, [False] * 3)
        assert kernel.effective_rrpv(0) == [0, RRPV_INSERT]

    def test_repeat_flag_matches_explicit_rereference(self):
        # [5, 5] with collapsing == [5] with rep=True: fill promoted to 0.
        kernel = make_kernel("srrip", 1, 2)
        kernel.run_set(0, [5], None, [True])
        assert kernel.effective_rrpv(0) == [0]

    def test_wide_fallback_matches_packed(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 64, 4000)
        wide = run_one_set("srrip", lines, ways=PACKED_LIMIT_PLUS)
        ref = run_one_set("srrip", lines, ways=PACKED_LIMIT_PLUS, engine="reference")
        assert wide == ref

    def test_naive_victim_scan_order(self):
        naive = NaiveSRRIP(1, 4)
        naive.rrpv[:4] = [RRPV_MAX, 1, RRPV_MAX, 0]
        assert naive.find_victim(0, 0.0) == 0  # lowest index wins


PACKED_LIMIT_PLUS = 12  # beyond PACK_MAX_WAYS -> exercises the list fallback


class TestRandom:
    def test_victim_is_uniform_slot(self):
        naive = make_naive("random", 1, 8)
        assert naive.find_victim(0, 0.0) == 0
        assert naive.find_victim(0, 0.999) == 7
        assert naive.find_victim(0, 0.5) == 4

    def test_needs_rng(self):
        assert policy_needs_rng("random")
        assert policy_needs_rng("emissary")
        assert not policy_needs_rng("lru")
        assert not policy_needs_rng("srrip")


class TestEmissary:
    def _fill_kernel(self, ways, hp_threshold, prob_inv, lines, u):
        kernel = EmissaryKernel(1, ways, hp_threshold=hp_threshold, prob_inv=prob_inv)
        kernel.run_set(0, list(lines), list(u), None)
        return kernel

    def test_hp_count_never_exceeds_threshold(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 100, 5000).tolist()
        # prob_inv=1 makes every fill an HP candidate — worst case.
        kernel = self._fill_kernel(8, 3, 1, lines, [0.0] * len(lines))
        assert kernel._hp[0] <= 3
        assert sum(p for _, p in kernel.set_contents(0)) == kernel._hp[0]

    def test_hp_count_tracked_per_set(self):
        cfg = CacheConfig(num_sets=4, ways=4)
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 256, 4000)
        engine = BatchedEngine(cfg)
        result = engine.simulate_stream(
            [addresses_of_lines(lines)],
            PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 1}), seed=9)
        assert result.policy_stats["hp_lines_final"] <= 2 * cfg.num_sets

    def test_hp_bit_cleared_on_eviction(self):
        naive = NaiveEmissary(1, 2, hp_threshold=2, prob_inv=1)
        naive.on_fill(0, 0, 0, 0.0)  # u=0.0 < 1/1 -> HP
        assert naive.priority[0] == 1
        assert naive.hp_counts[0] == 1
        naive.replaced(0, 0)
        assert naive.priority[0] == 0
        assert naive.hp_counts[0] == 0

    def test_prefers_low_priority_lru_victim(self):
        naive = NaiveEmissary(1, 3, hp_threshold=2, prob_inv=2)
        naive.on_fill(0, 0, 0, 0.0)   # u < 1/2 -> HP (oldest)
        naive.on_fill(0, 1, 1, 0.9)   # LP
        naive.on_fill(0, 2, 2, 0.9)   # LP
        # Way 0 is the overall LRU but is protected; LP LRU is way 1.
        assert naive.hp_counts[0] == 1  # below threshold
        assert naive.find_victim(0, 0.0) == 1

    def test_falls_back_to_hp_lru_when_saturated(self):
        naive = NaiveEmissary(1, 2, hp_threshold=2, prob_inv=1)
        naive.on_fill(0, 0, 0, 0.0)  # HP
        naive.on_fill(0, 1, 1, 0.0)  # HP -> hp_count == threshold
        assert naive.hp_counts[0] == 2
        # Saturated: victim is the LRU *high-priority* line.
        assert naive.find_victim(0, 0.0) == 0

    def test_threshold_zero_degenerates_to_lru(self):
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 40, 3000)
        em = run_one_set("emissary", lines, ways=4, hp_threshold=0, prob_inv=2, seed=11)
        lru = run_one_set("lru", lines, ways=4, seed=11)
        assert em == lru

    def test_threshold_above_ways_rejected(self):
        with pytest.raises(ValueError):
            EmissaryKernel(1, 4, hp_threshold=5)
        with pytest.raises(ValueError):
            NaiveEmissary(1, 4, hp_threshold=5)

    def test_prob_inv_below_one_rejected(self):
        with pytest.raises(ValueError):
            EmissaryKernel(1, 4, prob_inv=0)

    def test_protection_beats_lru_on_thrashing_loop(self):
        # Cyclic loop over footprint > capacity: pure LRU gets ~0 hits,
        # EMISSARY's protected lines keep a stable resident subset.
        ways, loops, footprint = 8, 60, 12
        lines = list(range(footprint)) * loops
        lru_hits = sum(run_one_set("lru", lines, ways=ways))
        em_hits = sum(run_one_set("emissary", lines, ways=ways,
                                  hp_threshold=6, prob_inv=4, seed=2))
        assert lru_hits == 0
        assert em_hits > loops  # protected lines hit nearly every iteration


class TestRegistry:
    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_kernel("optimal", 1, 4)
        with pytest.raises(ValueError):
            make_naive("optimal", 1, 4)
        with pytest.raises(ValueError):
            policy_needs_rng("optimal")

    def test_srrip_kernel_uses_packed_path_at_default_ways(self, monkeypatch):
        def no_wide(*args):
            raise AssertionError("8-way SRRIP took the list-based loop")

        packed = SRRIPKernel(4, 8)
        monkeypatch.setattr(packed, "_run_set_wide", no_wide)
        packed.run_set(0, [1, 2], None, [False, False])
        wide = SRRIPKernel(4, PACKED_LIMIT_PLUS)
        monkeypatch.setattr(wide, "_run_set_wide", lambda *args: [False])
        assert wide.run_set(0, [1], None, [False]) == [False]
