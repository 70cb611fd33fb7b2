"""EMISSARY: Enhanced Miss Awareness replacement (ISCA 2023).

Each line carries a priority bit.  When a miss fills a line, the fill is
a *candidate* for high priority (HP) with probability ``1 / prob_inv``
(the paper's pseudo-random 1/P selection); candidacy succeeds only while
the set holds fewer than ``hp_threshold`` HP lines.  Victim selection is
two-class LRU: prefer the LRU line among *low-priority* lines, but once
the set is saturated (``hp_count >= hp_threshold``) evict the LRU line
among *high-priority* lines instead, so stale protected lines cannot
pin the set forever.  If the preferred class is empty the overall LRU
line is evicted.  Evicting an HP line clears its bit and decrements the
per-set HP count — the count can never exceed the threshold.

Unlike the reference C++ snippets (which reseed ``srand(time(0))`` on
every call — a correctness hazard that makes runs irreproducible and
degenerate within a 1-second window), randomness comes from a single
``numpy.random.Generator`` seeded once per run: the engine pre-generates
one uniform per trace access and policies index it positionally.

HP bookkeeping is strictly per set.  That is what the paper's threshold
means (N of the W ways in a set may be protected), and it is also what
makes set-major batched execution legal: no state is shared across sets.

**Miss awareness.**  The paper's priority signal is *which fills cost
L1I demand misses*.  Standalone (single-level) runs cannot measure that,
so every fill is candidate-eligible — the synthetic assumption.  Under
the L1I -> L2 hierarchy engine every L2 access genuinely is an L1I miss,
and the engine supplies the line's running L1I miss count as the
per-access ``cost`` signal; ``min_l1_misses`` then gates HP candidacy on
*measured* cost (a line must have cost at least that many L1I misses so
far to qualify).  With ``min_l1_misses=1`` the hierarchy reproduces the
paper's binary signal exactly (every L2 fill was an L1I miss); higher
values demand repeat offenders.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from emissary.policies.base import NaivePolicy, PolicyKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.telemetry import Telemetry

DEFAULT_HP_THRESHOLD = 4
DEFAULT_PROB_INV = 32
DEFAULT_MIN_L1_MISSES = 1
DEFAULT_HP_BUDGET = "shared"

#: HP-budget sharing modes under a multi-core shared L2.  ``shared`` is
#: the paper's policy verbatim: one per-set pool of ``hp_threshold``
#: protected ways contended by every core.  ``partitioned`` splits the
#: threshold into per-core sub-budgets (round-robin remainder), so no
#: core can starve another's protection; victim selection is unchanged
#: (two-class over the *total* HP population).
HP_BUDGET_MODES = ("shared", "partitioned")


def _check_params(ways: int, hp_threshold: int, prob_inv: int,
                  min_l1_misses: int, hp_budget: str = DEFAULT_HP_BUDGET,
                  num_cores: int = 1) -> None:
    if hp_threshold < 0:
        raise ValueError("hp_threshold must be >= 0")
    if hp_threshold > ways:
        raise ValueError(f"hp_threshold ({hp_threshold}) cannot exceed ways ({ways})")
    if prob_inv < 1:
        raise ValueError("prob_inv must be >= 1")
    if min_l1_misses < 1:
        raise ValueError("min_l1_misses must be >= 1")
    if hp_budget not in HP_BUDGET_MODES:
        raise ValueError(f"hp_budget must be one of {HP_BUDGET_MODES}, "
                         f"got {hp_budget!r}")
    if num_cores < 1:
        raise ValueError("num_cores must be >= 1")


def core_quotas(hp_threshold: int, num_cores: int) -> list[int]:
    """Per-core HP sub-budgets for the partitioned mode: the threshold
    split as evenly as possible (lower core ids absorb the remainder),
    so the quotas always sum to exactly ``hp_threshold``."""
    base, rem = divmod(hp_threshold, num_cores)
    return [base + (1 if c < rem else 0) for c in range(num_cores)]


class EmissaryKernel(PolicyKernel):
    name = "emissary"
    needs_rng = True
    consumes_cost = True

    def __init__(self, num_sets: int, ways: int,
                 hp_threshold: int = DEFAULT_HP_THRESHOLD,
                 prob_inv: int = DEFAULT_PROB_INV,
                 min_l1_misses: int = DEFAULT_MIN_L1_MISSES,
                 hp_budget: str = DEFAULT_HP_BUDGET,
                 num_cores: int = 1,
                 **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        _check_params(ways, hp_threshold, prob_inv, min_l1_misses,
                      hp_budget, num_cores)
        self.hp_threshold = hp_threshold
        self.prob_inv = prob_inv
        self.min_l1_misses = min_l1_misses
        self.hp_budget = hp_budget
        self.num_cores = num_cores
        # One insertion-ordered dict per set mapping tag -> priority bit.
        # A hit pops and reinserts, so dict order is recency order (front =
        # LRU) and the two-class victim search walks it oldest-first.
        self._sets: list[dict[int, int]] = [{} for _ in range(num_sets)]
        self.hp_counts: list[int] = [0] * num_sets
        self.hp_promotions = 0
        self.hp_evictions = 0
        self.partitioned = hp_budget == "partitioned"
        if self.partitioned:
            # Partitioned candidacy needs the issuing core; priority bits
            # stay 0/1 (victim search and all invariants are unchanged) —
            # ownership lives in a parallel per-set tag -> core dict.
            self.consumes_core = True
            self.core_quotas = core_quotas(hp_threshold, num_cores)
            self._owner: list[dict[int, int]] = [{} for _ in range(num_sets)]
            self.hp_by_core: list[list[int]] = [[0] * num_cores
                                                for _ in range(num_sets)]
            # The shared-mode hot loop stays untouched; partitioned runs
            # dispatch through their own twin.
            self.run_set = self._run_set_part  # type: ignore[method-assign]

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        super().attach_telemetry(telemetry)
        if self.partitioned:
            self.run_set = self._run_set_part_tel  # type: ignore[method-assign]
        # Per-set tag -> hits-since-fill, parallel to the priority dicts.
        self._hits_of: list[dict[int, int]] = [{} for _ in range(self.num_sets)]

    def run_set(self, set_index: int, tags: list[int],
                u: Sequence[float] | None,
                rep: Sequence[bool] | None = None,
                cost: Sequence[int] | None = None,
                extra: Sequence[int] | None = None,
                core: Sequence[int] | None = None) -> list[bool]:
        assert u is not None
        d = self._sets[set_index]
        ways = self.ways
        threshold = self.hp_threshold
        min_cost = self.min_l1_misses
        p_hit = 1.0 / self.prob_inv
        hp = self.hp_counts[set_index]
        promotions = 0
        hp_evictions = 0
        hits: list[bool] = []
        hit_append = hits.append
        pop = d.pop
        # Without a measured cost signal every fill is candidate-eligible
        # (the synthetic single-level assumption); with one, eligibility
        # is the measured L1I miss count reaching min_l1_misses.
        if cost is None:
            cost = (min_cost,) * len(tags)
        for tag, u_i, c_i in zip(tags, u, cost):
            prio = pop(tag, -1)
            if prio >= 0:
                d[tag] = prio  # reinsert at the MRU end
                hit_append(True)
            else:
                if len(d) == ways:
                    want = 1 if hp >= threshold else 0
                    victim = -1
                    for vt, vp in d.items():
                        if vp == want:
                            victim = vt
                            break
                    if victim < 0:
                        victim = next(iter(d))  # preferred class empty: overall LRU
                    if pop(victim):
                        hp -= 1
                        hp_evictions += 1
                if c_i >= min_cost and u_i < p_hit and hp < threshold:
                    d[tag] = 1
                    hp += 1
                    promotions += 1
                else:
                    d[tag] = 0
                hit_append(False)
        self.hp_counts[set_index] = hp
        self.hp_promotions += promotions
        self.hp_evictions += hp_evictions
        return hits

    def _run_set_tel(self, set_index: int, tags: list[int],
                     u: Sequence[float] | None,
                     rep: Sequence[bool] | None = None,
                     cost: Sequence[int] | None = None,
                     extra: Sequence[int] | None = None,
                     core: Sequence[int] | None = None) -> list[bool]:
        """Instrumented twin of ``run_set``: identical two-class victim
        search, plus the paper's diagnostic accounting (eviction split by
        priority class, promotions, demotions, dead-on-fill lines)."""
        tel = self._tel
        assert u is not None and tel is not None and extra is not None
        d = self._sets[set_index]
        hits_of = self._hits_of[set_index]
        ways = self.ways
        threshold = self.hp_threshold
        min_cost = self.min_l1_misses
        p_hit = 1.0 / self.prob_inv
        hp = self.hp_counts[set_index]
        promotions = 0
        hp_evictions = 0
        hits: list[bool] = []
        hit_append = hits.append
        pop = d.pop
        observe = tel.observe
        fills = evictions = dead = lp_evictions = 0
        if cost is None:
            cost = (min_cost,) * len(tags)
        for tag, u_i, c_i, extra_i in zip(tags, u, cost, extra):
            prio = pop(tag, -1)
            if prio >= 0:
                d[tag] = prio  # reinsert at the MRU end
                hits_of[tag] += 1 + extra_i
                hit_append(True)
            else:
                if len(d) == ways:
                    want = 1 if hp >= threshold else 0
                    victim = -1
                    for vt, vp in d.items():
                        if vp == want:
                            victim = vt
                            break
                    if victim < 0:
                        victim = next(iter(d))  # preferred class empty: overall LRU
                    victim_hits = hits_of.pop(victim)
                    observe("line_hits", victim_hits)
                    evictions += 1
                    if victim_hits == 0:
                        dead += 1
                    if pop(victim):
                        hp -= 1
                        hp_evictions += 1
                    else:
                        lp_evictions += 1
                if c_i >= min_cost and u_i < p_hit and hp < threshold:
                    d[tag] = 1
                    hp += 1
                    promotions += 1
                else:
                    d[tag] = 0
                hits_of[tag] = extra_i
                fills += 1
                hit_append(False)
        self.hp_counts[set_index] = hp
        self.hp_promotions += promotions
        self.hp_evictions += hp_evictions
        tel.inc("fills", fills)
        tel.inc("evictions", evictions)
        tel.inc("dead_on_fill", dead)
        tel.inc("evictions_hp", hp_evictions)
        tel.inc("evictions_lp", lp_evictions)
        tel.inc("hp_promotions", promotions)
        # A line loses HP protection only by eviction, so demotions are
        # exactly the HP evictions — kept as a named counter so reports
        # and cross-engine parity checks read one canonical name.
        tel.inc("hp_demotions", hp_evictions)
        return hits

    def _run_set_part(self, set_index: int, tags: list[int],
                      u: Sequence[float] | None,
                      rep: Sequence[bool] | None = None,
                      cost: Sequence[int] | None = None,
                      extra: Sequence[int] | None = None,
                      core: Sequence[int] | None = None) -> list[bool]:
        """Partitioned-budget twin of ``run_set``: candidacy is gated by
        the issuing core's sub-budget (``hp_by_core < quota``) instead of
        the shared pool.  Quotas sum to ``hp_threshold``, so the per-set
        total can never exceed the shared bound and victim selection is
        byte-for-byte the same two-class walk."""
        assert u is not None
        d = self._sets[set_index]
        owner = self._owner[set_index]
        hp_by_core = self.hp_by_core[set_index]
        quota = self.core_quotas
        ways = self.ways
        threshold = self.hp_threshold
        min_cost = self.min_l1_misses
        p_hit = 1.0 / self.prob_inv
        hp = self.hp_counts[set_index]
        promotions = 0
        hp_evictions = 0
        hits: list[bool] = []
        hit_append = hits.append
        pop = d.pop
        if cost is None:
            cost = (min_cost,) * len(tags)
        if core is None:
            core = (0,) * len(tags)
        for tag, u_i, c_i, cr in zip(tags, u, cost, core):
            prio = pop(tag, -1)
            if prio >= 0:
                d[tag] = prio  # reinsert at the MRU end
                hit_append(True)
            else:
                if len(d) == ways:
                    want = 1 if hp >= threshold else 0
                    victim = -1
                    for vt, vp in d.items():
                        if vp == want:
                            victim = vt
                            break
                    if victim < 0:
                        victim = next(iter(d))  # preferred class empty: overall LRU
                    if pop(victim):
                        hp -= 1
                        hp_evictions += 1
                        hp_by_core[owner.pop(victim)] -= 1
                # hp_by_core[cr] < quota[cr] implies hp < threshold (the
                # quotas sum to the threshold and every sub-count is
                # bounded by its quota), so no shared-pool check remains.
                if c_i >= min_cost and u_i < p_hit \
                        and hp_by_core[cr] < quota[cr]:
                    d[tag] = 1
                    owner[tag] = cr
                    hp_by_core[cr] += 1
                    hp += 1
                    promotions += 1
                else:
                    d[tag] = 0
                hit_append(False)
        self.hp_counts[set_index] = hp
        self.hp_promotions += promotions
        self.hp_evictions += hp_evictions
        return hits

    def _run_set_part_tel(self, set_index: int, tags: list[int],
                          u: Sequence[float] | None,
                          rep: Sequence[bool] | None = None,
                          cost: Sequence[int] | None = None,
                          extra: Sequence[int] | None = None,
                          core: Sequence[int] | None = None) -> list[bool]:
        """Instrumented twin of ``_run_set_part``."""
        tel = self._tel
        assert u is not None and tel is not None and extra is not None
        d = self._sets[set_index]
        owner = self._owner[set_index]
        hp_by_core = self.hp_by_core[set_index]
        quota = self.core_quotas
        hits_of = self._hits_of[set_index]
        ways = self.ways
        threshold = self.hp_threshold
        min_cost = self.min_l1_misses
        p_hit = 1.0 / self.prob_inv
        hp = self.hp_counts[set_index]
        promotions = 0
        hp_evictions = 0
        hits: list[bool] = []
        hit_append = hits.append
        pop = d.pop
        observe = tel.observe
        fills = evictions = dead = lp_evictions = 0
        if cost is None:
            cost = (min_cost,) * len(tags)
        if core is None:
            core = (0,) * len(tags)
        for tag, u_i, c_i, extra_i, cr in zip(tags, u, cost, extra, core):
            prio = pop(tag, -1)
            if prio >= 0:
                d[tag] = prio  # reinsert at the MRU end
                hits_of[tag] += 1 + extra_i
                hit_append(True)
            else:
                if len(d) == ways:
                    want = 1 if hp >= threshold else 0
                    victim = -1
                    for vt, vp in d.items():
                        if vp == want:
                            victim = vt
                            break
                    if victim < 0:
                        victim = next(iter(d))  # preferred class empty: overall LRU
                    victim_hits = hits_of.pop(victim)
                    observe("line_hits", victim_hits)
                    evictions += 1
                    if victim_hits == 0:
                        dead += 1
                    if pop(victim):
                        hp -= 1
                        hp_evictions += 1
                        hp_by_core[owner.pop(victim)] -= 1
                    else:
                        lp_evictions += 1
                if c_i >= min_cost and u_i < p_hit \
                        and hp_by_core[cr] < quota[cr]:
                    d[tag] = 1
                    owner[tag] = cr
                    hp_by_core[cr] += 1
                    hp += 1
                    promotions += 1
                else:
                    d[tag] = 0
                hits_of[tag] = extra_i
                fills += 1
                hit_append(False)
        self.hp_counts[set_index] = hp
        self.hp_promotions += promotions
        self.hp_evictions += hp_evictions
        tel.inc("fills", fills)
        tel.inc("evictions", evictions)
        tel.inc("dead_on_fill", dead)
        tel.inc("evictions_hp", hp_evictions)
        tel.inc("evictions_lp", lp_evictions)
        tel.inc("hp_promotions", promotions)
        tel.inc("hp_demotions", hp_evictions)
        return hits

    def telemetry_finalize(self) -> None:
        tel = self._tel
        if tel is None:
            return
        for hits_of in self._hits_of:
            tel.observe_many("resident_line_hits", hits_of.values())
        tel.observe_many("hp_set_occupancy", self.hp_counts)
        tel.inc("hp_lines_final", sum(self.hp_counts))

    def set_contents(self, set_index: int) -> list[tuple]:
        """(tag, priority) pairs in recency order (LRU first) — for tests."""
        return list(self._sets[set_index].items())

    def extra_stats(self) -> dict[str, Any]:
        stats = {
            "hp_threshold": self.hp_threshold,
            "prob_inv": self.prob_inv,
            "min_l1_misses": self.min_l1_misses,
            "hp_promotions": self.hp_promotions,
            "hp_evictions": self.hp_evictions,
            "hp_lines_final": sum(self.hp_counts),
        }
        if self.partitioned:
            stats["hp_budget"] = self.hp_budget
            stats["hp_lines_final_by_core"] = [
                sum(per_set[c] for per_set in self.hp_by_core)
                for c in range(self.num_cores)]
        return stats


class NaiveEmissary(NaivePolicy):
    name = "emissary"
    needs_rng = True

    def __init__(self, num_sets: int, ways: int,
                 hp_threshold: int = DEFAULT_HP_THRESHOLD,
                 prob_inv: int = DEFAULT_PROB_INV,
                 min_l1_misses: int = DEFAULT_MIN_L1_MISSES,
                 hp_budget: str = DEFAULT_HP_BUDGET,
                 num_cores: int = 1,
                 **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        _check_params(ways, hp_threshold, prob_inv, min_l1_misses,
                      hp_budget, num_cores)
        self.hp_threshold = hp_threshold
        self.prob_inv = prob_inv
        self.min_l1_misses = min_l1_misses
        self.hp_budget = hp_budget
        self.num_cores = num_cores
        self.timestamps = [0] * (num_sets * ways)
        self.priority = [0] * (num_sets * ways)
        self.hp_counts = [0] * num_sets
        self.hp_promotions = 0
        self.evictions_hp = 0
        self.evictions_lp = 0
        self._clock = 1
        self.partitioned = hp_budget == "partitioned"
        if self.partitioned:
            self.core_quotas = core_quotas(hp_threshold, num_cores)
            # Owning core per (set, way); -1 marks low-priority lines.
            self.owner = [-1] * (num_sets * ways)
            self.hp_by_core = [[0] * num_cores for _ in range(num_sets)]

    def _touch(self, set_index: int, way: int) -> None:
        self.timestamps[set_index * self.ways + way] = self._clock
        self._clock += 1

    def on_hit(self, set_index: int, way: int, access_index: int) -> None:
        self._touch(set_index, way)

    def find_victim(self, set_index: int, u_i: float) -> int:
        base = set_index * self.ways
        ts = self.timestamps
        prio = self.priority
        want = 1 if self.hp_counts[set_index] >= self.hp_threshold else 0
        victim = -1
        best = None
        for w in range(self.ways):
            if prio[base + w] == want and (best is None or ts[base + w] < best):
                best = ts[base + w]
                victim = w
        if victim < 0:  # preferred class empty: overall LRU
            best = ts[base]
            victim = 0
            for w in range(1, self.ways):
                if ts[base + w] < best:
                    best = ts[base + w]
                    victim = w
        return victim

    def replaced(self, set_index: int, way: int) -> None:
        idx = set_index * self.ways + way
        self.timestamps[idx] = 0
        if self.priority[idx]:
            self.priority[idx] = 0
            self.hp_counts[set_index] -= 1
            self.evictions_hp += 1
            if self.partitioned:
                self.hp_by_core[set_index][self.owner[idx]] -= 1
                self.owner[idx] = -1
        else:
            self.evictions_lp += 1

    def on_fill(self, set_index: int, way: int, access_index: int, u_i: float,
                cost_i: int | None = None,
                core_i: int | None = None) -> None:
        idx = set_index * self.ways + way
        eligible = cost_i is None or cost_i >= self.min_l1_misses
        if self.partitioned:
            cr = 0 if core_i is None else core_i
            if eligible and u_i < 1.0 / self.prob_inv \
                    and self.hp_by_core[set_index][cr] < self.core_quotas[cr]:
                self.priority[idx] = 1
                self.owner[idx] = cr
                self.hp_by_core[set_index][cr] += 1
                self.hp_counts[set_index] += 1
                self.hp_promotions += 1
            else:
                self.priority[idx] = 0
        elif eligible and u_i < 1.0 / self.prob_inv \
                and self.hp_counts[set_index] < self.hp_threshold:
            self.priority[idx] = 1
            self.hp_counts[set_index] += 1
            self.hp_promotions += 1
        else:
            self.priority[idx] = 0
        self._touch(set_index, way)

    def extra_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "hp_threshold": self.hp_threshold,
            "prob_inv": self.prob_inv,
            "min_l1_misses": self.min_l1_misses,
            "hp_promotions": self.hp_promotions,
            "hp_evictions": self.evictions_hp,
            "hp_lines_final": sum(self.hp_counts),
        }
        if self.partitioned:
            stats["hp_budget"] = self.hp_budget
            stats["hp_lines_final_by_core"] = [
                sum(per_set[c] for per_set in self.hp_by_core)
                for c in range(self.num_cores)]
        return stats

    def telemetry_finalize(self, telemetry: "Telemetry", prefix: str = "") -> None:
        telemetry.inc(prefix + "evictions_hp", self.evictions_hp)
        telemetry.inc(prefix + "evictions_lp", self.evictions_lp)
        telemetry.inc(prefix + "hp_promotions", self.hp_promotions)
        telemetry.inc(prefix + "hp_demotions", self.evictions_hp)
        telemetry.observe_many(prefix + "hp_set_occupancy", self.hp_counts)
        telemetry.inc(prefix + "hp_lines_final", sum(self.hp_counts))
