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

**The HP budget is a set of pools.**  Each set's ``hp_threshold`` is
split into ``pools`` quotas (:func:`core_quotas`), every HP line is
charged to one pool, and a candidate fill promotes only while its pool
is under its quota.  The paper's shared budget is one pool holding the
whole threshold, so the rule reads "fewer than ``hp_threshold`` HP
lines in the set".  Under a multi-core shared L2 the ``partitioned``
budget (``hp_budget``) gives each core a pool of its own, so no core can
starve another's protection.  The quotas sum to the threshold, so the
set-wide bound holds in both modes and victim selection, which reads
only the set's total, is the same.

The batched kernel keeps flat per-set arrays, which the compiled
backend steps too: ``_tag``, ``_ts`` (last-use time from the kernel's
one-element ``_clock``) and ``_owner`` (the HP line's pool, -1 for low
priority, so a line's priority bit is ``_owner >= 0``) per slot,
``_size``, ``_hp`` (HP lines) and ``_hp_by_pool`` per set, and the run's
HP promotions and evictions in ``_stats``.  A lockstep step (see
:mod:`emissary.policies.base`) stamps every hit slot with the step's
time and picks every full set's victim with one ``argmin`` over slot
keys that put the priority bit above the timestamp (:data:`PRIO_SHIFT`),
flipped for sets whose preferred class is HP.  The scalar loop that
finishes long sets reads a set into an insertion-ordered tag -> owner
dict (recency order, front = LRU), walks it for the two-class victim,
and writes it back with fresh ascending timestamps.

**Miss awareness.**  The paper's priority signal is *which fills cost
L1I demand misses*.  Standalone (single-level) runs cannot measure that,
so every fill is candidate-eligible — the synthetic assumption.  Under
the L1I -> L2 hierarchy engine every L2 access genuinely is an L1I miss,
and the engine supplies the line's running L1I miss count as the
per-access ``cost`` signal; ``min_l1_misses`` then gates HP candidacy on
*measured* cost (a line must have cost at least that many L1I misses so
far to qualify); higher values demand repeat offenders.  This is not
the paper's signal.  The paper promotes a fill whose miss starved
decode, ANDed with the ``1 / prob_inv`` draw; the decode-starvation bit
comes from a core model, which this trace-driven simulator does not
have.  With the default ``min_l1_misses=1`` every L2 fill is a
candidate (every L2 access is an L1I miss), so selection reduces to the
random draw up to ``hp_threshold``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from emissary.policies.base import LaneHits, NaivePolicy, PolicyKernel, lookup, record_lifetimes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.telemetry import Telemetry

DEFAULT_HP_THRESHOLD = 4
DEFAULT_PROB_INV = 32
DEFAULT_MIN_L1_MISSES = 1
DEFAULT_HP_BUDGET = "shared"

#: HP-budget sharing modes under a multi-core shared L2.  ``shared`` is
#: the paper's policy verbatim: one per-set pool of ``hp_threshold``
#: protected ways contended by every core.  ``partitioned`` gives each
#: core a pool of its own (see the module docstring).
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
    """Per-pool HP quotas: the threshold split as evenly as possible
    over ``num_cores`` pools (lower ids absorb the remainder), so the
    quotas always sum to exactly ``hp_threshold``."""
    base, rem = divmod(hp_threshold, num_cores)
    return [base + (1 if c < rem else 0) for c in range(num_cores)]


#: ``_stats`` slots: the HP promotions and evictions ``extra_stats``
#: reports, kept in an array so the compiled kernel counts into it too.
STAT_HP_PROMOTIONS = 0
STAT_HP_EVICTIONS = 1


#: The priority bit's position in a lockstep slot key: above every
#: timestamp, so one ``argmin`` over ``key ^ (want << PRIO_SHIFT)`` finds
#: the LRU line of the preferred class, or the overall LRU line when that
#: class is empty.
PRIO_SHIFT = 62
_PRIO_BIT = 1 << PRIO_SHIFT


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
        #: HP budget pools: one per core when partitioned, else one.
        self.pools = num_cores if hp_budget == "partitioned" else 1
        # Only a budget of several pools reads the issuing core.
        self.consumes_core = self.pools > 1
        lines = num_sets * ways
        #: Resident tags, ``ways`` slots per set; -1 = empty.  A line's
        #: slot carries no meaning: victims are chosen by recency.
        self._tag = np.full(lines, -1, dtype=np.int64)
        #: Last-use time per slot (unique within a set; 0 = empty) and
        #: the ``_clock[0]`` the next use gets.
        self._ts = np.zeros(lines, dtype=np.int64)
        self._clock = np.ones(1, dtype=np.int64)
        #: Filled slots and resident HP lines per set.
        self._size = np.zeros(num_sets, dtype=np.int64)
        self._hp = np.zeros(num_sets, dtype=np.int64)
        #: Each pool's share of the threshold, as the scalar tail reads
        #: it and as the lockstep step gathers it.
        self._quota_list = core_quotas(hp_threshold, self.pools)
        self._quota = np.asarray(self._quota_list, dtype=np.int64)
        #: Pool of the HP line per slot; -1 marks low-priority lines and
        #: empty slots, so ``_owner >= 0`` is the priority bit.
        self._owner = np.full(lines, -1, dtype=np.int64)
        #: HP lines per (set, pool), ``pools`` slots per set.
        self._hp_by_pool = np.zeros(num_sets * self.pools, dtype=np.int64)
        #: HP promotions and evictions so far (the ``STAT_*`` slots).
        self._stats = np.zeros(2, dtype=np.int64)

    def count_classes(self, tel: "Telemetry", evictions: int,
                      hp_evictions: int, promotions: int) -> None:
        """Record one dispatch's eviction split by priority class and its
        promotions.  A line loses HP protection only by eviction, so
        demotions are exactly the HP evictions — kept as a named counter
        so reports and cross-engine parity checks read one name."""
        tel.inc("evictions_hp", hp_evictions)
        tel.inc("evictions_lp", evictions - hp_evictions)
        tel.inc("hp_promotions", promotions)
        tel.inc("hp_demotions", hp_evictions)

    def _lockstep(self, lanes: NDArray[np.int64], active: list[int],
                  tags: NDArray[np.int64], u: NDArray[np.float64] | None,
                  rep: NDArray[np.bool_] | None, cost: NDArray[np.int64] | None,
                  extra: NDArray[np.int64] | None,
                  core: NDArray[np.int64] | None) -> NDArray[np.bool_]:
        assert u is not None
        ways = self.ways
        threshold = self.hp_threshold
        pools = self.pools
        tag = self._tag.reshape(-1, ways)[lanes]
        # Slot keys: priority bit over last-use time (PRIO_SHIFT).
        key = self._ts.reshape(-1, ways)[lanes]
        key |= (self._owner.reshape(-1, ways)[lanes] >= 0).astype(
            np.int64) << PRIO_SHIFT
        size = self._size[lanes]
        # HP lines per (lane, pool).  With one pool a lane's row is its
        # HP count; with several the count is the row's sum, taken where
        # a victim class is chosen.
        by_pool = self._hp_by_pool.reshape(-1, pools)[lanes]
        pool_flat = by_pool.reshape(-1)
        tag_flat = tag.reshape(-1)
        key_flat = key.reshape(-1)
        owner_flat: NDArray[np.int64] | None = None
        if pools > 1:
            # Each access's flat index into ``pool_flat``: its lane's row
            # plus its pool, the issuing core (a core-less caller is core
            # 0).  A step's accesses are lanes 0 up, so an access's lane
            # is its offset within its step.
            at_pool = np.arange(len(tags), dtype=np.int64)
            at_pool -= np.repeat(np.cumsum(active) - active, active)
            at_pool *= pools
            if core is not None:
                at_pool += core
            # Working owners hold the flat pool index of every line's
            # pool, low-priority lines included (never charged); the
            # pool and -1 are restored on store.
            rows = np.arange(len(lanes), dtype=np.int64)[:, None] * pools
            owner = np.maximum(self._owner.reshape(-1, ways)[lanes], 0)
            owner += rows
            owner_flat = owner.reshape(-1)
        # The HP count the access's pool must stay under for the fill to
        # promote: the pool's quota for a candidate (the 1/P draw and,
        # when measured, the L1I miss count), 0 otherwise.
        eligible = u < 1.0 / self.prob_inv
        if cost is not None:
            eligible &= cost >= self.min_l1_misses
        limit = (np.where(eligible, self._quota[core], 0)
                 if pools > 1 and core is not None
                 else eligible * self._quota_list[0])
        count = None
        if extra is not None:
            count = LaneHits(self, lanes)
        clock = int(self._clock[0])
        promotions = evictions = 0
        hits = np.empty(len(tags), dtype=bool)
        lo = 0
        for now, n in enumerate(active, clock):
            hi = lo + n
            t = tags[lo:hi]
            slots, hit = lookup(tag, t)
            hits[lo:hi] = hit
            key_flat[slots] = (key_flat[slots] & _PRIO_BIT) | now  # refresh recency
            if count is not None:
                count.hit(slots, extra[lo:hi][hit])
            miss = np.flatnonzero(~hit)
            if len(miss):
                slot = size[miss]
                cold = slot < ways
                full = miss[~cold]
                if len(full):
                    first = full * pools if pools > 1 else full
                    hp = pool_flat[first]
                    for p in range(1, pools):  # flat gathers beat a row sum
                        hp += pool_flat[first + p]
                    want = (hp >= threshold).astype(np.int64) << PRIO_SHIFT
                    slot[~cold] = (key[full] ^ want[:, None]).argmin(axis=1)
                idx = miss * ways + slot
                # 1 where an HP line is evicted (empty slots have key 0);
                # its pool loses it, every other victim's pool loses 0.
                evicted = key_flat[idx] >> PRIO_SHIFT
                evictions += int(np.count_nonzero(evicted))
                if owner_flat is None:  # one pool: a lane's row is its slot
                    at = miss
                    held = pool_flat[at] - evicted
                else:
                    at = at_pool[lo:hi][miss]
                    pool_flat[owner_flat[idx]] -= evicted
                    owner_flat[idx] = at
                    held = pool_flat[at]
                chosen = held < limit[lo:hi][miss]
                pool_flat[at] = held + chosen
                promotions += int(np.count_nonzero(chosen))
                tag_flat[idx] = t[miss]
                key_flat[idx] = (chosen.astype(np.int64) << PRIO_SHIFT) | now
                size[miss] += cold
                if count is not None:
                    count.fill(idx, ~cold, extra[lo:hi][miss])
            lo = hi
        self._clock[0] = clock + len(active)
        self._tag.reshape(-1, ways)[lanes] = tag
        self._ts.reshape(-1, ways)[lanes] = key & (_PRIO_BIT - 1)
        self._size[lanes] = size
        prio = key >> PRIO_SHIFT
        self._hp_by_pool.reshape(-1, pools)[lanes] = by_pool
        if owner_flat is None:
            self._hp[lanes] = pool_flat
            self._owner.reshape(-1, ways)[lanes] = prio - 1  # pool 0 or -1
        else:
            self._hp[lanes] = by_pool.sum(axis=1)
            self._owner.reshape(-1, ways)[lanes] = np.where(
                prio, owner - rows, -1)
        self._stats[STAT_HP_PROMOTIONS] += promotions
        self._stats[STAT_HP_EVICTIONS] += evictions
        tel = self._tel
        if count is not None and tel is not None:
            self.count_classes(tel, count.close(), evictions, promotions)
        return hits

    def _recency(self, set_index: int,
                 *arrays: NDArray[np.int64]) -> tuple[int, list[list[int]]]:
        """One set's first slot and, for each of ``arrays``, its filled
        slots in recency order (LRU first)."""
        base = set_index * self.ways
        end = base + int(self._size[set_index])
        stamps = self._ts[base:end].tolist()
        order = sorted(range(end - base), key=stamps.__getitem__)
        return base, [[row[w] for w in order]
                      for row in (a[base:end].tolist() for a in arrays)]

    def _store(self, set_index: int, base: int, d: dict[int, int], hp: int,
               hits_of: dict[int, int] | None) -> None:
        """Write a set back from its recency-ordered tag -> owner dict
        (see :meth:`run_set`): slots in dict order, with fresh ascending
        timestamps."""
        end = base + len(d)
        clock = int(self._clock[0])
        self._tag[base:end] = list(d)
        self._owner[base:end] = list(d.values())
        self._ts[base:end] = np.arange(clock, clock + len(d), dtype=np.int64)
        self._clock[0] = clock + len(d)
        self._size[set_index] = len(d)
        self._hp[set_index] = hp
        if hits_of is not None:
            assert self._line_hits is not None
            self._line_hits[base:end] = [hits_of[tag] for tag in d]

    def run_set(self, set_index: int, tags: list[int],
                u: Sequence[float] | None,
                rep: Sequence[bool] | None = None,
                cost: Sequence[int] | None = None,
                extra: Sequence[int] | None = None,
                core: Sequence[int] | None = None) -> list[bool]:
        assert u is not None
        tel = self._tel
        instrumented = tel is not None
        # An insertion-ordered dict mapping tag -> owner: the pool of an
        # HP line, -1 for a low-priority one.  A hit pops and reinserts,
        # so dict order is recency order (front = LRU) and the two-class
        # victim search walks it oldest-first.
        rows = [self._tag, self._owner]
        if instrumented:
            assert extra is not None and self._line_hits is not None
            rows.append(self._line_hits)
        base, (resident, owners, *counts) = self._recency(set_index, *rows)
        d = dict(zip(resident, owners))
        # Instrumented: hits since fill per line, and the victims' counts.
        hits_of = dict(zip(resident, counts[0])) if instrumented else {}
        victims: list[int] = []
        pools = self.pools
        first = set_index * pools
        by_pool = self._hp_by_pool[first:first + pools].tolist()
        quota = self._quota_list
        ways = self.ways
        threshold = self.hp_threshold
        min_cost = self.min_l1_misses
        p_hit = 1.0 / self.prob_inv
        hp = int(self._hp[set_index])
        promotions = 0
        hp_evictions = 0
        hits: list[bool] = []
        hit_append = hits.append
        pop = d.pop
        # Each access's pool: its core when there are several pools (a
        # core-less caller is core 0), else pool 0.
        pool_of = core if pools > 1 and core is not None else repeat(0)
        # Without a measured cost signal every fill is candidate-eligible
        # (the synthetic single-level assumption); with one, eligibility
        # is the measured L1I miss count reaching min_l1_misses.
        for tag, u_i, c_i, p, extra_i in zip(
                tags, u, cost or repeat(min_cost), pool_of,
                extra or repeat(0)):
            owner = pop(tag, None)
            if owner is not None:
                d[tag] = owner  # reinsert at the MRU end
                if instrumented:
                    hits_of[tag] += 1 + extra_i
                hit_append(True)
            else:
                if len(d) == ways:
                    victim = -1
                    if hp >= threshold:
                        for vt, vp in d.items():
                            if vp >= 0:
                                victim = vt
                                break
                    else:
                        for vt, vp in d.items():
                            if vp < 0:
                                victim = vt
                                break
                    if victim < 0:
                        victim = next(iter(d))  # preferred class empty: overall LRU
                    if instrumented:
                        victims.append(hits_of.pop(victim))
                    vp = pop(victim)
                    if vp >= 0:
                        hp -= 1
                        hp_evictions += 1
                        by_pool[vp] -= 1
                # The quotas sum to the threshold, so a pool under its
                # quota leaves the set under the threshold.
                if c_i >= min_cost and u_i < p_hit and by_pool[p] < quota[p]:
                    d[tag] = p
                    by_pool[p] += 1
                    hp += 1
                    promotions += 1
                else:
                    d[tag] = -1
                if instrumented:
                    hits_of[tag] = extra_i
                hit_append(False)
        self._store(set_index, base, d, hp, hits_of if instrumented else None)
        if promotions or hp_evictions:
            self._hp_by_pool[first:first + pools] = by_pool
            self._stats[STAT_HP_PROMOTIONS] += promotions
            self._stats[STAT_HP_EVICTIONS] += hp_evictions
        if tel is not None:
            record_lifetimes(tel, hits.count(False), victims)
            self.count_classes(tel, len(victims), hp_evictions, promotions)
        return hits

    def telemetry_finalize(self) -> None:
        super().telemetry_finalize()
        tel = self._tel
        if tel is None:
            return
        tel.observe_many("hp_set_occupancy", self._hp.tolist())
        tel.inc("hp_lines_final", int(self._hp.sum()))

    def set_contents(self, set_index: int) -> list[tuple[int, int]]:
        """(tag, priority) pairs in recency order (LRU first) — for tests."""
        _, (resident, owners) = self._recency(set_index, self._tag,
                                              self._owner)
        return [(tag, int(p >= 0)) for tag, p in zip(resident, owners)]

    def extra_stats(self) -> dict[str, Any]:
        stats = {
            "hp_threshold": self.hp_threshold,
            "prob_inv": self.prob_inv,
            "min_l1_misses": self.min_l1_misses,
            "hp_promotions": int(self._stats[STAT_HP_PROMOTIONS]),
            "hp_evictions": int(self._stats[STAT_HP_EVICTIONS]),
            "hp_lines_final": int(self._hp.sum()),
        }
        if self.hp_budget == "partitioned":
            stats["hp_budget"] = self.hp_budget
            stats["hp_lines_final_by_core"] = (
                self._hp_by_pool.reshape(self.num_sets, self.pools)
                .sum(axis=0).tolist())
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
