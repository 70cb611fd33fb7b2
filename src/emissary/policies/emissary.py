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

The batched kernel keeps flat per-set arrays, named like the compiled
backend's: ``_tag``, ``_ts`` (last-use time from a kernel clock),
``_prio`` and ``_size`` per slot or set, ``_hp`` (HP lines per set) and,
for the partitioned budget, ``_owner`` (core of each HP line) and
``_hp_by_core``.  A lockstep step (see :mod:`emissary.policies.base`)
stamps every hit slot with the step's time and picks every full set's
victim with one ``argmin`` over slot keys that put the priority bit
above the timestamp (:data:`PRIO_SHIFT`), flipped for sets whose
preferred class is HP.  The scalar loop that finishes long sets reads a
set into an insertion-ordered tag -> priority dict (recency order,
front = LRU), walks it for the two-class victim, and writes it back with
fresh ascending timestamps.

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
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from emissary.policies.base import LaneHits, NaivePolicy, PolicyKernel, lookup

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
        lines = num_sets * ways
        #: Resident tags, ``ways`` slots per set; -1 = empty.  A line's
        #: slot carries no meaning: victims are chosen by recency.
        self._tag = np.full(lines, -1, dtype=np.int64)
        #: Last-use time per slot (unique within a set; 0 = empty) and
        #: the ``_clock`` the next use gets.
        self._ts = np.zeros(lines, dtype=np.int64)
        self._clock = 1
        #: Priority bit per slot.
        self._prio = np.zeros(lines, dtype=np.int64)
        #: Filled slots and resident HP lines per set.
        self._size = np.zeros(num_sets, dtype=np.int64)
        self._hp = np.zeros(num_sets, dtype=np.int64)
        self.hp_promotions = 0
        self.hp_evictions = 0
        self._partitioned = hp_budget == "partitioned"
        if self._partitioned:
            # Partitioned candidacy needs the issuing core; priority bits
            # stay 0/1 (victim search and all invariants are unchanged) —
            # ownership lives in a parallel per-slot core array.
            self.consumes_core = True
            self._quota = np.asarray(core_quotas(hp_threshold, num_cores),
                                     dtype=np.int64)
            #: Owning core per slot; -1 marks low-priority lines.
            self._owner = np.full(lines, -1, dtype=np.int64)
            #: HP lines per (set, core), ``num_cores`` slots per set.
            self._hp_by_core = np.zeros(num_sets * num_cores, dtype=np.int64)
            # The shared-mode hot loop stays untouched; partitioned runs
            # dispatch through their own twin.
            self.run_set = self._run_set_part  # type: ignore[method-assign]

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        super().attach_telemetry(telemetry)
        if self._partitioned:
            self.run_set = self._run_set_part_tel  # type: ignore[method-assign]
        self._line_hits = np.zeros(self.num_sets * self.ways, dtype=np.int64)

    def _lockstep(self, lanes: NDArray[np.int64], active: list[int],
                  tags: NDArray[np.int64], u: NDArray[np.float64] | None,
                  rep: NDArray[np.bool_] | None, cost: NDArray[np.int64] | None,
                  extra: NDArray[np.int64] | None,
                  core: NDArray[np.int64] | None) -> NDArray[np.bool_]:
        assert u is not None
        ways = self.ways
        threshold = self.hp_threshold
        tag = self._tag.reshape(-1, ways)[lanes]
        # Slot keys: priority bit over last-use time (PRIO_SHIFT).
        key = self._ts.reshape(-1, ways)[lanes]
        key |= self._prio.reshape(-1, ways)[lanes] << PRIO_SHIFT
        size = self._size[lanes]
        hp = self._hp[lanes]
        tag_flat = tag.reshape(-1)
        key_flat = key.reshape(-1)
        # Candidacy before the budget check: the 1/P draw and, when
        # measured, the L1I miss count.
        eligible = u < 1.0 / self.prob_inv
        if cost is not None:
            eligible &= cost >= self.min_l1_misses
        partitioned = self._partitioned
        if partitioned:
            quota = self._quota
            by_core = self._hp_by_core.reshape(-1, self.num_cores)[lanes]
            owner = self._owner.reshape(-1, ways)[lanes]
            owner_flat = owner.reshape(-1)
            if core is None:
                core = np.zeros(len(tags), dtype=np.int64)
        count = None
        if extra is not None:
            count = LaneHits(self, lanes)
        clock = self._clock
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
                    want = (hp[full] >= threshold).astype(np.int64) << PRIO_SHIFT
                    slot[~cold] = (key[full] ^ want[:, None]).argmin(axis=1)
                idx = miss * ways + slot
                # 1 where an HP line is evicted (empty slots have key 0).
                evicted = key_flat[idx] >> PRIO_SHIFT
                evictions += int(np.count_nonzero(evicted))
                hp_left = hp[miss] - evicted
                chosen = eligible[lo:hi][miss]
                if partitioned:
                    # The issuing core's sub-budget gates candidacy; the
                    # quotas sum to the threshold, so hp < threshold holds.
                    cores = core[lo:hi][miss]
                    gone = evicted.astype(np.bool_)
                    by_core[miss[gone], owner_flat[idx[gone]]] -= 1
                    chosen &= by_core[miss, cores] < quota[cores]
                    by_core[miss[chosen], cores[chosen]] += 1
                    owner_flat[idx] = np.where(chosen, cores, -1)
                else:
                    chosen &= hp_left < threshold
                hp[miss] = hp_left + chosen
                promotions += int(np.count_nonzero(chosen))
                tag_flat[idx] = t[miss]
                key_flat[idx] = (chosen.astype(np.int64) << PRIO_SHIFT) | now
                size[miss] += cold
                if count is not None:
                    count.fill(idx, ~cold, extra[lo:hi][miss])
            lo = hi
        self._clock = clock + len(active)
        self._tag.reshape(-1, ways)[lanes] = tag
        self._ts.reshape(-1, ways)[lanes] = key & (_PRIO_BIT - 1)
        self._prio.reshape(-1, ways)[lanes] = key >> PRIO_SHIFT
        self._size[lanes] = size
        self._hp[lanes] = hp
        if partitioned:
            self._hp_by_core.reshape(-1, self.num_cores)[lanes] = by_core
            self._owner.reshape(-1, ways)[lanes] = owner
        self.hp_promotions += promotions
        self.hp_evictions += evictions
        tel = self._tel
        if count is not None and tel is not None:
            lp_evictions = count.close() - evictions
            tel.inc("evictions_hp", evictions)
            tel.inc("evictions_lp", lp_evictions)
            tel.inc("hp_promotions", promotions)
            tel.inc("hp_demotions", evictions)
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
               owner: dict[int, int] | None = None,
               hits_of: dict[int, int] | None = None) -> None:
        """Write a set back from its recency-ordered tag -> priority
        dict: slots in dict order, with fresh ascending timestamps."""
        end = base + len(d)
        self._tag[base:end] = list(d)
        self._prio[base:end] = list(d.values())
        self._ts[base:end] = np.arange(self._clock, self._clock + len(d),
                                       dtype=np.int64)
        self._clock += len(d)
        self._size[set_index] = len(d)
        self._hp[set_index] = hp
        if owner is not None:
            self._owner[base:end] = [owner.get(tag, -1) for tag in d]
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
        # An insertion-ordered dict mapping tag -> priority bit: a hit
        # pops and reinserts, so dict order is recency order (front =
        # LRU) and the two-class victim search walks it oldest-first.
        base, (resident, prios) = self._recency(set_index, self._tag,
                                                self._prio)
        d = dict(zip(resident, prios))
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
        self._store(set_index, base, d, hp)
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
        assert self._line_hits is not None
        base, (resident, prios, counts) = self._recency(
            set_index, self._tag, self._prio, self._line_hits)
        d = dict(zip(resident, prios))
        hits_of = dict(zip(resident, counts))
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
        self._store(set_index, base, d, hp, hits_of=hits_of)
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
        base, (resident, prios, owners) = self._recency(
            set_index, self._tag, self._prio, self._owner)
        d = dict(zip(resident, prios))
        owner = {tag: cr for tag, cr in zip(resident, owners) if cr >= 0}
        nc = self.num_cores
        hp_by_core = self._hp_by_core[set_index * nc:(set_index + 1) * nc].tolist()
        quota = self._quota.tolist()
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
        self._store(set_index, base, d, hp, owner=owner)
        self._hp_by_core[set_index * nc:(set_index + 1) * nc] = hp_by_core
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
        assert self._line_hits is not None
        base, (resident, prios, owners, counts) = self._recency(
            set_index, self._tag, self._prio, self._owner, self._line_hits)
        d = dict(zip(resident, prios))
        owner = {tag: cr for tag, cr in zip(resident, owners) if cr >= 0}
        hits_of = dict(zip(resident, counts))
        nc = self.num_cores
        hp_by_core = self._hp_by_core[set_index * nc:(set_index + 1) * nc].tolist()
        quota = self._quota.tolist()
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
        self._store(set_index, base, d, hp, owner=owner, hits_of=hits_of)
        self._hp_by_core[set_index * nc:(set_index + 1) * nc] = hp_by_core
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
        super().telemetry_finalize()
        tel = self._tel
        if tel is None:
            return
        tel.observe_many("hp_set_occupancy", self._hp.tolist())
        tel.inc("hp_lines_final", int(self._hp.sum()))

    def set_contents(self, set_index: int) -> list[tuple]:
        """(tag, priority) pairs in recency order (LRU first) — for tests."""
        _, (resident, prios) = self._recency(set_index, self._tag, self._prio)
        return list(zip(resident, prios))

    def extra_stats(self) -> dict[str, Any]:
        stats = {
            "hp_threshold": self.hp_threshold,
            "prob_inv": self.prob_inv,
            "min_l1_misses": self.min_l1_misses,
            "hp_promotions": self.hp_promotions,
            "hp_evictions": self.hp_evictions,
            "hp_lines_final": int(self._hp.sum()),
        }
        if self._partitioned:
            stats["hp_budget"] = self.hp_budget
            stats["hp_lines_final_by_core"] = (
                self._hp_by_core.reshape(self.num_sets, self.num_cores)
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
