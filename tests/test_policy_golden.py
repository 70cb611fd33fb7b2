"""Hand-derived golden traces for SRRIP, Random and EMISSARY.

The differential suites prove that the implementations of each policy
agree with each other; these tables pin down what they must agree *on*.
Each trace runs on a one-set cache (the partitioned one behind two
private L1Is) and is followed by hand.  Every access is written as
``(line, outcome, ...)``:

* ``HIT`` — the line is resident;
* ``FILL`` — a miss into a set that still has a free way;
* a line number — a miss into a full set, evicting that line.

Random and EMISSARY rows also carry the access's uniform draw, and
EMISSARY fills their priority bit (``HP`` or ``LP``).  The engines'
seeded generator is replaced by one that hands out the table's draws in
trace order, so every row's draw is the one written next to it.

Each table runs on the batched Python engine at the default lane floor
(the per-set scalar loop) and at a floor of 1 (every step in lockstep),
the compiled backend and the per-access reference engine.  Victims are
checked by probing the victim line just before and just after its
eviction; priority bits by the resident HP lines and promotions after
every prefix.

Where this model differs from the reference C++ (SNIPPETS.md), on
purpose:

* ChampSim's EMISSARY keeps one ``hp_count`` per cache, not per set, so
  one set's protected lines use up every other set's budget.  Here the
  count, like the paper's threshold, is per set (and per core within a
  set when the budget is partitioned).
* ChampSim's ``find_victim`` starts from ``victim_index = 0`` and
  returns way 0 when the preferred class is empty.  Here the victim is
  then the set's overall LRU line (``EMPTY_CLASS_W2``).
* Both reference implementations seed the C library generator from
  ``time(0)`` (zsim when the policy is built, ChampSim on every update),
  so runs cannot be reproduced.  Here one seeded generator draws every
  uniform up front, indexed by trace position.
"""

import numpy as np
import pytest

import emissary.policies.base as kernel_base
from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyReferenceEngine)
from emissary.policies import make_kernel

HIT = "hit"
FILL = "fill"
HP, LP = 1, 0
#: The draw of a row whose uniform is never read (hits, non-random fills).
ANY = 0.9

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

ENGINES = ["batched", "lockstep",
           pytest.param("compiled", marks=[
               pytest.mark.needs_compiled,
               pytest.mark.skipif(not COMPILED_AVAILABLE,
                                  reason="no compiled kernel provider")]),
           "reference"]

A, B, C, D, E, F, G = 10, 11, 12, 13, 14, 15, 16

SRRIP = PolicySpec("srrip")
RANDOM = PolicySpec("random")
EMISSARY = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 2})
EMISSARY_LRU = PolicySpec("emissary", {"hp_threshold": 0, "prob_inv": 2})
PARTITIONED = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 2,
                                      "hp_budget": "partitioned"})

#: SRRIP, W=4, one set: ``(line, outcome)``.  Ways hold ``line:RRPV``.
#: A fill inserts at 2 (0 when the next access re-references it), a hit
#: sets 0, and a miss in a full set evicts the lowest way at 3, after
#: ageing every way by 3 - max when none is at 3.
#:    4 D fills                        -> [A2 B2 C2 D2]
#:    5 A hits                         -> [A0 B2 C2 D2]
#:    6 E: age +1 [A1 B3 C3 D3], evict B (way 1) -> [A1 E2 C3 D3]
#:    7 B evicts C (way 2, at 3)       -> [A1 E2 B2 D3]
#:    8 E hits; 9 C evicts D           -> [A1 E0 B2 C2]
#:   10 D: age +1 [A2 E1 B3 C3], evict B -> [A2 E1 D2 C3]
#:   11 A hits; 12 B evicts C          -> [A0 E1 D2 B2]
#:   13 F: age +1 [A1 E2 D3 B3], evict D -> [A1 E2 F2 B3]
#:   14 G evicts B and, re-referenced by 15, inserts at 0 -> [A1 E2 F2 G0]
#:   16 C: age +1 [A2 E3 F3 G1], evict E -> [A2 C2 F3 G1]
#:   17 E evicts F; 18 A hits          -> [A0 C2 E2 G1]
#:   19 D: age +1 [A1 C3 E3 G2], evict C -> [A1 D2 E3 G2]
#:   20 G hits; 21 B evicts E          -> [A1 D2 B2 G0]
#:   22 E: age +1 [A2 D3 B3 G1], evict D -> [A2 E2 B3 G1]
SRRIP_W4 = [(A, FILL), (B, FILL), (C, FILL), (D, FILL), (A, HIT), (E, B),
            (B, C), (E, HIT), (C, D), (D, B), (A, HIT), (B, C), (F, D),
            (G, B), (G, HIT), (C, E), (E, F), (A, HIT), (D, C), (G, HIT),
            (B, E), (E, D)]
SRRIP_FINAL_RRPV = [2, 2, 3, 1]  # ways 0..3 hold A, E, B, G

#: Random, W=4, one set: ``(line, outcome, u)``.  The victim is way
#: ``int(u * 4)``; ways fill 0, 1, 2, 3.  Rows 13, 14 and 17 sit on and
#: just below a way boundary (0.25 * 4 is exactly 1).
#:    4 D fills -> [A B C D];  5 E: way 1 -> [A E C D]
#:    7 B: way 3 -> [A E C B];  8 D: way 0 -> [D E C B]
#:   10 A: way 2 -> [D E A B]; 13 C: way 1 -> [D C A B]
#:   14 E: way 2 -> [D C E B]; 16 A: way 3 -> [D C E A]
#:   17 B: way 0 -> [B C E A]; 20 D: way 2 -> [B C D A]
RANDOM_W4 = [(A, FILL, ANY), (B, FILL, ANY), (C, FILL, ANY), (D, FILL, ANY),
             (E, B, 0.30), (A, HIT, ANY), (B, D, 0.99), (D, A, 0.0),
             (C, HIT, ANY), (A, C, 0.55), (E, HIT, ANY), (B, HIT, ANY),
             (C, E, 0.25), (E, A, 0.7499), (D, HIT, ANY), (A, B, 0.75),
             (B, D, 0.2499), (C, HIT, ANY), (A, HIT, ANY), (D, E, 0.5)]

#: EMISSARY, W=4, one set, hp_threshold=2, prob_inv=2:
#: ``(line, outcome, u, priority)``.  A fill is HP iff ``u < 1/2`` and
#: the set then holds fewer than 2 HP lines.  The victim is the LRU LP
#: line while fewer than 2 HP lines are resident, else the LRU HP line.
#: Recency stacks are LRU -> MRU, ``*`` marks HP.
#:    5 A hits                          -> [B* C D A]
#:    6 E (1 HP): LRU LP is C           -> [B* D A E]
#:    7 F evicts D and is promoted      -> [B* A E F*]
#:    8 B hits                          -> [A E F* B*]
#:    9 G (2 HP): LRU HP is F; G takes the freed budget -> [A E B* G*]
#:   10 A hits; 11 C evicts B, promoted -> [E G* A C*]
#:   12 D evicts G, u >= 1/2: LP        -> [E A C* D]
#:   13 E hits; 14 F (1 HP) evicts A    -> [C* D E F]
#:   15 G evicts D, promoted            -> [C* E F G*]
#:   16 B (2 HP) evicts C, promoted     -> [E F G* B*]
#:   17 E hits; 18 C evicts G, LP       -> [F B* E C]
#:   19 F hits                          -> [B* E C F]
EMISSARY_W4 = [(A, FILL, 0.9, LP), (B, FILL, 0.1, HP), (C, FILL, 0.9, LP),
               (D, FILL, 0.9, LP), (A, HIT, ANY, None), (E, C, 0.9, LP),
               (F, D, 0.2, HP), (B, HIT, ANY, None), (G, F, 0.1, HP),
               (A, HIT, ANY, None), (C, B, 0.3, HP), (D, G, 0.9, LP),
               (E, HIT, ANY, None), (F, A, 0.9, LP), (G, D, 0.4, HP),
               (B, C, 0.45, HP), (E, HIT, ANY, None), (C, G, 0.9, LP),
               (F, HIT, ANY, None)]

#: EMISSARY, W=2, one set, hp_threshold=0: the set is always "saturated"
#: (0 >= 0 HP lines) but holds no HP line, so the preferred class is
#: empty and the victim is the overall LRU line.  Rows 4 and 6 evict
#: way 1; ChampSim's fallback would evict way 0 (A, then C).
#:    3 A hits -> [B A];  4 C evicts B (way 1) -> [A C]
#:    5 A hits -> [C A];  6 B evicts C (way 1) -> [A B]
EMPTY_CLASS_W2 = [(A, FILL, 0.1, LP), (B, FILL, 0.1, LP), (A, HIT, ANY, None),
                  (C, B, 0.1, LP), (A, HIT, ANY, None), (B, C, 0.1, LP),
                  (A, HIT, ANY, None)]

#: Partitioned EMISSARY, W=4, one L2 set, hp_threshold=2 split into a
#: quota of 1 HP line per core, prob_inv=2, behind one 1-line L1I per
#: core (no core touches a line twice in a row, so every access reaches
#: the L2 in trace order): ``(core, line, outcome, u, priority)``.  The
#: victim class still follows the set's total HP count.  ``*c`` marks an
#: HP line owned by core c.
#:    1 A (core 0) promoted; 3 C (core 0, u < 1/2) LP: core 0 is at quota
#:    4 D (core 1) promoted            -> [A*0 B C D*1]
#:    5 B hits                          -> [A*0 C D*1 B]
#:    6 E (2 HP): evicts A, LP (core 1 at quota) -> [C D*1 B E]
#:    7 F (1 HP): evicts C, promoted    -> [D*1 B E F*0]
#:    8 B hits; 9 A (2 HP) evicts D, LP (core 0 at quota) -> [E F*0 B A]
#:   10 C (1 HP) evicts E, promoted     -> [F*0 B A C*1]
#:   11 B hits; 12 D (2 HP) evicts F, LP -> [A C*1 B D]
#:   13 E (1 HP) evicts A, promoted     -> [C*1 B D E*0]
#:   14 A (2 HP) evicts C, promoted     -> [B D E*0 A*1]
#:   15 D hits; 16 F (2 HP) evicts E; u < 1/2 but core 1 is at quota,
#:      where a shared budget (1 HP line left) would promote -> [B A*1 D F]
#:   17 C (1 HP) evicts B, LP           -> [A*1 D F C]
PARTITIONED_W4 = [(0, A, FILL, 0.1, HP), (1, B, FILL, 0.9, LP),
                  (0, C, FILL, 0.2, LP), (1, D, FILL, 0.3, HP),
                  (0, B, HIT, ANY, None), (1, E, A, 0.1, LP),
                  (0, F, C, 0.1, HP), (1, B, HIT, ANY, None),
                  (0, A, D, 0.4, LP), (1, C, E, 0.45, HP),
                  (0, B, HIT, ANY, None), (1, D, F, 0.9, LP),
                  (0, E, A, 0.2, HP), (1, A, C, 0.1, HP),
                  (0, D, HIT, ANY, None), (1, F, E, 0.3, LP),
                  (0, C, B, 0.9, LP)]

#: (name, spec, ways, table) of the single-level tables.  SRRIP rows
#: have no draw: its column is filled in as ``ANY``.
FLAT_CASES = [
    ("srrip_w4", SRRIP, 4, [(line, out, ANY) for line, out in SRRIP_W4]),
    ("random_w4", RANDOM, 4, RANDOM_W4),
    ("emissary_w4", EMISSARY, 4, EMISSARY_W4),
    ("empty_class_w2", EMISSARY_LRU, 2, EMPTY_CLASS_W2),
]
FLAT_IDS = [case[0] for case in FLAT_CASES]
PROBE_U = 0.99  # a probe never wins HP candidacy


class _Draws:
    """Stands in for ``np.random.default_rng(seed)``: hands out the
    table's uniforms in order, as arrays or one at a time."""

    def __init__(self, values):
        self._values = list(values)
        self._pos = 0

    def random(self, size=None):
        if size is None:
            self._pos += 1
            return self._values[self._pos - 1]
        out = np.array(self._values[self._pos:self._pos + size],
                       dtype=np.float64)
        assert len(out) == size, "the table ran out of draws"
        self._pos += size
        return out


@pytest.fixture
def draws(monkeypatch):
    """``draws(values)`` makes every engine built afterwards draw
    ``values`` in trace order."""
    def install(values):
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: _Draws(values))
    return install


@pytest.fixture(params=ENGINES)
def kind(request, monkeypatch):
    if request.param == "lockstep":
        monkeypatch.setattr(kernel_base, "LANE_FLOOR", 1)
    return request.param


def _addresses(lines):
    return np.array(lines, dtype=np.uint64) * np.uint64(64)


def _run_flat(kind, spec, ways, lines):
    """Result of ``lines`` on a one-set cache on engine ``kind``."""
    config = CacheConfig(num_sets=1, ways=ways)
    if kind == "reference":
        engine = ReferenceEngine(config)
    else:
        engine = BatchedEngine(config, kernel_backend="compiled"
                               if kind == "compiled" else "batched")
    return engine.run(_addresses(lines), spec)


def _expected_hits(outcomes):
    return [outcome == HIT for outcome in outcomes]


def _hp_trail(rows):
    """(resident HP lines, promotions) after each prefix of ``rows``,
    each row ``(line, outcome, priority)``."""
    resident, promotions, trail = {}, 0, []
    for line, outcome, priority in rows:
        if outcome != HIT:
            if outcome != FILL:
                del resident[outcome]
            resident[line] = priority
            promotions += priority
        trail.append((sum(resident.values()), promotions))
    return trail


@pytest.mark.parametrize("name,spec,ways,table", FLAT_CASES, ids=FLAT_IDS)
def test_flat_hit_vector(kind, draws, name, spec, ways, table):
    draws([row[2] for row in table])
    result = _run_flat(kind, spec, ways, [row[0] for row in table])
    assert result.hits.tolist() == _expected_hits(row[1] for row in table)


@pytest.mark.parametrize("name,spec,ways,table", FLAT_CASES, ids=FLAT_IDS)
def test_flat_victims(kind, draws, name, spec, ways, table):
    """The victim is resident just before its eviction and gone right
    after: a probe access to it hits, then misses."""
    lines = [row[0] for row in table]
    us = [row[2] for row in table]
    for i, row in enumerate(table):
        victim = row[1]
        if victim in (HIT, FILL):
            continue
        draws(us[:i] + [PROBE_U])
        before = _run_flat(kind, spec, ways, lines[:i] + [victim])
        draws(us[:i + 1] + [PROBE_U])
        after = _run_flat(kind, spec, ways, lines[:i + 1] + [victim])
        assert before.hits[-1] and not after.hits[-1], (i, victim)


@pytest.mark.parametrize("name,spec,ways,table",
                         [case for case in FLAT_CASES
                          if case[1].name == "emissary"],
                         ids=["emissary_w4", "empty_class_w2"])
def test_flat_priority_bits(kind, draws, name, spec, ways, table):
    """Resident HP lines and promotions after every prefix follow the
    table's priority column; every HP eviction is counted."""
    trail = _hp_trail([(line, out, prio) for line, out, _, prio in table])
    for i, (resident_hp, promotions) in enumerate(trail):
        draws([row[2] for row in table[:i + 1]])
        stats = _run_flat(kind, spec, ways,
                          [row[0] for row in table[:i + 1]]).policy_stats
        assert (stats["hp_lines_final"], stats["hp_promotions"],
                stats["hp_evictions"]) \
            == (resident_hp, promotions, promotions - resident_hp), i


@pytest.mark.parametrize("floor", [1, kernel_base.LANE_FLOOR])
def test_srrip_final_rrpvs(monkeypatch, floor):
    """The kernel's RRPVs after the SRRIP table, way by way; the
    re-referenced fill (rows 14-15) arrives folded, with its repeat
    flag."""
    monkeypatch.setattr(kernel_base, "LANE_FLOOR", floor)
    lines = [line for line, _ in SRRIP_W4]
    edges = [i for i in range(len(lines)) if i == 0 or lines[i] != lines[i - 1]]
    rep = np.array([i + 1 < len(lines) and lines[i + 1] == lines[i]
                    for i in edges])
    kernel = make_kernel("srrip", 1, 4)
    kernel.run_sets(np.array([0]), np.array([0]), np.array([len(edges)]),
                    np.array([lines[i] for i in edges], dtype=np.uint64),
                    rep=rep)
    assert kernel.effective_rrpv(0) == SRRIP_FINAL_RRPV


# -- partitioned budget, two cores -------------------------------------------

PART_CONFIG = HierarchyConfig(l1=CacheConfig(num_sets=1, ways=1),
                              l2=CacheConfig(num_sets=1, ways=4))


def _run_partitioned(kind, rows, probe=None):
    """Hierarchy result of ``rows`` (then ``probe``, a ``(core, line)``
    access) on two cores sharing the partitioned L2."""
    accesses = [(core, line) for core, line, *_ in rows]
    if probe is not None:
        accesses.append(probe)
    cores = np.array([core for core, _ in accesses], dtype=np.int64)
    addresses = _addresses([line for _, line in accesses])
    if kind == "reference":
        engine = HierarchyReferenceEngine(PART_CONFIG)
    else:
        engine = BatchedHierarchyEngine(PART_CONFIG, kernel_backend="compiled"
                                        if kind == "compiled" else "batched")
    result = engine.run_multicore(addresses, cores, PARTITIONED, num_cores=2)
    # Every access misses its core's one-line L1I.
    assert not result.l1.hits.any()
    return result


def test_partitioned_hit_vector(kind, draws):
    draws([row[3] for row in PARTITIONED_W4])
    result = _run_partitioned(kind, PARTITIONED_W4)
    assert result.l2.hits.tolist() \
        == _expected_hits(row[2] for row in PARTITIONED_W4)


def test_partitioned_victims(kind, draws):
    us = [row[3] for row in PARTITIONED_W4]
    for i, (core, _, victim, _, _) in enumerate(PARTITIONED_W4):
        if victim in (HIT, FILL):
            continue
        # Probe from the other core, whose last access is never the
        # victim here, so the probe reaches the L2 (asserted).
        probe = (1 - core, victim)
        draws(us[:i] + [PROBE_U])
        before = _run_partitioned(kind, PARTITIONED_W4[:i], probe)
        draws(us[:i + 1] + [PROBE_U])
        after = _run_partitioned(kind, PARTITIONED_W4[:i + 1], probe)
        assert before.l2.hits[-1] and not after.l2.hits[-1], (i, victim)


def test_partitioned_priority_bits(kind, draws):
    """Per-core resident HP lines after every prefix follow the table's
    priority and core columns."""
    owners, promotions = {}, 0
    for i, (core, line, outcome, _, priority) in enumerate(PARTITIONED_W4):
        if outcome != HIT:
            owners.pop(outcome, None)
            if priority == HP:
                owners[line] = core
                promotions += 1
        draws([row[3] for row in PARTITIONED_W4[:i + 1]])
        stats = _run_partitioned(kind, PARTITIONED_W4[:i + 1]).l2.policy_stats
        by_core = [list(owners.values()).count(c) for c in (0, 1)]
        assert (stats["hp_lines_final_by_core"], stats["hp_promotions"]) \
            == (by_core, promotions), i
