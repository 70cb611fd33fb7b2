"""Hand-derived golden traces for LRU replacement.

The differential suites prove that the LRU implementations agree with
each other; these cases pin down what they must agree *on*.  Each trace
runs on a 1- or 2-set cache with ``W`` in {2, 4} ways and is followed by
hand.  Every access is written as ``(line, outcome)``:

* ``HIT`` — the line is resident;
* ``FILL`` — a miss into a set that still has a free way;
* a line number — a miss into a full set, evicting that line (the set's
  least recently used line).

The sets are ``line % num_sets`` (line-sized addresses, no offset bits).
Each docstring shows the set's recency stack LRU -> MRU after the
interesting steps.

Every table runs on the batched engine, the compiled backend,
the per-access reference engine, and the streamed engine cut at every
position; victims are checked by probing the victim line just before and
just after its eviction; and the same trace is the L1I stream of a
two-level :class:`~emissary.hierarchy.BatchedHierarchyEngine`.
Telemetry (fills, evictions, dead-on-fill lines, per-lifetime hit
histograms) is derived from the table with plain bookkeeping.
"""

import numpy as np
import pytest

from emissary.api import PolicySpec
from emissary.compiled import CompiledUnavailableError, get_kernels
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.hierarchy import BatchedHierarchyEngine, HierarchyConfig
from emissary.telemetry import Telemetry

HIT = "hit"
FILL = "fill"
LRU = PolicySpec("lru")

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

ENGINES = ["batched",
           pytest.param("compiled", marks=[
               pytest.mark.needs_compiled,
               pytest.mark.skipif(not COMPILED_AVAILABLE,
                                  reason="no compiled kernel provider")]),
           "reference", "streamed"]

A, B, C, D, E = 10, 11, 12, 13, 14

#: W=4, one set.  A re-reference at depth W-1 hits, at depth W misses.
#:   after 4 D:  [A B C D]
#:   5 A hits at depth 3 (B C D)         -> [B C D A]
#:   6 E evicts B                        -> [C D A E]
#:   7 B is at depth 4 (C D A E): evicts C -> [D A E B]
#:   8 A hits at depth 2 (E B)           -> [D E B A]
#:   9 C evicts D, 10 D evicts E         -> [B A C D]
#:  11 A hits (C D), 12 B hits at depth 3 (A C D) -> [C D A B]
#:  13 E evicts C                        -> [D A B E]
#:  14 D hits at depth 3 (A B E)         -> [A B E D]
#:  15 C is at depth 4 (D A B E): evicts A -> [B E D C]
DEPTH_W4 = [(A, FILL), (B, FILL), (C, FILL), (D, FILL), (A, HIT), (E, B),
            (B, C), (A, HIT), (C, D), (D, E), (A, HIT), (B, HIT), (E, C),
            (D, HIT), (C, A)]

#: W=4, one set.  Six B/C alternations sit inside A's and D's windows:
#: a 12-access gap, but only 3 distinct lines, so both still hit.
#:   after the alternation: [A D B C]
#:  15 A hits (D B C), 16 D hits (B C A) -> [B C A D]
#:  17 E evicts B -> [C A D E];  18 B evicts C -> [A D E B]
ALTERNATION_W4 = ([(A, FILL), (D, FILL), (B, FILL), (C, FILL)]
                  + [(B, HIT), (C, HIT)] * 5
                  + [(A, HIT), (D, HIT), (E, B), (B, C)])

#: W=2, one set.  The same alternation pattern at W=2: the A/B
#: alternation keeps both resident, but once B/C alternate, A's window
#: holds W distinct lines and A misses.
#:   after 8 B: [A B];  9 C evicts A -> [B C]
#:  10-13 alternate B/C -> [B C]
#:  14 A: B and C since its last use (depth 2 = W), evicts B -> [C A]
#:  15 C hits -> [A C];  16 B evicts A -> [C B]
ALTERNATION_W2 = ([(A, FILL), (B, FILL)] + [(A, HIT), (B, HIT)] * 3
                  + [(C, A)] + [(B, HIT), (C, HIT)] * 2
                  + [(A, B), (C, HIT), (B, A)])

#: W=2, two sets (even lines in set 0, odd lines in set 1).  Set-1
#: traffic never ages set 0, and back-to-back repeats (7 A, 13 E) are
#: MRU hits.
#:   set 1: 2 B, 3 D fill; 4 F evicts B -> [D F]; 5 G evicts D -> [F G]
#:   set 0: 6 A hits although 4 set-1 lines came since; 8 C fills -> [A C]
#:   set 1: 9 B evicts F -> [G B];   set 0: 10 A hits -> [C A]
#:   set 1: 11 G hits -> [B G];      set 0: 12 E evicts C -> [A E]
#:   set 0: 14 C evicts A -> [E C];  set 1: 15 B hits -> [G B]
#:   set 0: 16 A evicts E -> [C A];  set 1: 17 D evicts G -> [B D]
S0_A, S0_C, S0_E = 0, 2, 4
S1_B, S1_D, S1_F, S1_G = 1, 3, 5, 7
TWO_SETS_W2 = [(S0_A, FILL), (S1_B, FILL), (S1_D, FILL), (S1_F, S1_B),
               (S1_G, S1_D), (S0_A, HIT), (S0_A, HIT), (S0_C, FILL),
               (S1_B, S1_F), (S0_A, HIT), (S1_G, HIT), (S0_E, S0_C),
               (S0_E, HIT), (S0_C, S0_A), (S1_B, HIT), (S0_A, S0_E),
               (S1_D, S1_G)]

#: (name, num_sets, ways, table)
CASES = [
    ("depth_w4", 1, 4, DEPTH_W4),
    ("alternation_w4", 1, 4, ALTERNATION_W4),
    ("alternation_w2", 1, 2, ALTERNATION_W2),
    ("two_sets_w2", 2, 2, TWO_SETS_W2),
]
CASE_IDS = [case[0] for case in CASES]


def _config(num_sets, ways):
    return CacheConfig(num_sets=num_sets, ways=ways)


def _addresses(lines):
    return np.array(lines, dtype=np.uint64) * np.uint64(64)


def _lines(table):
    return [line for line, _ in table]


def _expected_hits(table):
    return [outcome == HIT for _, outcome in table]


def _run(kind, config, lines, telemetry=None, cut=None):
    """Hit vector of ``lines`` on one engine; ``cut`` splits the stream."""
    addresses = _addresses(lines)
    if kind == "reference":
        return ReferenceEngine(config, telemetry=telemetry).run(
            addresses, LRU).hits.tolist()
    backend = "compiled" if kind == "compiled" else "batched"
    engine = BatchedEngine(config, telemetry=telemetry,
                           kernel_backend=backend)
    if kind == "streamed":
        cut = len(lines) // 2 if cut is None else cut
        return engine.simulate_stream(
            [addresses[:cut], addresses[cut:]], LRU).hits.tolist()
    return engine.run(addresses, LRU).hits.tolist()


def _expected_telemetry(table):
    """Counters and histograms implied by the table: each miss starts a
    lifetime at 0 hits, each hit adds one, each victim's lifetime ends."""
    hits_since_fill = {}
    evicted = []
    for line, outcome in table:
        if outcome == HIT:
            hits_since_fill[line] += 1
            continue
        if outcome != FILL:
            evicted.append(hits_since_fill.pop(outcome))
        hits_since_fill[line] = 0
    fills = sum(outcome != HIT for _, outcome in table)
    counters = {"fills": fills, "evictions": len(evicted),
                "dead_on_fill": evicted.count(0)}
    histograms = {}
    for name, values in (("line_hits", evicted),
                         ("resident_line_hits", hits_since_fill.values())):
        hist = {}
        for value in values:
            hist[value] = hist.get(value, 0) + 1
        if hist:
            histograms[name] = hist
    return counters, histograms


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("name,num_sets,ways,table", CASES, ids=CASE_IDS)
def test_hit_vector(kind, name, num_sets, ways, table):
    assert _run(kind, _config(num_sets, ways), _lines(table)) \
        == _expected_hits(table)


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("name,num_sets,ways,table", CASES, ids=CASE_IDS)
def test_victims(kind, name, num_sets, ways, table):
    """The victim is resident just before its eviction and gone right
    after: a probe access to it hits, then misses."""
    config = _config(num_sets, ways)
    lines = _lines(table)
    for i, (_, outcome) in enumerate(table):
        if outcome in (HIT, FILL):
            continue
        before = _run(kind, config, lines[:i] + [outcome])
        after = _run(kind, config, lines[:i + 1] + [outcome])
        assert before[-1] and not after[-1], (i, outcome)


@pytest.mark.parametrize("name,num_sets,ways,table", CASES, ids=CASE_IDS)
def test_stream_cut_anywhere(name, num_sets, ways, table):
    """Cuts inside a reuse window (e.g. mid-alternation) change nothing."""
    config = _config(num_sets, ways)
    lines = _lines(table)
    for cut in range(1, len(lines)):
        assert _run("streamed", config, lines, cut=cut) \
            == _expected_hits(table), cut
    one_per_chunk = BatchedEngine(config).simulate_stream(
        [_addresses([line]) for line in lines], LRU)
    assert one_per_chunk.hits.tolist() == _expected_hits(table)


@pytest.mark.parametrize("kind", ["batched", "reference", "streamed"])
@pytest.mark.parametrize("name,num_sets,ways,table", CASES, ids=CASE_IDS)
def test_telemetry(kind, name, num_sets, ways, table):
    tel = Telemetry()
    _run(kind, _config(num_sets, ways), _lines(table), telemetry=tel)
    counters, histograms = _expected_telemetry(table)
    assert {k: tel.counters[k] for k in counters} == counters
    assert {k: tel.histograms.get(k, {}) for k in
            ("line_hits", "resident_line_hits")} \
        == {k: histograms.get(k, {}) for k in
            ("line_hits", "resident_line_hits")}


@pytest.mark.parametrize("stream", [False, True], ids=["run", "stream"])
@pytest.mark.parametrize("name,num_sets,ways,table", CASES, ids=CASE_IDS)
def test_as_hierarchy_l1i(stream, name, num_sets, ways, table):
    """The table is the L1I's outcome in front of an L2, and the L2 sees
    exactly the L1I misses."""
    config = HierarchyConfig(l1=_config(num_sets, ways),
                             l2=CacheConfig(num_sets=2, ways=2))
    addresses = _addresses(_lines(table))
    engine = BatchedHierarchyEngine(config)
    if stream:
        cut = len(addresses) // 2
        result = engine.simulate_stream([addresses[:cut], addresses[cut:]],
                                        LRU)
    else:
        result = engine.run(addresses, LRU)
    assert result.l1.hits.tolist() == _expected_hits(table)
    assert result.l2.n == sum(outcome != HIT for _, outcome in table)
