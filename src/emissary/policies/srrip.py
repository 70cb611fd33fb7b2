"""Static RRIP (SRRIP-HP) replacement with 2-bit re-reference predictions.

Lines are inserted with RRPV = max - 1 ("long re-reference"), promoted to
RRPV = 0 on hit, and the victim is the lowest-index way whose RRPV equals
max; if none exists all RRPVs in the set age by one until one does.
Deterministic — no RNG involved — and way positions are physical in both
implementations, so the scan order (way 0 upward) matches exactly.

The batched kernel's state is three flat arrays: ``_tag`` and ``_rrpv``
(``ways`` slots per set, in physical way order) and ``_size``.  A
lockstep step (see :mod:`emissary.policies.base`) zeroes the RRPV of
every hit slot and, for the lanes that miss in a full set, ages each row
by ``max - row max`` at once and takes the row's first way at the
maximum.  The scalar loop that finishes long sets bit-packs a set's
RRPVs into one Python int (2 bits per way) for associativities up to
:data:`PACK_MAX_WAYS`:

- *aging* ("bump every way until one reaches max") becomes a single
  ``packed += d * 0b0101...01`` — fields cannot carry into each other
  because only ways already at the maximum stay at the maximum;
- *victim selection* becomes one lookup in a precomputed table mapping
  the packed value to the lowest-index way holding the maximum RRPV;
- *hit promotion* is one mask.

For wider caches, and for instrumented runs, it takes a plain
list-of-RRPVs loop with the same semantics, which also counts each
line's hits since fill while telemetry is attached.  A fill that is
immediately re-referenced is promoted to RRPV 0 by that hit, so the
kernel consumes the engine's repeat flags (``needs_repeat_flags``) to
stay exact under MRU run collapsing.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import Any

import numpy as np
from numpy.typing import NDArray

from emissary.policies.base import LaneHits, NaivePolicy, PolicyKernel, lookup, record_lifetimes

RRPV_BITS = 2
RRPV_MAX = (1 << RRPV_BITS) - 1
RRPV_INSERT = RRPV_MAX - 1

#: Packed-int fast path covers up to 8 ways (16-bit packed values, 64K tables).
PACK_MAX_WAYS = 8

_TABLES: dict[int, tuple[bytes, bytes]] = {}


def _pack_tables(ways: int) -> tuple[bytes, bytes]:
    """(max RRPV, lowest-index way holding it) for every packed value."""
    cached = _TABLES.get(ways)
    if cached is not None:
        return cached
    size = 1 << (RRPV_BITS * ways)
    packed = np.arange(size, dtype=np.uint32)
    fields = np.stack([(packed >> (RRPV_BITS * w)) & RRPV_MAX for w in range(ways)])
    top = fields.max(axis=0)
    victim = np.argmax(fields == top, axis=0)
    tables = (top.astype(np.uint8).tobytes(), victim.astype(np.uint8).tobytes())
    _TABLES[ways] = tables
    return tables


class SRRIPKernel(PolicyKernel):
    name = "srrip"
    needs_rng = False
    needs_repeat_flags = True

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        #: Resident tags, ``ways`` slots per set in way order; -1 = empty.
        self._tag = np.full(num_sets * ways, -1, dtype=np.int64)
        #: RRPV per slot, parallel to ``_tag``.
        self._rrpv = np.zeros(num_sets * ways, dtype=np.int64)
        #: Filled ways per set (ways fill in order and never empty).
        self._size = np.zeros(num_sets, dtype=np.int64)
        if ways <= PACK_MAX_WAYS:
            self._top_table, self._victim_table = _pack_tables(ways)
            # 0b0101...01: adds the aging delta to every 2-bit field at once.
            self._ones = int("01" * ways, 2)
            self._clear = [~(RRPV_MAX << (RRPV_BITS * w)) & ((1 << (RRPV_BITS * ways)) - 1)
                           for w in range(ways)]

    def _lockstep(self, lanes: NDArray[np.int64], active: list[int],
                  tags: NDArray[np.int64], u: NDArray[np.float64] | None,
                  rep: NDArray[np.bool_] | None, cost: NDArray[np.int64] | None,
                  extra: NDArray[np.int64] | None,
                  core: NDArray[np.int64] | None) -> NDArray[np.bool_]:
        assert rep is not None
        ways = self.ways
        tag = self._tag.reshape(-1, ways)[lanes]
        rrpv = self._rrpv.reshape(-1, ways)[lanes]
        size = self._size[lanes]
        tag_flat = tag.reshape(-1)
        rrpv_flat = rrpv.reshape(-1)
        insert = np.where(rep, 0, RRPV_INSERT)
        count = None
        if extra is not None:
            count = LaneHits(self, lanes)
        hits = np.empty(len(tags), dtype=bool)
        lo = 0
        for n in active:
            hi = lo + n
            t = tags[lo:hi]
            slots, hit = lookup(tag, t)
            hits[lo:hi] = hit
            rrpv_flat[slots] = 0  # promote hits
            if count is not None:
                count.hit(slots, extra[lo:hi][hit])
            miss = np.flatnonzero(~hit)
            if len(miss):
                slot = size[miss]
                cold = slot < ways
                full = miss[~cold]
                if len(full):
                    # Age the rows to RRPV_MAX; argmax then takes the
                    # lowest way at RRPV_MAX, the victim.
                    row = rrpv[full]
                    row += (RRPV_MAX - row.max(axis=1))[:, None]
                    rrpv[full] = row
                    slot[~cold] = row.argmax(axis=1)
                idx = miss * ways + slot
                tag_flat[idx] = t[miss]
                rrpv_flat[idx] = insert[lo:hi][miss]
                size[miss] += cold
                if count is not None:
                    count.fill(idx, ~cold, extra[lo:hi][miss])
            lo = hi
        self._tag.reshape(-1, ways)[lanes] = tag
        self._rrpv.reshape(-1, ways)[lanes] = rrpv
        self._size[lanes] = size
        if count is not None:
            count.close()
        return hits

    def _load(self, set_index: int) -> tuple[int, list[int], dict[int, int],
                                              list[int]]:
        """One set's row: its first slot, way -> tag list, tag -> way,
        and the RRPVs of the filled ways."""
        base = set_index * self.ways
        end = base + int(self._size[set_index])
        tag_at = self._tag[base:end].tolist()
        return (base, tag_at, {tag: way for way, tag in enumerate(tag_at)},
                self._rrpv[base:end].tolist())

    def _store(self, set_index: int, base: int, tag_at: list[int],
               rrpv: list[int]) -> None:
        self._tag[base:base + len(tag_at)] = tag_at
        self._rrpv[base:base + len(rrpv)] = rrpv
        self._size[set_index] = len(tag_at)

    def run_set(self, set_index: int, tags: list[int],
                u: Sequence[float] | None,
                rep: Sequence[bool] | None = None,
                cost: Sequence[int] | None = None,
                extra: Sequence[int] | None = None,
                core: Sequence[int] | None = None) -> list[bool]:
        assert rep is not None
        if self.ways > PACK_MAX_WAYS or self._tel is not None:
            return self._run_set_wide(set_index, tags, rep, extra)
        base, tag_at, ways_of, fields = self._load(set_index)
        packed = 0
        for way, field in enumerate(fields):
            packed |= field << (RRPV_BITS * way)
        top_table = self._top_table
        victim_table = self._victim_table
        ones = self._ones
        clear = self._clear
        ways = self.ways
        hits: list[bool] = []
        hit_append = hits.append
        get = ways_of.get
        for tag, repeated in zip(tags, rep):
            way = get(tag)
            if way is not None:
                packed &= clear[way]  # promote to RRPV 0
                hit_append(True)
            else:
                insert = 0 if repeated else RRPV_INSERT
                size = len(tag_at)
                if size < ways:
                    ways_of[tag] = size
                    tag_at.append(tag)
                    packed |= insert << (RRPV_BITS * size)
                else:
                    aging = RRPV_MAX - top_table[packed]
                    if aging:
                        packed += aging * ones
                    victim = victim_table[packed]
                    del ways_of[tag_at[victim]]
                    ways_of[tag] = victim
                    tag_at[victim] = tag
                    packed = (packed & clear[victim]) | (insert << (RRPV_BITS * victim))
                hit_append(False)
        self._store(set_index, base, tag_at,
                    [(packed >> (RRPV_BITS * w)) & RRPV_MAX
                     for w in range(len(tag_at))])
        return hits

    def _run_set_wide(self, set_index: int, tags: list[int],
                      rep: Sequence[bool],
                      extra: Sequence[int] | None) -> list[bool]:
        """List-based loop for associativities beyond the packed tables,
        and the one loop that counts line lifetimes when instrumented."""
        base, tag_at, ways_of, rrpv = self._load(set_index)
        tel = self._tel
        instrumented = tel is not None
        # Instrumented: hits since fill per way, and the victims' counts.
        way_hits: list[int] = []
        victims: list[int] = []
        if instrumented:
            assert extra is not None and self._line_hits is not None
            way_hits = self._line_hits[base:base + len(tag_at)].tolist()
        ways = self.ways
        hits: list[bool] = []
        hit_append = hits.append
        get = ways_of.get
        for tag, repeated, extra_i in zip(tags, rep, extra or repeat(0)):
            way = get(tag)
            if way is not None:
                rrpv[way] = 0
                if instrumented:
                    way_hits[way] += 1 + extra_i
                hit_append(True)
            else:
                insert = 0 if repeated else RRPV_INSERT
                size = len(tag_at)
                if size < ways:
                    ways_of[tag] = size
                    tag_at.append(tag)
                    rrpv.append(insert)
                    if instrumented:
                        way_hits.append(extra_i)
                else:
                    top = max(rrpv)
                    if top < RRPV_MAX:
                        aging = RRPV_MAX - top
                        for k in range(ways):
                            rrpv[k] += aging
                    victim = rrpv.index(RRPV_MAX)
                    if instrumented:
                        victims.append(way_hits[victim])
                        way_hits[victim] = extra_i
                    del ways_of[tag_at[victim]]
                    ways_of[tag] = victim
                    tag_at[victim] = tag
                    rrpv[victim] = insert
                hit_append(False)
        self._store(set_index, base, tag_at, rrpv)
        if tel is not None:
            assert self._line_hits is not None
            self._line_hits[base:base + len(way_hits)] = way_hits
            record_lifetimes(tel, hits.count(False), victims)
        return hits

    def effective_rrpv(self, set_index: int) -> list[int]:
        """Per-way RRPVs for the set's resident ways — for tests."""
        base = set_index * self.ways
        return self._rrpv[base:base + int(self._size[set_index])].tolist()


class NaiveSRRIP(NaivePolicy):
    name = "srrip"
    needs_rng = False

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        self.rrpv = [0] * (num_sets * ways)

    def on_hit(self, set_index: int, way: int, access_index: int) -> None:
        self.rrpv[set_index * self.ways + way] = 0

    def find_victim(self, set_index: int, u_i: float) -> int:
        base = set_index * self.ways
        rrpv = self.rrpv
        while True:
            for w in range(self.ways):
                if rrpv[base + w] == RRPV_MAX:
                    return w
            for w in range(self.ways):
                rrpv[base + w] += 1

    def on_fill(self, set_index: int, way: int, access_index: int, u_i: float,
                cost_i: int | None = None,
                core_i: int | None = None) -> None:
        self.rrpv[set_index * self.ways + way] = RRPV_INSERT
