"""Random replacement.

The victim way is ``int(u_i * ways)`` where ``u_i`` is the pre-generated
uniform for the triggering access (see ``policies.base``).  Cold fills go
to the lowest-index invalid way in both implementations, so physical way
positions — and therefore every subsequent random victim choice — line
up exactly between the batched and naive engines.

The batched kernel's state is two flat arrays: ``_tag`` (``ways`` slots
per set, in physical way order, -1 when empty) and ``_size`` (filled
ways per set).  A lockstep step compares each active lane's row with its
tag; the scalar loop reads one row into a tag -> way dict plus a way ->
tag list, keeping lookup, eviction, and fill all O(1), and writes it
back.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import Any

import numpy as np
from numpy.typing import NDArray

from emissary.policies.base import LaneHits, NaivePolicy, PolicyKernel, lookup, record_lifetimes


class RandomKernel(PolicyKernel):
    name = "random"
    needs_rng = True

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        #: Resident tags, ``ways`` slots per set in way order; -1 = empty.
        self._tag = np.full(num_sets * ways, -1, dtype=np.int64)
        #: Filled ways per set (ways fill in order and never empty).
        self._size = np.zeros(num_sets, dtype=np.int64)

    def _lockstep(self, lanes: NDArray[np.int64], active: list[int],
                  tags: NDArray[np.int64], u: NDArray[np.float64] | None,
                  rep: NDArray[np.bool_] | None, cost: NDArray[np.int64] | None,
                  extra: NDArray[np.int64] | None,
                  core: NDArray[np.int64] | None) -> NDArray[np.bool_]:
        assert u is not None
        ways = self.ways
        tag = self._tag.reshape(-1, ways)[lanes]
        size = self._size[lanes]
        tag_flat = tag.reshape(-1)
        # The victim way of every access, should it evict.
        victim = (u * ways).astype(np.int64)
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
            if count is not None:
                count.hit(slots, extra[lo:hi][hit])
            miss = np.flatnonzero(~hit)
            if len(miss):
                slot = size[miss]
                cold = slot < ways
                slot[~cold] = victim[lo:hi][miss[~cold]]
                idx = miss * ways + slot
                tag_flat[idx] = t[miss]
                size[miss] += cold
                if count is not None:
                    count.fill(idx, ~cold, extra[lo:hi][miss])
            lo = hi
        self._tag.reshape(-1, ways)[lanes] = tag
        self._size[lanes] = size
        if count is not None:
            count.close()
        return hits

    def _load(self, set_index: int) -> tuple[int, list[int], dict[int, int]]:
        """One set's row: its first slot, way -> tag list, tag -> way."""
        base = set_index * self.ways
        tag_at = self._tag[base:base + int(self._size[set_index])].tolist()
        return base, tag_at, {tag: way for way, tag in enumerate(tag_at)}

    def _store(self, set_index: int, base: int, tag_at: list[int]) -> None:
        self._tag[base:base + len(tag_at)] = tag_at
        self._size[set_index] = len(tag_at)

    def run_set(self, set_index: int, tags: list[int],
                u: Sequence[float] | None,
                rep: Sequence[bool] | None = None,
                cost: Sequence[int] | None = None,
                extra: Sequence[int] | None = None,
                core: Sequence[int] | None = None) -> list[bool]:
        assert u is not None
        base, tag_at, ways_of = self._load(set_index)
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
        for tag, u_i, extra_i in zip(tags, u, extra or repeat(0)):
            if tag in ways_of:
                if instrumented:
                    way_hits[ways_of[tag]] += 1 + extra_i
                hit_append(True)
            else:
                size = len(tag_at)
                if size < ways:
                    ways_of[tag] = size
                    tag_at.append(tag)
                    if instrumented:
                        way_hits.append(extra_i)
                else:
                    victim = int(u_i * ways)
                    if instrumented:
                        victims.append(way_hits[victim])
                        way_hits[victim] = extra_i
                    del ways_of[tag_at[victim]]
                    ways_of[tag] = victim
                    tag_at[victim] = tag
                hit_append(False)
        self._store(set_index, base, tag_at)
        if tel is not None:
            assert self._line_hits is not None
            self._line_hits[base:base + len(way_hits)] = way_hits
            record_lifetimes(tel, hits.count(False), victims)
        return hits


class NaiveRandom(NaivePolicy):
    name = "random"
    needs_rng = True

    def on_hit(self, set_index: int, way: int, access_index: int) -> None:
        pass

    def find_victim(self, set_index: int, u_i: float) -> int:
        return int(u_i * self.ways)

    def on_fill(self, set_index: int, way: int, access_index: int, u_i: float,
                cost_i: int | None = None,
                core_i: int | None = None) -> None:
        pass
