"""Least-recently-used replacement.

The batched kernel has no per-access state machine: LRU has an exact
closed form, so :meth:`LRUKernel.run_sets` resolves a whole set-sorted
dispatch with array operations.

Closed form
    Take one set's accesses in order and let ``p`` be the previous
    access to the same line as access ``i``.  Access ``i`` hits iff
    ``p`` exists and fewer than ``W`` (the ways) distinct lines were
    touched in the set during ``(p, i)`` — the line's LRU stack depth.
    A line ``j`` in ``(p, i)`` is a first touch since ``p`` iff its own
    previous access ``prev(j)`` is before ``p``, so the depth is the
    number of positions in ``(p, i)`` with ``prev(j) < p``.

    ``prev`` comes from one stable argsort of the line keys (the line
    identifies both set and tag), done as LSD radix passes over 16-bit
    digits by the shared :func:`~emissary.policies.base.stable_argsort`,
    which the hierarchy's miss-count table also uses.  A gap
    ``i - p - 1 < W`` is a hit outright.  A window whose first ``W``
    positions are all first touches is a miss outright: a
    sliding-window maximum of ``prev`` finds those (the latest ``prev``
    among the ``W`` is before ``p``).  Every other
    access scans ``(p, i)`` counting first touches, and stops at the
    ``W``-th one (a miss) or at ``i`` (a hit).  The scans run together
    in vectorised rounds whose block width starts at ``2 * W`` and
    doubles, at most :data:`SCAN_ROWS` windows and :data:`SCAN_BUDGET`
    positions at a time, so memory stays bounded.

Work bound
    A scan still open at position ``j`` belongs to a line whose LRU
    depth at ``j`` is below ``W``, and at most ``W`` lines have depth
    below ``W`` at any moment.  So at most ``W`` open scans cover any
    position, and the useful scanning is at most ``W * m`` positions for
    ``m`` accesses.  Every scanned window holds a repeat among its first
    ``W`` positions (the window-maximum test found one), so a first
    block of ``W`` would settle almost no scan; the first block is
    ``2 * W`` wide instead.  Doubling from there overshoots a scan's end
    by at most the width it already scanned (plus the first block), so
    the total stays ``O(W * m)``, in ``O(log m)`` rounds per
    :data:`SCAN_ROWS` windows.

State and the carry
    Flat per-set arrays hold the resident tags in LRU -> MRU order and
    each set's occupancy.  A dispatch prepends each touched set's
    residents, LRU first, to that set's accesses: replaying them rebuilds
    exactly the recency stack the previous dispatches left, so state
    carries across dispatches and stream chunks.  The new residents are
    the last ``W`` distinct lines of each set, by last use.

Telemetry
    Computed in the same body from line lifetimes, only when attached.
    Each miss is a fill; a lifetime's hits are the fill's folded hits
    (``extra``) plus ``1 + extra`` per hit until the line's next miss.
    A lifetime that ends before its line's next miss, or whose line is
    not resident at the end, was evicted.  Resident lifetimes keep their
    count in a per-slot array (the prepended residents carry it in) and
    report it as ``resident_line_hits`` at finalize.

The naive implementation uses an explicit monotonic timestamp per line,
exactly like the zsim ``LRUReplPolicy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from emissary.policies.base import NaivePolicy, PolicyKernel, record_lifetimes, stable_argsort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.telemetry import Telemetry

#: Accesses whose reuse windows are scanned together, and the most
#: window positions one vectorised scan step gathers: together they
#: bound the scan's memory whatever the batch size.
SCAN_ROWS = 1 << 14
SCAN_BUDGET = 1 << 17


def _previous(keys: NDArray[np.uint64], order: NDArray[np.intp],
              prev: NDArray[np.int64]) -> None:
    """Fill ``prev[i]`` with the position of the previous equal key
    before ``i`` (-1 if none), given the stable argsort ``order``."""
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    del sorted_keys
    prev[order[0]] = -1
    prev[order[1:]] = order[:-1]
    prev[order[1:][~same]] = -1


def _window_max(values: NDArray[np.int64], width: int) -> NDArray[np.int64]:
    """``out[j] = values[j:j + width].max()`` for every full window, by
    doubling: after the loop ``run[j]`` is the max of ``values[j:j + k]``
    for the largest power of two ``k <= width``."""
    run = values.copy()
    k = 1
    while 2 * k <= width:
        np.maximum(run[:-k], run[k:], out=run[:-k])
        run = run[:-k]
        k *= 2
    return np.maximum(run[:len(run) - (width - k)], run[width - k:])


def _closed_form_hits(prev: NDArray[np.int64], total: int,
                      ways: int) -> NDArray[np.bool_]:
    """Hit flags of positions ``0..total-1`` from their previous
    accesses; ``prev`` is padded past ``total`` by at least the longest
    set's length with a value that is never a first touch."""
    has_prev = prev[:total] >= 0
    gap = np.arange(total, dtype=np.int64) - prev[:total]
    hit = has_prev & (gap <= ways)
    deep = np.flatnonzero(has_prev & (gap > ways))
    del has_prev, gap
    if not len(deep):
        return hit
    # The common miss needs no scan: the ``ways`` positions right after
    # ``first = prev[i]`` are all first touches (the latest ``prev``
    # among them is before ``first``).
    first = prev[deep]
    deep = deep[_window_max(prev, ways)[first + 1] >= first]
    del first
    cap = len(prev) - total
    for lo in range(0, len(deep), SCAN_ROWS):
        _scan_windows(prev, deep[lo:lo + SCAN_ROWS], ways, cap, hit)
    return hit


def _scan_windows(prev: NDArray[np.int64], owners: NDArray[np.int64],
                  ways: int, cap: int, hit: NDArray[np.bool_]) -> None:
    """Mark ``hit`` for each access in ``owners`` (positions whose reuse
    gap is at least ``ways``) that sees fewer than ``ways`` first touches
    in its window ``(prev[i], i)``.

    Each round reads the next ``width`` positions of every open window
    as the leading columns of rows of one sliding-window view of the
    padded ``prev``, ``cap`` (the padding) wide; ``width`` starts at
    ``2 * ways`` and doubles each round, up to ``cap``.  The view is
    built once per call: building it costs as much as a small round."""
    first = prev[owners]
    cur = first + 1
    seen = np.zeros(len(owners), dtype=np.int64)
    width = min(2 * ways, cap)
    windows = np.lib.stride_tricks.sliding_window_view(prev, cap)
    while len(owners):
        step = np.minimum(owners - cur, width)
        rows = max(1, SCAN_BUDGET // width)
        for lo in range(0, len(owners), rows):
            hi = lo + rows
            fresh = windows[cur[lo:hi], :width] < first[lo:hi, None]
            # Positions at or past the owner belong to later windows.
            fresh &= np.arange(width, dtype=np.int64) < step[lo:hi, None]
            seen[lo:hi] += np.count_nonzero(fresh, axis=1)
        cur += step
        missed = seen >= ways
        reached = cur == owners
        hit[owners[reached & ~missed]] = True
        live = ~(missed | reached)
        owners, first, cur, seen = owners[live], first[live], cur[live], seen[live]
        width = min(2 * width, cap)


class LRUKernel(PolicyKernel):
    name = "lru"
    needs_rng = False

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        #: Resident tags, ``ways`` slots per set, LRU -> MRU.
        self._tag = np.zeros(num_sets * ways, dtype=np.int64)
        #: Resident lines per set (the first ``_size[s]`` slots are live).
        self._size = np.zeros(num_sets, dtype=np.int64)
        #: Hits since fill per slot; only allocated when instrumented.
        self._hits: NDArray[np.int64] | None = None

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Enable the lifetime accounting in :meth:`run_sets`."""
        self._tel = telemetry
        self._hits = np.zeros(self.num_sets * self.ways, dtype=np.int64)

    def run_sets(self, sets: NDArray[np.int64], starts: NDArray[np.int64],
                 ends: NDArray[np.int64], lines: NDArray[np.uint64],
                 u: NDArray[np.float64] | None = None,
                 rep: NDArray[np.bool_] | None = None,
                 cost: NDArray[np.int64] | None = None,
                 extra: NDArray[np.int64] | None = None,
                 core: NDArray[np.int64] | None = None) -> NDArray[np.bool_]:
        ways = self.ways
        set_bits = np.uint64(self.num_sets.bit_length() - 1)
        counts = ends - starts
        sizes = self._size[sets]
        # The extended batch: each set's residents (LRU first), then its
        # accesses.
        ext_len = sizes + counts
        ext_ends = np.cumsum(ext_len)
        total = int(ext_ends[-1])
        resident_ends = np.cumsum(sizes)
        acc_pos = np.arange(len(lines), dtype=np.int64)
        acc_pos += np.repeat(resident_ends, counts)
        rank_in_set = np.arange(int(resident_ends[-1]), dtype=np.int64)
        rank_in_set -= np.repeat(resident_ends - sizes, sizes)
        res_slot = np.repeat(sets * ways, sizes) + rank_in_set
        res_pos = np.repeat(ext_ends - ext_len, sizes) + rank_in_set
        keys = np.empty(total, dtype=np.uint64)
        keys[acc_pos] = lines
        keys[res_pos] = ((self._tag[res_slot].astype(np.uint64) << set_bits)
                         | np.repeat(sets, sizes).astype(np.uint64))

        order = stable_argsort(keys)
        # Padded past the end by the longest set (no window is longer),
        # with a value that is never a first touch: window scans read
        # whole blocks without bounds checks.
        prev = np.full(total + int(ext_len.max()), total, dtype=np.int64)
        _previous(keys, order, prev)

        # New state: the last ``ways`` distinct lines per set by last use.
        # Last uses are in position order, so each set's are one run
        # ending where its extended accesses end; only the run's tail of
        # up to ``ways`` is gathered, LRU first.
        last = np.ones(total, dtype=bool)
        reused = prev[:total]
        last[reused[reused >= 0]] = False
        del reused
        last_pos = np.flatnonzero(last)
        del last
        last_ends = np.searchsorted(last_pos, ext_ends)
        kept_n = np.minimum(np.diff(last_ends, prepend=0), ways)
        kept_ends = np.cumsum(kept_n)
        rank = np.arange(int(kept_ends[-1]), dtype=np.int64)
        rank -= np.repeat(kept_ends - kept_n, kept_n)
        kept_pos = last_pos[np.repeat(last_ends - kept_n, kept_n) + rank]
        slots = np.repeat(sets * ways, kept_n) + rank
        self._tag[slots] = (keys[kept_pos] >> set_bits).astype(np.int64)
        self._size[sets] = kept_n
        del keys, last_pos, rank

        hit = _closed_form_hits(prev, total, ways)
        del prev
        acc_hits = hit[acc_pos]
        if self._tel is not None:
            self._account(order, hit, acc_pos, acc_hits, extra, res_pos,
                          res_slot, kept_pos, slots)
        return acc_hits

    def _account(self, order: NDArray[np.intp], hit: NDArray[np.bool_],
                 acc_pos: NDArray[np.int64], acc_hits: NDArray[np.bool_],
                 extra: NDArray[np.int64] | None,
                 res_pos: NDArray[np.int64], res_slot: NDArray[np.int64],
                 kept_pos: NDArray[np.int64],
                 kept_slots: NDArray[np.int64]) -> None:
        """Lifetime telemetry of one dispatch (see the module docstring):
        fills, evictions, dead-on-fill lines and the ``line_hits``
        histogram, plus the per-slot hit counts of the new residents."""
        tel = self._tel
        assert tel is not None and self._hits is not None and extra is not None
        gained = hit.astype(np.int64)
        gained[acc_pos] += extra
        gained[res_pos] = self._hits[res_slot]
        # In line-sorted order each lifetime is a run opened by a miss
        # (a prepended resident opens its carried lifetime).
        opens = np.flatnonzero(~hit[order])
        life_hits = np.add.reduceat(gained[order], opens)
        life_end = order[np.append(opens[1:], len(order)) - 1]
        slot_of = np.full(len(order), -1, dtype=np.int64)
        slot_of[kept_pos] = kept_slots
        end_slot = slot_of[life_end]
        resident = end_slot >= 0
        self._hits[end_slot[resident]] = life_hits[resident]
        record_lifetimes(tel, len(acc_hits) - int(np.count_nonzero(acc_hits)),
                         life_hits[~resident].tolist())

    def telemetry_finalize(self) -> None:
        tel = self._tel
        if tel is None or self._hits is None:
            return
        live = np.arange(self.ways, dtype=np.int64) < self._size[:, None]
        tel.observe_many("resident_line_hits",
                         self._hits.reshape(self.num_sets, self.ways)[live]
                         .tolist())


class NaiveLRU(NaivePolicy):
    name = "lru"
    needs_rng = False

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        super().__init__(num_sets, ways, **params)
        self.timestamps = [0] * (num_sets * ways)
        self._clock = 1

    def _touch(self, set_index: int, way: int) -> None:
        self.timestamps[set_index * self.ways + way] = self._clock
        self._clock += 1

    def on_hit(self, set_index: int, way: int, access_index: int) -> None:
        self._touch(set_index, way)

    def find_victim(self, set_index: int, u_i: float) -> int:
        base = set_index * self.ways
        ts = self.timestamps
        victim = 0
        best = ts[base]
        for w in range(1, self.ways):
            t = ts[base + w]
            if t < best:
                best = t
                victim = w
        return victim

    def replaced(self, set_index: int, way: int) -> None:
        self.timestamps[set_index * self.ways + way] = 0

    def on_fill(self, set_index: int, way: int, access_index: int, u_i: float,
                cost_i: int | None = None,
                core_i: int | None = None) -> None:
        self._touch(set_index, way)
