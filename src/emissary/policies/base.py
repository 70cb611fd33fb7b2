"""Policy kernel interfaces.

Every replacement policy ships two implementations with identical
semantics:

- a :class:`PolicyKernel` used by the batched set-major engine.  The
  engine hands it one set-sorted dispatch through :meth:`PolicyKernel.
  run_sets`.  State is flat per-set NumPy arrays (``ways`` slots per
  set), and the default ``run_sets`` resolves the dispatch in two
  phases over them: set-parallel lockstep steps while many sets are
  active, then :meth:`PolicyKernel.run_set`, a tight per-set Python
  loop over plain lists, for the remaining tails.  A kernel with a
  closed form (LRU) overrides ``run_sets`` instead.
- a :class:`NaivePolicy` used by the per-access reference engine,
  mirroring the zsim-style ``update / find_victim / replaced`` API.

Lockstep layout
    Sets never share state, so the k-th access of every set can be
    resolved in one vectorised step.  The sets of a dispatch become
    *lanes*, ordered by access count, descending, so the lanes still
    active at step k are a prefix.  Each column (tags, uniforms, repeat
    flags, cost, core) is gathered once into step-major order, so step
    k reads one contiguous slice, element j belonging to lane j.  The
    kernel copies its state rows into lane order once, steps on prefix
    views of that copy (:meth:`PolicyKernel._lockstep`), and writes the
    rows back; one scatter maps the hits back to dispatch order.

Lane floor
    A step costs a few dozen array operations whatever its width, so
    narrow steps lose to the scalar loop (one lane in lockstep costs
    15-50x the scalar loop's time per access).  Steps run in lockstep
    only while at least :data:`LANE_FLOOR` lanes are active; the scalar
    loop then finishes the tails (hot sets, few-set caches, small
    trailing dispatches) from the same flat state.  Instrumented runs
    take the same two phases: the steps count line lifetimes through a
    :class:`LaneHits`, and the scalar loop tests the kernel's telemetry
    per hit and per eviction.

Randomness is never drawn inside a kernel.  Policies that need it set
``needs_rng = True`` and receive a pre-generated uniform in [0, 1) per
access, indexed by the access's global trace position.  This makes the
batched (set-major) and naive (trace-order) executions consume random
values identically, so outcomes are bit-identical and reproducible from
a single ``--seed``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from emissary.telemetry import Telemetry


def stable_argsort(keys: NDArray[np.uint64]) -> NDArray[np.intp]:
    """``np.argsort(keys, kind="stable")`` as LSD radix passes over
    16-bit digits of ``keys - keys.min()``: NumPy's stable sort is a
    radix sort for 16-bit keys, several times faster than its 64-bit
    merge sort.  The LRU closed form and the hierarchy's miss-count
    table both sort with it."""
    span = keys - keys.min()
    order = np.argsort(span.astype(np.uint16), kind="stable")
    bits = int(span.max()).bit_length()
    for shift in range(16, bits, 16):
        digit = (span >> np.uint64(shift)).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order


#: Fewest active lanes (sets) a lockstep step may resolve; narrower
#: steps go to the scalar per-set loop.  Measured on full 8-way sets
#: (NumPy 2.4, 2-vCPU x86 VM), a step breaks even with the scalar loop
#: at about 48 lanes for Random, 64 for SRRIP and 96 for EMISSARY
#: (measured with a budget of several pools), and wins 4-5x at 1024
#: lanes; the floor is the highest break-even, so no policy steps
#: below it.
LANE_FLOOR = 96


class PolicyKernel:
    """Batched set-major kernel: the engine calls :meth:`run_sets` once
    per dispatch.

    Telemetry is opt-in per instance: :meth:`attach_telemetry` sets
    ``_tel`` and allocates the per-slot hit counts.  The lockstep steps
    test it once per step, the scalar loop once per hit and per
    eviction; a disabled run allocates nothing and records nothing.
    (LRU, which overrides ``run_sets``, skips its accounting block.)
    """

    name: str = "base"
    needs_rng: bool = False
    #: Set by :meth:`attach_telemetry`; dispatches record into it.
    _tel: "Telemetry" | None = None
    #: Flat per-set state: ``ways`` slots per set, and the filled slots
    #: of each set (slots fill in order and never empty).
    _tag: NDArray[np.int64]
    _size: NDArray[np.int64]
    #: Hits since fill per slot, for kernels that count line lifetimes in
    #: flat per-set rows; allocated by :meth:`attach_telemetry`.
    _line_hits: NDArray[np.int64] | None = None
    #: True if the kernel must know whether an access is immediately
    #: re-referenced (same line, no intervening access) — required for
    #: MRU run collapsing to stay exact when a *hit on the fill's
    #: successor* changes state (e.g. SRRIP promotes RRPV to 0).
    needs_repeat_flags: bool = False
    #: True if the kernel uses the per-access cost signal (the running
    #: L1I miss count for the access's line, supplied by the hierarchy
    #: engine).  Cost-blind kernels never receive the array.
    consumes_cost: bool = False
    #: True if the kernel uses the per-access core id (which L1I
    #: front-end issued the access, supplied by the multi-core hierarchy
    #: engine).  Core-blind kernels never receive the array.
    consumes_core: bool = False

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.params = params

    def run_set(self, set_index: int, tags: list[int],
                u: Sequence[float] | None,
                rep: Sequence[bool] | None = None,
                cost: Sequence[int] | None = None,
                extra: Sequence[int] | None = None,
                core: Sequence[int] | None = None) -> list[bool]:
        """Simulate ``tags`` (in access order) against set ``set_index``.

        ``u`` is the per-access uniform slice aligned with ``tags`` (None
        when ``needs_rng`` is False).  ``rep`` (only when
        ``needs_repeat_flags``) marks accesses whose line is re-accessed
        immediately afterwards.  ``cost`` (only when ``consumes_cost``
        and the caller measured one) is the per-access cost signal —
        in the L1I -> L2 hierarchy, the line's running L1I miss count.
        ``extra`` is only supplied to instrumented kernels: the number of
        MRU-collapsed hits folded into each access, so per-line hit
        accounting stays exact under run collapsing; the loop reads it
        only while ``_tel`` is set.  ``core`` (only when
        ``consumes_core``) is the per-access issuing core id; None means
        a single-core caller (treated as core 0).
        Returns one hit/miss bool per access.
        """
        raise NotImplementedError

    def run_sets(self, sets: NDArray[np.int64], starts: NDArray[np.int64],
                 ends: NDArray[np.int64], lines: NDArray[np.uint64],
                 u: NDArray[np.float64] | None = None,
                 rep: NDArray[np.bool_] | None = None,
                 cost: NDArray[np.int64] | None = None,
                 extra: NDArray[np.int64] | None = None,
                 core: NDArray[np.int64] | None = None) -> NDArray[np.bool_]:
        """Simulate one dispatch: ``lines`` sorted by set (stable, so in
        access order within each set), set ``sets[k]`` holding positions
        ``starts[k]:ends[k]``.  The optional columns are aligned with
        ``lines`` and mean what they mean for :meth:`run_set`.  Returns
        one hit/miss bool per line.

        Steps run in lockstep while at least :data:`LANE_FLOOR` sets
        are active (see the module docstring), then :meth:`run_set`
        finishes each longer set.  Lists are made one set at a time: a
        whole-batch list of Python ints or floats would cost ~5x the
        array's memory.
        """
        tags = lines >> np.uint64(self.num_sets.bit_length() - 1)
        hits = np.empty(len(lines), dtype=bool)
        steps = 0
        if len(sets) >= LANE_FLOOR:
            counts = ends - starts
            lane = np.argsort(-counts, kind="stable")
            # Every step before ``steps`` has at least LANE_FLOOR lanes.
            steps = int(counts[lane[LANE_FLOOR - 1]])
            active = np.searchsorted(
                -counts[lane], -np.arange(steps, dtype=np.int64), side="left")
            offsets = np.cumsum(active) - active
            # Step-major positions: step k's row is lanes 0..active[k]-1.
            pos = np.arange(int(active.sum()), dtype=np.int64)
            pos -= np.repeat(offsets, active)
            pos = starts[lane][pos]
            pos += np.repeat(np.arange(steps, dtype=np.int64), active)
            hits[pos] = self._lockstep(
                sets[lane], active.tolist(), tags[pos].astype(np.int64),
                *(col[pos] if col is not None else None
                  for col in (u, rep, cost, extra, core)))
            del pos
            tail = counts > steps
            sets, starts, ends = sets[tail], starts[tail] + steps, ends[tail]
        # run_set's optional (u, rep, cost, extra, core) arguments: only
        # the supplied ones are sliced per set, the rest stay None.
        args: list[list[Any] | None] = [None] * 5
        columns = [(i, col) for i, col in enumerate((u, rep, cost, extra, core))
                   if col is not None]
        run_set = self.run_set
        for s, lo, hi in zip(sets.tolist(), starts.tolist(), ends.tolist()):
            for i, col in columns:
                args[i] = col[lo:hi].tolist()
            hits[lo:hi] = run_set(s, tags[lo:hi].tolist(), *args)
        return hits

    def _lockstep(self, lanes: NDArray[np.int64], active: list[int],
                  tags: NDArray[np.int64], u: NDArray[np.float64] | None,
                  rep: NDArray[np.bool_] | None, cost: NDArray[np.int64] | None,
                  extra: NDArray[np.int64] | None,
                  core: NDArray[np.int64] | None) -> NDArray[np.bool_]:
        """Resolve ``len(active)`` steps over the sets ``lanes``: step k
        is the next ``active[k]`` entries of the step-major columns, one
        per lane from lane 0.  Returns the hits in the same order.
        ``extra`` is supplied only to instrumented kernels, which count
        through a :class:`LaneHits`."""
        raise NotImplementedError

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Enable instrumentation: record into ``telemetry`` and count
        hits since fill per slot in ``_line_hits``.

        Must be called before the first access.  Instrumented dispatches
        run the same code as plain ones — the telemetry test suite
        asserts bit-identical hit vectors either way.
        """
        self._tel = telemetry
        self._line_hits = np.zeros(self.num_sets * self.ways, dtype=np.int64)

    def telemetry_finalize(self) -> None:
        """End-of-run accounting: by default the ``resident_line_hits``
        histogram over every set's filled slots (``_size``)."""
        tel = self._tel
        if tel is None or self._line_hits is None:
            return
        live = np.arange(self.ways, dtype=np.int64) < self._size[:, None]
        tel.observe_many("resident_line_hits",
                         self._line_hits.reshape(self.num_sets, self.ways)[live]
                         .tolist())

    def extra_stats(self) -> dict[str, Any]:
        """Policy-specific counters folded into the simulation result."""
        return {}


def record_lifetimes(tel: "Telemetry", fills: int, victims: list[int]) -> None:
    """Record one dispatch's line lifetimes: its fills, its evictions,
    the victims evicted without a hit (dead on fill), and each victim's
    hits since fill in the ``line_hits`` histogram."""
    tel.inc("fills", fills)
    tel.inc("evictions", len(victims))
    tel.inc("dead_on_fill", victims.count(0))
    if victims:
        tel.observe_many("line_hits", victims)


def lookup(tag: NDArray[np.int64],
           t: NDArray[np.int64]) -> tuple[NDArray[np.intp], NDArray[np.bool_]]:
    """One lockstep step's tag lookup: lane j's tag ``t[j]`` against row
    j of ``tag`` (lane-ordered ``[lanes, ways]`` rows).  Returns the flat
    slots that hold their lane's tag (at most one per lane, in lane
    order) and each lane's hit flag.  The flags come from the slots:
    NumPy's ``any`` along a row of a few ways costs several times more."""
    n, ways = len(t), tag.shape[1]
    slots = np.flatnonzero(tag[:n] == t[:, None])
    hit = np.zeros(n, dtype=bool)
    hit[slots // ways] = True
    return slots, hit


class LaneHits:
    """Line-lifetime telemetry of one instrumented lockstep dispatch.

    Holds the lanes' rows of the kernel's per-slot hits-since-fill
    (``_line_hits``) in lane order, like the kernel's other working
    rows; each step adds its hits and records the victims' counts, and
    :meth:`close` writes the rows back and reports the dispatch."""

    def __init__(self, kernel: PolicyKernel, lanes: NDArray[np.int64]) -> None:
        assert kernel._line_hits is not None and kernel._tel is not None
        self._line_hits = kernel._line_hits
        self._tel = kernel._tel
        self._lanes = lanes
        self.rows = self._line_hits.reshape(-1, kernel.ways)[lanes]
        self.flat = self.rows.reshape(-1)
        self.victims: list[NDArray[np.int64]] = []
        self.fills = 0

    def hit(self, slots: NDArray[np.intp], extra: NDArray[np.int64]) -> None:
        """Credit the hit ``slots`` (flat, lane-major, as from
        :func:`lookup`) with their access and its folded hits."""
        self.flat[slots] += 1 + extra

    def fill(self, idx: NDArray[np.int64], evicting: NDArray[np.bool_],
             extra: NDArray[np.int64]) -> None:
        """Fill the slots ``idx`` (flat, lane-major), evicting where
        ``evicting``; a new line starts at its folded hits."""
        self.victims.append(self.flat[idx[evicting]])
        self.flat[idx] = extra
        self.fills += len(idx)

    def close(self) -> int:
        """Write the rows back, count fills, evictions and dead-on-fill
        lines, and observe each victim's hits; returns the evictions."""
        self._line_hits.reshape(-1, self.rows.shape[1])[self._lanes] = self.rows
        victims = (np.concatenate(self.victims).tolist() if self.victims
                   else [])
        record_lifetimes(self._tel, self.fills, victims)
        return len(victims)


class NaivePolicy:
    """Per-access policy with flat preallocated arrays (zsim-style API).

    The reference engine resolves the tag lookup itself and calls:
    ``on_hit`` for hits, ``find_victim`` + ``replaced`` when a full set
    must evict, and ``on_fill`` after installing the new line.
    """

    name: str = "base"
    needs_rng: bool = False

    def __init__(self, num_sets: int, ways: int, **params: Any) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.params = params

    def on_hit(self, set_index: int, way: int, access_index: int) -> None:
        raise NotImplementedError

    def find_victim(self, set_index: int, u_i: float) -> int:
        raise NotImplementedError

    def replaced(self, set_index: int, way: int) -> None:
        """Victim bookkeeping before the new line is installed."""

    def on_fill(self, set_index: int, way: int, access_index: int, u_i: float,
                cost_i: int | None = None,
                core_i: int | None = None) -> None:
        """Install bookkeeping.  ``cost_i`` is the access's cost signal
        (line's running L1I miss count) or None when unmeasured;
        ``core_i`` the issuing core id or None for single-core callers."""
        raise NotImplementedError

    def extra_stats(self) -> dict[str, Any]:
        """Policy-specific counters folded into the simulation result —
        the same keys and values as the batched kernel's
        :meth:`PolicyKernel.extra_stats`."""
        return {}

    def telemetry_finalize(self, telemetry: "Telemetry", prefix: str = "") -> None:
        """Dump policy-specific counters into ``telemetry``.

        The reference engines do the generic line-lifetime accounting
        themselves (they resolve tags and victims); this hook contributes
        only what the policy alone knows (e.g. EMISSARY's priority-class
        eviction split and per-set HP occupancy).  ``prefix`` namespaces
        the names in hierarchy runs (``l2.``)."""
