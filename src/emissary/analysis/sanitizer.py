"""Runtime kernel-state sanitizer (debug-mode invariant checking).

EMISSARY's correctness argument leans on invariants the paper states but
the kernels only imply: a set never holds more than ``hp_threshold``
high-priority lines, RRPVs stay inside ``[0, 2^M)``, recency structures
remain valid permutations of the resident lines, and telemetry counters
stay sum-consistent with the hit/miss vectors.  A metadata-update bug
can violate any of these without crashing or even visibly changing hit
rates on small traces — exactly the failure mode that corrupts policy
comparisons silently.

:class:`Sanitizer` makes those invariants fail loudly.  It attaches to
engines the same way telemetry does (a ``sanitizer=`` constructor
parameter; engines call :meth:`Sanitizer.attach_kernel` /
:meth:`Sanitizer.attach_naive` right after building the policy object)
and validates the touched set's state after **every** kernel dispatch,
raising :class:`SanitizerError` with the set index and access position
on the first violation.  Detached (``sanitizer=None``, the default) the
hot paths carry a single ``is None`` test per run, nothing per access —
the bench guard (``python -m emissary.bench --sanitizer-overhead``)
holds the detached overhead under 5%.

The engines attach telemetry first, then the sanitizer (which wraps
the dispatch entry point), so instrumented and plain runs are both
checked.  Every batched kernel resolves a whole dispatch in one call —
``run_sets`` for the Python kernels, ``run_batch`` for the compiled
ones — over one Python kernel's flat per-set arrays (``_tag``,
``_size``, ``_ts``, ``_rrpv``, ``_owner``, ``_hp``, ``_hp_by_pool``,
``_line_hits``): a compiled kernel steps the arrays of the Python
kernel it wraps.  The sanitizer wraps that call and runs one
flat-state checker over every set it touched.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from emissary.compiled import BoolArray, CompiledKernel, IndexArray, UniformArray
from emissary.policies.base import NaivePolicy, PolicyKernel
from emissary.policies.emissary import NaiveEmissary
from emissary.policies.lru import NaiveLRU
from emissary.policies.random_policy import NaiveRandom
from emissary.policies.srrip import RRPV_MAX, NaiveSRRIP

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from numpy.typing import NDArray

    from emissary.telemetry import Telemetry


class SanitizerError(RuntimeError):
    """A kernel-state invariant was violated.

    ``set_index`` is the cache set whose state failed validation (None
    for whole-run counter checks) and ``access_position`` the number of
    accesses dispatched through the sanitizer when the violation was
    detected (for naive engines: the failing access's trace index).
    """

    def __init__(self, message: str, *, set_index: int | None = None,
                 access_position: int | None = None) -> None:
        where = []
        if set_index is not None:
            where.append(f"set {set_index}")
        if access_position is not None:
            where.append(f"access {access_position}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(message + suffix)
        self.set_index = set_index
        self.access_position = access_position


class Sanitizer:
    """Per-dispatch invariant checker for both engine families.

    One instance may serve several kernels (the hierarchy engine shares
    it across its L1 and L2 stages); ``checks`` counts completed
    validations and ``accesses`` the accesses dispatched through
    sanitized batched kernels, so tests can assert the sanitizer
    actually ran.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.accesses = 0
        #: Policy names this instance was attached to, in order.
        self.attached: list[str] = []

    # -- batched kernels --------------------------------------------------

    def attach_kernel(self, kernel: "PolicyKernel | CompiledKernel") -> None:
        """Wrap the kernel's dispatch entry point — ``run_batch`` for
        compiled kernels, ``run_sets`` for Python ones — to validate the
        flat state of every set a dispatch touched.  Call after
        ``attach_telemetry`` (if any)."""
        self.attached.append(kernel.name)
        if isinstance(kernel, CompiledKernel):
            inner_batch = kernel.run_batch
            state, name = kernel.inner, f"compiled/{kernel.name}"

            def run_batch(set_idx: IndexArray, tags: IndexArray,
                          u: "UniformArray | None" = None,
                          rep: "NDArray[np.bool_] | None" = None,
                          cost: "IndexArray | None" = None,
                          extra: "IndexArray | None" = None,
                          core: "IndexArray | None" = None) -> BoolArray:
                hits = inner_batch(set_idx, tags, u, rep, cost, extra, core)
                self._check_dispatch(state, name,
                                     sorted(set(set_idx.tolist())), len(tags))
                return hits

            kernel.run_batch = run_batch  # type: ignore[method-assign]
            return
        inner = kernel.run_sets
        python_kernel = kernel

        def run_sets(sets: IndexArray, starts: IndexArray, ends: IndexArray,
                     lines: "NDArray[np.uint64]",
                     u: "UniformArray | None" = None,
                     rep: "NDArray[np.bool_] | None" = None,
                     cost: "IndexArray | None" = None,
                     extra: "IndexArray | None" = None,
                     core: "IndexArray | None" = None) -> BoolArray:
            hits = inner(sets, starts, ends, lines, u, rep, cost, extra, core)
            self._check_dispatch(python_kernel, python_kernel.name,
                                 sets.tolist(), len(lines))
            return hits

        kernel.run_sets = run_sets  # type: ignore[method-assign]

    def _check_dispatch(self, kernel: PolicyKernel, name: str,
                        sets: list[int], accesses: int) -> None:
        """Count one dispatch of ``accesses`` and check ``sets`` of
        ``kernel``'s state, reporting as ``name``."""
        self.accesses += accesses
        for s in sets:
            self._check_flat(kernel, name, s, self.accesses)
        self.checks += 1

    @staticmethod
    def _check_slots(name: str, ways: int, size: int, tags: list[int],
                     s: int, pos: int) -> None:
        """A flat set row: occupancy within the ways, no duplicate tag."""
        if size > ways:
            raise SanitizerError(
                f"{name}: {size} resident lines exceed {ways} ways",
                set_index=s, access_position=pos)
        if size < 0:
            raise SanitizerError(
                f"{name}: negative occupancy {size}",
                set_index=s, access_position=pos)
        if len(set(tags)) != size:
            raise SanitizerError(
                f"{name}: duplicate resident tags {tags}",
                set_index=s, access_position=pos)

    def _check_flat(self, kernel: Any, name: str, s: int, pos: int) -> None:
        """One set's flat state rows: each array the kernel keeps is
        checked against its policy's invariants."""
        ways = kernel.ways
        base = s * ways
        size = int(kernel._size[s])
        end = base + size
        tags = kernel._tag[base:end].tolist()
        self._check_slots(name, ways, size, tags, s, pos)
        hit_counts = kernel._line_hits
        if hit_counts is not None:
            counts = hit_counts[base:end].tolist()
            if any(count < 0 for count in counts):
                raise SanitizerError(
                    f"{name}: negative hit count in {counts}",
                    set_index=s, access_position=pos)
        stamps_arr = getattr(kernel, "_ts", None)
        if stamps_arr is not None:
            stamps = stamps_arr[base:end].tolist()
            if any(t <= 0 for t in stamps):
                raise SanitizerError(
                    f"{name}: non-positive timestamp on a resident line "
                    f"{stamps}", set_index=s, access_position=pos)
            if len(set(stamps)) != size:
                raise SanitizerError(
                    f"{name}: duplicate timestamps {stamps} (LRU order is "
                    "ambiguous)", set_index=s, access_position=pos)
        rrpv_arr = getattr(kernel, "_rrpv", None)
        if rrpv_arr is not None:
            for way, rrpv in enumerate(rrpv_arr[base:end].tolist()):
                if not 0 <= rrpv <= RRPV_MAX:
                    raise SanitizerError(
                        f"{name}: RRPV {rrpv} at way {way} outside "
                        f"[0, {RRPV_MAX}]", set_index=s, access_position=pos)
        owner_arr = getattr(kernel, "_owner", None)
        if owner_arr is None:
            return
        # An HP line is one charged to a pool; -1 marks low priority.
        owners = {w: p for w, p in enumerate(owner_arr[base:end].tolist())
                  if p != -1}
        hp = len(owners)
        if hp != int(kernel._hp[s]):
            raise SanitizerError(
                f"{name}: hp_counts[{s}] = {int(kernel._hp[s])} but {hp} "
                "HP lines are resident", set_index=s, access_position=pos)
        if hp > kernel.hp_threshold:
            raise SanitizerError(
                f"{name}: {hp} HP lines exceed hp_threshold="
                f"{kernel.hp_threshold}", set_index=s, access_position=pos)
        pools = kernel.pools
        self._check_pools(
            name, s, pos, kernel._quota.tolist(),
            kernel._hp_by_pool[s * pools:(s + 1) * pools].tolist(), hp,
            owners)

    @staticmethod
    def _check_pools(name: str, s: int, pos: int, quotas: Sequence[int],
                     by_pool: Sequence[int], hp: int,
                     owners: dict[int, int]) -> None:
        """HP budget invariants: every HP line (way -> pool in
        ``owners``) names a valid pool, the per-pool counts match their
        tally, stay inside their quotas and sum to the set's HP total."""
        tallied = [0] * len(quotas)
        for p in owners.values():
            if not 0 <= p < len(quotas):
                raise SanitizerError(
                    f"{name}: owner pool {p} outside [0, {len(quotas)})",
                    set_index=s, access_position=pos)
            tallied[p] += 1
        if list(by_pool) != tallied:
            raise SanitizerError(
                f"{name}: hp_by_pool {list(by_pool)} disagrees with the "
                f"owner map tally {tallied}",
                set_index=s, access_position=pos)
        if sum(by_pool) != hp:
            raise SanitizerError(
                f"{name}: per-pool HP counts sum to {sum(by_pool)} but "
                f"{hp} HP lines are resident",
                set_index=s, access_position=pos)
        for p, (count, quota) in enumerate(zip(by_pool, quotas)):
            if not 0 <= count <= quota:
                raise SanitizerError(
                    f"{name}: pool {p} holds {count} HP lines outside its "
                    f"quota [0, {quota}]", set_index=s, access_position=pos)

    # -- naive (per-access reference) impls -------------------------------

    def attach_naive(self, impl: NaivePolicy) -> None:
        """Wrap ``impl.on_hit`` / ``impl.on_fill`` to validate the
        touched set after every state update."""
        check = self._naive_checker(impl)
        self.attached.append(impl.name)
        inner_hit = impl.on_hit
        inner_fill = impl.on_fill

        def on_hit(set_index: int, way: int, access_index: int) -> None:
            inner_hit(set_index, way, access_index)
            if check is not None:
                check(set_index, access_index)
            self.checks += 1

        def on_fill(set_index: int, way: int, access_index: int, u_i: float,
                    cost_i: int | None = None,
                    core_i: int | None = None) -> None:
            inner_fill(set_index, way, access_index, u_i, cost_i, core_i)
            if check is not None:
                check(set_index, access_index)
            self.checks += 1

        impl.on_hit = on_hit  # type: ignore[method-assign]
        impl.on_fill = on_fill  # type: ignore[method-assign]

    def _naive_checker(
            self, impl: NaivePolicy) -> Callable[[int, int], None] | None:
        if isinstance(impl, NaiveEmissary):
            return lambda s, pos: self._check_naive_emissary(impl, s, pos)
        if isinstance(impl, NaiveSRRIP):
            return lambda s, pos: self._check_naive_srrip(impl, s, pos)
        if isinstance(impl, NaiveLRU):
            return lambda s, pos: self._check_naive_lru(impl, s, pos)
        if isinstance(impl, NaiveRandom):
            return None  # stateless
        return None

    @staticmethod
    def _check_timestamps(timestamps: Sequence[int], name: str, s: int,
                          ways: int, pos: int) -> None:
        """Recency state must be a valid permutation: the nonzero
        timestamps of a set (its filled ways) are strictly distinct, so
        LRU ordering is total."""
        base = s * ways
        seen = set()
        for w in range(ways):
            t = timestamps[base + w]
            if t == 0:
                continue
            if t in seen:
                raise SanitizerError(
                    f"{name}: duplicate timestamp {t} in set (LRU order is "
                    "ambiguous)", set_index=s, access_position=pos)
            seen.add(t)

    def _check_naive_lru(self, impl: NaiveLRU, s: int, pos: int) -> None:
        self._check_timestamps(impl.timestamps, "lru", s, impl.ways, pos)

    def _check_naive_emissary(self, impl: NaiveEmissary, s: int,
                              pos: int) -> None:
        self._check_timestamps(impl.timestamps, "emissary", s, impl.ways, pos)
        base = s * impl.ways
        hp = 0
        for w in range(impl.ways):
            prio = impl.priority[base + w]
            if prio not in (0, 1):
                raise SanitizerError(
                    f"emissary: priority bit {prio!r} at way {w} is not 0/1",
                    set_index=s, access_position=pos)
            hp += prio
        if hp != impl.hp_counts[s]:
            raise SanitizerError(
                f"emissary: hp_counts[{s}] = {impl.hp_counts[s]} but {hp} "
                "HP lines are flagged", set_index=s, access_position=pos)
        if hp > impl.hp_threshold:
            raise SanitizerError(
                f"emissary: {hp} HP lines exceed hp_threshold="
                f"{impl.hp_threshold}", set_index=s, access_position=pos)
        if impl.partitioned:
            owners = {w: impl.owner[base + w] for w in range(impl.ways)
                      if impl.owner[base + w] >= 0}
            owner_of = {w for w in range(impl.ways) if impl.priority[base + w]}
            if owners.keys() != owner_of:
                raise SanitizerError(
                    f"emissary: owner map tracks {sorted(owners)} but the "
                    f"HP lines are {sorted(owner_of)}",
                    set_index=s, access_position=pos)
            self._check_pools("emissary", s, pos, impl.core_quotas,
                              impl.hp_by_core[s], hp, owners)

    def _check_naive_srrip(self, impl: NaiveSRRIP, s: int, pos: int) -> None:
        base = s * impl.ways
        for w in range(impl.ways):
            rrpv = impl.rrpv[base + w]
            if not 0 <= rrpv <= RRPV_MAX:
                raise SanitizerError(
                    f"srrip: RRPV {rrpv} at way {w} outside [0, {RRPV_MAX}]",
                    set_index=s, access_position=pos)

    # -- whole-run counter consistency ------------------------------------

    def check_counters(self, telemetry: "Telemetry", n: int,
                       hit_count: int) -> None:
        """Telemetry counters must be sum-consistent with the hit/miss
        vector: every miss is a fill, every eviction evicted a fill, and
        the policy-class splits partition their totals.  Engines call
        this at end of run when both telemetry and a sanitizer are
        attached; names absent from the payload are skipped."""
        c = telemetry.counters
        expected = {
            "hits": hit_count,
            "misses": n - hit_count,
            "fills": n - hit_count,
        }
        for name, want in expected.items():
            got = c.get(name)
            if got is not None and got != want:
                raise SanitizerError(
                    f"counter {name} = {got}, expected {want} from the "
                    f"hit/miss vector (n={n}, hits={hit_count})")
        evictions = c.get("evictions")
        if evictions is not None:
            if evictions > n - hit_count:
                raise SanitizerError(
                    f"counter evictions = {evictions} exceeds fills = "
                    f"{n - hit_count}")
            dead = c.get("dead_on_fill")
            if dead is not None and dead > evictions:
                raise SanitizerError(
                    f"counter dead_on_fill = {dead} exceeds evictions = "
                    f"{evictions}")
            hp_ev = c.get("evictions_hp")
            lp_ev = c.get("evictions_lp")
            if hp_ev is not None and lp_ev is not None \
                    and hp_ev + lp_ev != evictions:
                raise SanitizerError(
                    f"counters evictions_hp ({hp_ev}) + evictions_lp "
                    f"({lp_ev}) != evictions ({evictions})")
        promos = c.get("hp_promotions")
        demos = c.get("hp_demotions")
        final = c.get("hp_lines_final")
        if promos is not None and demos is not None and final is not None \
                and promos - demos != final:
            raise SanitizerError(
                f"counters hp_promotions ({promos}) - hp_demotions ({demos}) "
                f"!= hp_lines_final ({final})")
        self.checks += 1
