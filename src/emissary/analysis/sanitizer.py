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

Attachment order matters and the engines get it right: telemetry first
(it rebinds ``run_set`` to the instrumented twin), then the sanitizer
(which wraps whatever ``run_set`` is bound to), so instrumented and
plain runs are both checked.  LRU and the compiled kernels resolve a
whole dispatch in one call; the sanitizer wraps that call and checks
the flat state of every set it touched.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from emissary.compiled import BoolArray, CompiledKernel, IndexArray, UniformArray
from emissary.policies.base import NaivePolicy, PolicyKernel
from emissary.policies.emissary import EmissaryKernel, NaiveEmissary
from emissary.policies.lru import LRUKernel, NaiveLRU
from emissary.policies.random_policy import NaiveRandom, RandomKernel
from emissary.policies.srrip import RRPV_MAX, NaiveSRRIP, SRRIPKernel

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
        """Wrap the kernel's dispatch entry point to validate touched
        sets after every dispatch.  Call after ``attach_telemetry`` (if
        any).  Compiled kernels are wrapped at ``run_batch`` and LRU at
        ``run_sets`` (their flat state arrays are validated per touched
        set); other Python kernels at ``run_set``."""
        if isinstance(kernel, CompiledKernel):
            self._attach_compiled(kernel)
            return
        if isinstance(kernel, LRUKernel):
            self._attach_lru(kernel)
            return
        check = self._kernel_checker(kernel)
        inner = kernel.run_set
        self.attached.append(kernel.name)

        def run_set(set_index: int, tags: list[int],
                    u: Sequence[float] | None,
                    rep: Sequence[bool] | None = None,
                    cost: Sequence[int] | None = None,
                    extra: Sequence[int] | None = None,
                    core: Sequence[int] | None = None) -> list[bool]:
            hits = inner(set_index, tags, u, rep, cost, extra, core)
            self.accesses += len(tags)
            if check is not None:
                check(set_index, self.accesses)
            self.checks += 1
            return hits

        kernel.run_set = run_set  # type: ignore[method-assign]

    def _attach_compiled(self, kernel: CompiledKernel) -> None:
        """Wrap ``kernel.run_batch``: after each dispatch, validate the
        flat per-set state arrays of every set the batch touched."""
        inner = kernel.run_batch
        self.attached.append(kernel.name)

        def run_batch(set_idx: IndexArray, tags: IndexArray,
                      u: "UniformArray | None" = None,
                      rep: "NDArray[np.bool_] | None" = None,
                      cost: "IndexArray | None" = None,
                      extra: "IndexArray | None" = None,
                      core: "IndexArray | None" = None) -> BoolArray:
            hits = inner(set_idx, tags, u, rep, cost, extra, core)
            self.accesses += len(tags)
            for s in sorted(set(set_idx.tolist())):
                self._check_compiled(kernel, s, self.accesses)
            self.checks += 1
            return hits

        kernel.run_batch = run_batch  # type: ignore[method-assign]

    def _attach_lru(self, kernel: LRUKernel) -> None:
        """Wrap ``kernel.run_sets``: after each dispatch, validate the
        flat state of every set the dispatch touched."""
        inner = kernel.run_sets
        self.attached.append(kernel.name)

        def run_sets(sets: IndexArray, starts: IndexArray, ends: IndexArray,
                     lines: "NDArray[np.uint64]",
                     u: "UniformArray | None" = None,
                     rep: "NDArray[np.bool_] | None" = None,
                     cost: "IndexArray | None" = None,
                     extra: "IndexArray | None" = None,
                     core: "IndexArray | None" = None) -> BoolArray:
            hits = inner(sets, starts, ends, lines, u, rep, cost, extra, core)
            self.accesses += len(lines)
            for s in sets.tolist():
                self._check_lru(kernel, s, self.accesses)
            self.checks += 1
            return hits

        kernel.run_sets = run_sets  # type: ignore[method-assign]

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

    def _check_lru(self, kernel: LRUKernel, s: int, pos: int) -> None:
        ways = kernel.ways
        base = s * ways
        size = int(kernel._size[s])
        self._check_slots("lru", ways, size,
                          kernel._tag[base:base + size].tolist(), s, pos)
        if kernel._hits is not None:
            counts = kernel._hits[base:base + size].tolist()
            if any(count < 0 for count in counts):
                raise SanitizerError(
                    f"lru: negative hit count in {counts}",
                    set_index=s, access_position=pos)

    def _check_compiled(self, kernel: CompiledKernel, s: int,
                        pos: int) -> None:
        """Same invariants the per-policy Python checkers enforce, read
        from the compiled backend's flat state arrays."""
        name = f"compiled/{kernel.policy}"
        ways = kernel.ways
        base = s * ways
        size = int(kernel._size[s])
        tags = kernel._tag[base:base + size].tolist()
        self._check_slots(name, ways, size, tags, s, pos)
        if kernel.policy in ("lru", "emissary"):
            stamps = kernel._ts[base:base + size].tolist()
            if any(t <= 0 for t in stamps):
                raise SanitizerError(
                    f"{name}: non-positive timestamp on a resident line "
                    f"{stamps}", set_index=s, access_position=pos)
            if len(set(stamps)) != size:
                raise SanitizerError(
                    f"{name}: duplicate timestamps {stamps} (LRU order is "
                    "ambiguous)", set_index=s, access_position=pos)
        if kernel.policy == "srrip":
            for way, rrpv in enumerate(kernel._rrpv[base:base + size].tolist()):
                if not 0 <= rrpv <= RRPV_MAX:
                    raise SanitizerError(
                        f"{name}: RRPV {rrpv} at way {way} outside "
                        f"[0, {RRPV_MAX}]", set_index=s, access_position=pos)
        if kernel.policy == "emissary":
            hp = 0
            for way, prio in enumerate(kernel._prio[base:base + size].tolist()):
                if prio not in (0, 1):
                    raise SanitizerError(
                        f"{name}: priority bit {prio!r} at way {way} is not "
                        "0/1", set_index=s, access_position=pos)
                hp += prio
            if hp != int(kernel._hp[s]):
                raise SanitizerError(
                    f"{name}: hp_counts[{s}] = {int(kernel._hp[s])} but {hp} "
                    "HP lines are resident", set_index=s, access_position=pos)
            if hp > kernel.hp_threshold:
                raise SanitizerError(
                    f"{name}: {hp} HP lines exceed hp_threshold="
                    f"{kernel.hp_threshold}", set_index=s, access_position=pos)
            if getattr(kernel, "_partitioned", False):
                nc = kernel.num_cores
                prios = kernel._prio[base:base + size].tolist()
                owner_slice = kernel._owner[base:base + size].tolist()
                self._check_partition(
                    name, s, pos, kernel._quota.tolist(),
                    kernel._hp_by_core[s * nc:(s + 1) * nc].tolist(), hp,
                    owner_of={w for w, p in enumerate(prios) if p},
                    owners={w: owner_slice[w] for w in range(size)
                            if owner_slice[w] >= 0})

    def _kernel_checker(
            self, kernel: PolicyKernel) -> Callable[[int, int], None] | None:
        if isinstance(kernel, EmissaryKernel):
            return lambda s, pos: self._check_emissary(kernel, s, pos)
        if isinstance(kernel, SRRIPKernel):
            return lambda s, pos: self._check_srrip(kernel, s, pos)
        if isinstance(kernel, RandomKernel):
            return lambda s, pos: self._check_random(kernel, s, pos)
        return None  # unknown kernel: dispatch counting only

    def _check_emissary(self, kernel: EmissaryKernel, s: int, pos: int) -> None:
        d = kernel._sets[s]
        if len(d) > kernel.ways:
            raise SanitizerError(
                f"emissary: {len(d)} resident lines exceed {kernel.ways} ways",
                set_index=s, access_position=pos)
        hp = 0
        for tag, prio in d.items():
            if prio not in (0, 1):
                raise SanitizerError(
                    f"emissary: priority bit {prio!r} for tag {tag} is not 0/1",
                    set_index=s, access_position=pos)
            hp += prio
        if hp != kernel.hp_counts[s]:
            raise SanitizerError(
                f"emissary: hp_counts[{s}] = {kernel.hp_counts[s]} but "
                f"{hp} HP lines are resident", set_index=s, access_position=pos)
        if hp > kernel.hp_threshold:
            raise SanitizerError(
                f"emissary: {hp} HP lines exceed hp_threshold="
                f"{kernel.hp_threshold}", set_index=s, access_position=pos)
        hits_of = getattr(kernel, "_hits_of", None)
        if hits_of is not None and hits_of[s].keys() != d.keys():
            raise SanitizerError(
                "emissary: instrumented hit accounting tracks different "
                "tags than the residency map", set_index=s, access_position=pos)
        if kernel.partitioned:
            self._check_partition(
                "emissary", s, pos, kernel.core_quotas,
                kernel.hp_by_core[s], hp,
                owner_of={t for t, p in d.items() if p},
                owners=kernel._owner[s])

    @staticmethod
    def _check_partition(name: str, s: int, pos: int, quotas: Sequence[int],
                         by_core: Sequence[int], hp: int,
                         owner_of: set, owners: dict) -> None:
        """Partitioned-budget invariants: per-core counts stay inside
        their quotas and sum to the set's HP total, and exactly the HP
        lines carry an owner whose tally matches the per-core counts."""
        if owners.keys() != owner_of:
            raise SanitizerError(
                f"{name}: owner map tracks {sorted(owners)} but the HP "
                f"lines are {sorted(owner_of)}",
                set_index=s, access_position=pos)
        tallied = [0] * len(quotas)
        for cr in owners.values():
            if not 0 <= cr < len(quotas):
                raise SanitizerError(
                    f"{name}: owner core {cr} outside [0, {len(quotas)})",
                    set_index=s, access_position=pos)
            tallied[cr] += 1
        if list(by_core) != tallied:
            raise SanitizerError(
                f"{name}: hp_by_core {list(by_core)} disagrees with the "
                f"owner map tally {tallied}",
                set_index=s, access_position=pos)
        if sum(by_core) != hp:
            raise SanitizerError(
                f"{name}: per-core HP counts sum to {sum(by_core)} but "
                f"{hp} HP lines are resident",
                set_index=s, access_position=pos)
        for cr, (count, quota) in enumerate(zip(by_core, quotas)):
            if not 0 <= count <= quota:
                raise SanitizerError(
                    f"{name}: core {cr} holds {count} HP lines outside its "
                    f"quota [0, {quota}]", set_index=s, access_position=pos)

    def _check_srrip(self, kernel: SRRIPKernel, s: int, pos: int) -> None:
        self._check_residency(kernel, "srrip", s, pos)
        for way, rrpv in enumerate(kernel.effective_rrpv(s)):
            if not 0 <= rrpv <= RRPV_MAX:
                raise SanitizerError(
                    f"srrip: RRPV {rrpv} at way {way} outside [0, {RRPV_MAX}]",
                    set_index=s, access_position=pos)

    def _check_random(self, kernel: RandomKernel, s: int, pos: int) -> None:
        self._check_residency(kernel, "random", s, pos)

    @staticmethod
    def _check_residency(kernel: PolicyKernel, name: str, s: int,
                         pos: int) -> None:
        """tag->way and way->tag maps must be inverse bijections."""
        ways_of = kernel._ways_of[s]  # type: ignore[attr-defined]
        tag_at = kernel._tag_at[s]  # type: ignore[attr-defined]
        if len(tag_at) > kernel.ways:
            raise SanitizerError(
                f"{name}: {len(tag_at)} resident lines exceed "
                f"{kernel.ways} ways", set_index=s, access_position=pos)
        if len(ways_of) != len(tag_at):
            raise SanitizerError(
                f"{name}: tag->way map has {len(ways_of)} entries but "
                f"{len(tag_at)} ways are resident",
                set_index=s, access_position=pos)
        for way, tag in enumerate(tag_at):
            if ways_of.get(tag) != way:
                raise SanitizerError(
                    f"{name}: way {way} holds tag {tag} but tag->way maps it "
                    f"to {ways_of.get(tag)}", set_index=s, access_position=pos)

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
            self._check_partition(
                "emissary", s, pos, impl.core_quotas,
                impl.hp_by_core[s], hp,
                owner_of={w for w in range(impl.ways)
                          if impl.priority[base + w]},
                owners={w: impl.owner[base + w] for w in range(impl.ways)
                        if impl.owner[base + w] >= 0})

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
