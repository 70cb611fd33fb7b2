"""Compiled kernel backend: the C kernels' loader and batch dispatcher.

The batched Python engine pays three costs the policies themselves
don't need: the stable set-major sort, the per-step NumPy calls of the
lockstep kernels (a few dozen per step, each over the active sets'
rows), and the Python bytecode of the per-set loops that finish the
long sets (with a NumPy->list conversion per set).  The compiled backend
removes all three: accesses stay in **trace order** (sets are
independent, so per-set state evolution is identical; see
:mod:`emissary.compiled.cc_backend` for the semantics contract) and one
call into native code processes the whole batch over flat per-set state
arrays, under the same names the Python kernels use.

The kernels are one C source (:mod:`emissary.compiled.cc_backend`),
compiled on demand with the system C compiler and bound via ``ctypes``.
:func:`get_kernels` loads them once per process.  The
``EMISSARY_COMPILED`` environment variable is the kill switch: ``off``
disables the backend (engines fall back to the batched Python kernels
with a warning); unset, ``auto`` or ``cc`` load the C kernels.  When
they cannot be loaded (no C compiler, or ``off``),
:func:`get_kernels` raises :class:`CompiledUnavailableError`, which the
*engine* turns into a warn-and-fall-back.

Outcome contract: bit-identical hit vectors, policy stats, telemetry
counters, and histograms versus the batched Python kernels and the
naive reference, enforced by the differential test suite and the
runtime sanitizer.
"""

from __future__ import annotations

import ctypes
import os
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from emissary.compiled import cc_backend
from emissary.compiled.cc_backend import (
    CTR_DEAD_ON_FILL,
    CTR_EVICTIONS,
    CTR_EVICTIONS_HP,
    CTR_EVICTIONS_LP,
    CTR_FILLS,
    CTR_HP_PROMOTIONS,
    NUM_COUNTERS,
    NUM_STATS,
    STAT_HP_EVICTIONS,
    STAT_HP_PROMOTIONS,
    CcKernels,
    KernelArgs,
)
from emissary.policies.emissary import (
    DEFAULT_HP_BUDGET,
    DEFAULT_HP_THRESHOLD,
    DEFAULT_MIN_L1_MISSES,
    DEFAULT_PROB_INV,
    _check_params,
    core_quotas,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.telemetry import Telemetry

BoolArray = NDArray[np.bool_]
IndexArray = NDArray[np.int64]
UniformArray = NDArray[np.float64]

COMPILED_ENV = "EMISSARY_COMPILED"

POLICY_NAMES = ("lru", "random", "srrip", "emissary")

#: ``KernelArgs`` fields that point at a ``CompiledKernel``'s flat state
#: array of the same name (``tag`` is ``_tag``).
STATE_FIELDS = ("tag", "ts", "rrpv", "prio", "owner", "size", "hp",
                "hp_by_core", "quota", "clock", "stats", "line_hits",
                "counters")


class CompiledUnavailableError(RuntimeError):
    """The compiled kernels could not be loaded (or were disabled)."""


#: The loaded kernels, or why they failed to load, so e.g. a missing C
#: compiler is probed once per process, not per run.
_loaded: CcKernels | None = None
_failure: str | None = None


def reset_provider_cache() -> None:
    """Forget the loaded kernels and any load failure (tests re-probe
    after monkeypatching the environment)."""
    global _loaded, _failure
    _loaded = None
    _failure = None


def get_kernels() -> CcKernels:
    """Load the C kernels (cached per process).

    Raises :class:`CompiledUnavailableError` when ``EMISSARY_COMPILED``
    is ``off`` or the kernels cannot be built, and ``ValueError`` for
    any other value than unset, ``auto`` or ``cc``.
    """
    global _loaded, _failure
    env = os.environ.get(COMPILED_ENV, "").strip().lower()
    if env == "off":
        raise CompiledUnavailableError(
            f"compiled kernels disabled via {COMPILED_ENV}=off")
    if env not in ("", "auto", "cc"):
        raise ValueError(f"{COMPILED_ENV}={env!r} not understood "
                         "(expected 'off', 'auto' or 'cc')")
    if _loaded is None and _failure is None:
        try:
            _loaded = cc_backend.load_kernels()
        except (cc_backend.CcBuildError, OSError) as exc:
            _failure = f"cc: {exc}"
    if _loaded is None:
        raise CompiledUnavailableError(
            f"no compiled kernels available ({_failure})")
    return _loaded


class CompiledKernel:
    """Batch dispatcher over the C kernels.

    Mirrors the :class:`~emissary.policies.base.PolicyKernel` surface
    the engines rely on (``needs_rng`` / ``needs_repeat_flags`` /
    ``consumes_cost`` flags, ``attach_telemetry`` /
    ``telemetry_finalize`` / ``extra_stats``), but replaces the
    set-sorted ``run_sets`` with :meth:`run_batch`: one call per engine
    dispatch, accesses in trace order, no set-major sort required.

    State lives in flat preallocated int64 arrays (``num_sets * ways``
    per channel) shared across dispatches, so streamed chunked execution
    carries state exactly like the Python kernels do.

    Every dispatch passes one :class:`~emissary.compiled.cc_backend.KernelArgs`
    block, built once: its state pointers address the flat arrays, which
    are updated in place and never rebound, and each dispatch only fills
    in its inputs.

    Telemetry semantics match the instrumented Python kernels name for
    name: counter deltas accumulate in a packed int64 array inside the
    native loop and fold into the registry at
    :meth:`telemetry_finalize`; per-eviction victim hit counts come back
    through a per-dispatch buffer and feed the ``line_hits`` histogram.
    """

    def __init__(self, kernels: CcKernels, policy: str, num_sets: int,
                 ways: int, **params: Any) -> None:
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r} "
                             f"(expected one of {POLICY_NAMES})")
        self._kernels = kernels
        self.policy = policy
        self.name = policy
        self.num_sets = num_sets
        self.ways = ways
        self.params = dict(params)
        self.needs_rng = policy in ("random", "emissary")
        self.needs_repeat_flags = policy == "srrip"
        self.consumes_cost = policy == "emissary"
        self.consumes_core = False
        self._partitioned = False
        self._tel: "Telemetry" | None = None
        self._dispatches = 0

        lines = num_sets * ways
        self._tag = np.zeros(lines, dtype=np.int64)
        self._size = np.zeros(num_sets, dtype=np.int64)
        if policy in ("lru", "emissary"):
            self._ts = np.zeros(lines, dtype=np.int64)
            # Clock starts at 1 (like the naive references) so a zero
            # timestamp always means "never filled".
            self._clock = np.ones(1, dtype=np.int64)
        if policy == "srrip":
            self._rrpv = np.zeros(lines, dtype=np.int64)
        if policy == "emissary":
            self.hp_threshold = int(
                self.params.get("hp_threshold", DEFAULT_HP_THRESHOLD))
            self.prob_inv = int(self.params.get("prob_inv", DEFAULT_PROB_INV))
            self.min_l1_misses = int(
                self.params.get("min_l1_misses", DEFAULT_MIN_L1_MISSES))
            self.hp_budget = str(
                self.params.get("hp_budget", DEFAULT_HP_BUDGET))
            # Execution context injected by the engine, not a policy
            # parameter (see ``_make_engine_kernel``).
            self.num_cores = int(self.params.pop("num_cores", 1))
            _check_params(ways, self.hp_threshold, self.prob_inv,
                          self.min_l1_misses, self.hp_budget, self.num_cores)
            self._prio = np.zeros(lines, dtype=np.int64)
            self._hp = np.zeros(num_sets, dtype=np.int64)
            self._stats = np.zeros(NUM_STATS, dtype=np.int64)
            self._partitioned = self.hp_budget == "partitioned"
            if self._partitioned:
                self.consumes_core = True
                self._owner = np.full(lines, -1, dtype=np.int64)
                self._hp_by_core = np.zeros(num_sets * self.num_cores,
                                            dtype=np.int64)
                self._quota = np.asarray(
                    core_quotas(self.hp_threshold, self.num_cores),
                    dtype=np.int64)
        self._kind = "emissary_part" if self._partitioned else policy
        self._entry = kernels.entry(self._kind, tel=False)
        self._args = KernelArgs(ways=ways)
        self._args_ref = ctypes.pointer(self._args)
        if policy == "emissary":
            self._args.num_cores = self.num_cores
            self._args.hp_threshold = self.hp_threshold
            self._args.prob_inv = self.prob_inv
            self._args.min_cost = self.min_l1_misses
        self._bind_state()

    def _bind_state(self) -> None:
        for name in STATE_FIELDS:
            arr = getattr(self, "_" + name, None)
            setattr(self._args, name, None if arr is None else arr.ctypes.data)

    # -- execution --------------------------------------------------------

    def run_batch(self, set_idx: IndexArray, tags: IndexArray,
                  u: UniformArray | None = None,
                  rep: NDArray[np.bool_] | None = None,
                  cost: IndexArray | None = None,
                  extra: IndexArray | None = None,
                  core: IndexArray | None = None) -> BoolArray:
        """Simulate one batch of accesses **in trace order**.

        ``set_idx`` / ``tags`` are aligned per access; ``u`` / ``rep`` /
        ``cost`` / ``extra`` / ``core`` follow the same contract as
        :meth:`~emissary.policies.base.PolicyKernel.run_set`.  Returns
        the per-access hit/miss outcomes.
        """
        m = len(set_idx)
        hits = np.empty(m, dtype=np.bool_)
        if m == 0:
            return hits
        self._dispatches += 1
        a = self._args
        a.m = m
        a.hits = hits.ctypes.data
        # The converted arrays must outlive the call: ``keep`` holds them.
        keep = [self._feed("set_idx", set_idx, np.int64, m),
                self._feed("tags", tags, np.int64, m)]
        if self.needs_rng:
            keep.append(self._feed("u", u, np.float64, m))
        if self.needs_repeat_flags:
            keep.append(self._feed("rep", rep, np.uint8, m))
        if self.consumes_cost:
            a.has_cost = cost is not None
            a.cost = None
            if cost is not None:
                keep.append(self._feed("cost", cost, np.int64, m))
        if self.consumes_core:
            # A core-less caller (single-core engine) is core 0.
            keep.append(self._feed(
                "core", np.zeros(m, dtype=np.int64) if core is None else core,
                np.int64, m))
        tel = self._tel
        if tel is None:
            self._entry(self._args_ref)
            return hits
        keep.append(self._feed("extra", extra, np.int64, m))
        evbuf = np.empty(m, dtype=np.int64)
        a.evbuf = evbuf.ctypes.data
        nev = self._entry(self._args_ref)
        if nev:
            tel.observe_many("line_hits", evbuf[:nev].tolist())
        return hits

    def _feed(self, field: str, arr: NDArray[Any] | None, dtype: type,
              m: int) -> NDArray[Any]:
        """Point ``field`` at ``arr`` as ``m`` contiguous ``dtype`` values
        (one per access); returns the array the pointer addresses."""
        if arr is None:
            raise ValueError(f"{self.policy} kernel needs {field!r}")
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if len(arr) != m:
            raise ValueError(f"{field!r} has {len(arr)} entries for {m} "
                             "accesses")
        setattr(self._args, field, arr.ctypes.data)
        return arr

    # -- telemetry --------------------------------------------------------

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Enable instrumentation (must precede the first access):
        dispatches switch to the ``*_tel`` kernels, which maintain
        per-line hit counts and the packed counter array."""
        self._tel = telemetry
        self._line_hits = np.zeros(self.num_sets * self.ways, dtype=np.int64)
        self._counters = np.zeros(NUM_COUNTERS, dtype=np.int64)
        self._entry = self._kernels.entry(self._kind, tel=True)
        self._bind_state()

    def telemetry_finalize(self) -> None:
        """Fold the packed counters and end-of-run histograms into the
        registry — same names, same values as the instrumented Python
        kernels (the telemetry parity tests compare them)."""
        tel = self._tel
        if tel is None:
            return
        ctr = self._counters
        if self._dispatches:
            # The Python kernels create these counters on their first
            # dispatch; zero dispatches must leave them absent here too.
            tel.inc("fills", int(ctr[CTR_FILLS]))
            tel.inc("evictions", int(ctr[CTR_EVICTIONS]))
            tel.inc("dead_on_fill", int(ctr[CTR_DEAD_ON_FILL]))
            if self.policy == "emissary":
                tel.inc("evictions_hp", int(ctr[CTR_EVICTIONS_HP]))
                tel.inc("evictions_lp", int(ctr[CTR_EVICTIONS_LP]))
                tel.inc("hp_promotions", int(ctr[CTR_HP_PROMOTIONS]))
                tel.inc("hp_demotions", int(ctr[CTR_EVICTIONS_HP]))
        resident = (np.arange(self.ways, dtype=np.int64)[None, :]
                    < self._size[:, None])
        tel.observe_many(
            "resident_line_hits",
            self._line_hits.reshape(self.num_sets, self.ways)[resident].tolist())
        if self.policy == "emissary":
            tel.observe_many("hp_set_occupancy", self._hp.tolist())
            tel.inc("hp_lines_final", int(self._hp.sum()))

    def extra_stats(self) -> dict[str, Any]:
        if self.policy != "emissary":
            return {}
        stats = {
            "hp_threshold": self.hp_threshold,
            "prob_inv": self.prob_inv,
            "min_l1_misses": self.min_l1_misses,
            "hp_promotions": int(self._stats[STAT_HP_PROMOTIONS]),
            "hp_evictions": int(self._stats[STAT_HP_EVICTIONS]),
            "hp_lines_final": int(self._hp.sum()),
        }
        if self._partitioned:
            stats["hp_budget"] = self.hp_budget
            stats["hp_lines_final_by_core"] = (
                self._hp_by_core.reshape(self.num_sets, self.num_cores)
                .sum(axis=0).tolist())
        return stats

    # -- introspection (sanitizer / tests) --------------------------------

    def set_size(self, set_index: int) -> int:
        return int(self._size[set_index])

    def resident_tags(self, set_index: int) -> list[int]:
        base = set_index * self.ways
        return self._tag[base:base + self.set_size(set_index)].tolist()


def make_compiled_kernel(policy: str, num_sets: int, ways: int,
                         **params: Any) -> CompiledKernel:
    """Load the C kernels and build a :class:`CompiledKernel` for
    ``policy`` over a ``num_sets x ways`` geometry.  Raises
    :class:`CompiledUnavailableError` when they cannot be loaded."""
    return CompiledKernel(get_kernels(), policy, num_sets, ways, **params)
