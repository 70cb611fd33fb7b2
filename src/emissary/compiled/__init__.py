"""Compiled kernel backend: provider registry + batch dispatcher.

The batched Python engine pays three costs the policies themselves
don't need: the stable set-major sort, the per-step NumPy calls of the
lockstep kernels (a few dozen per step, each over the active sets'
rows), and the Python bytecode of the per-set loops that finish the
long sets (with a NumPy->list conversion per set).  The compiled backend
removes all three — accesses stay in **trace order** (sets are
independent, so per-set state evolution is identical; see
:mod:`emissary.compiled.kernels_py` for the proof obligations) and one
call into native code processes the whole batch over flat per-set state
arrays, under the same names the Python kernels use.

Three providers implement the same ten kernel entry points:

``numba``
    ``@njit`` over ``kernels_py`` (optional dependency; install extra
    ``emissary[compiled]``).  First use pays JIT compilation.
``cc``
    A C translation compiled on demand with the system C compiler and
    bound via ``ctypes`` — no third-party dependency at all.
``python``
    ``kernels_py`` executed by the interpreter.  Slow (it exists so the
    kernel logic is always testable), so it is *not* auto-selected.

:func:`get_kernels` picks the first available provider in the order
``numba``, ``cc``.  The ``EMISSARY_COMPILED`` environment variable
overrides: ``off`` disables the backend entirely (engines fall back to
the batched Python kernels with a warning), any provider name pins the
auto choice.  Requesting a specific unavailable provider raises
:class:`CompiledUnavailableError` — auto selection with no provider
available also raises it, and the *engine* turns that into a
warn-and-fall-back unless the caller pinned a provider.

Outcome contract: bit-identical hit vectors, policy stats, telemetry
counters, and histograms versus the batched Python kernels and the
naive reference — enforced by the differential test suite and the
runtime sanitizer.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from emissary.compiled import kernels_py
from emissary.compiled.kernels_py import (
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

#: Auto-selection order.  ``python`` is deliberately absent: it is the
#: same interpreter loop the batched engine already beats, so silently
#: "succeeding" with it would defeat the point of asking for compiled.
PROVIDER_ORDER = ("numba", "cc")

#: All loadable provider names (``python`` must be requested explicitly).
PROVIDER_NAMES = ("numba", "cc", "python")

COMPILED_ENV = "EMISSARY_COMPILED"

POLICY_NAMES = ("lru", "random", "srrip", "emissary")


class CompiledUnavailableError(RuntimeError):
    """No compiled kernel provider could be loaded (or it was disabled)."""


class PyKernels:
    """Interpreter provider: ``kernels_py`` called directly (test/debug)."""

    name = "python"

    def __init__(self) -> None:
        for fn_name in kernels_py.KERNEL_NAMES:
            setattr(self, fn_name, getattr(kernels_py, fn_name))


def _load_provider(name: str) -> Any:
    if name == "numba":
        from emissary.compiled import numba_backend
        return numba_backend.load_kernels()
    if name == "cc":
        from emissary.compiled import cc_backend
        return cc_backend.load_kernels()
    if name == "python":
        return PyKernels()
    raise ValueError(
        f"unknown compiled provider {name!r} (expected one of {PROVIDER_NAMES})")


#: Loaded provider objects by name; failures cached as error strings so
#: e.g. a missing C compiler is probed once per process, not per run.
_provider_cache: dict[str, Any] = {}
_failure_cache: dict[str, str] = {}


def reset_provider_cache() -> None:
    """Forget cached providers and failures (tests re-probe after
    monkeypatching the environment)."""
    _provider_cache.clear()
    _failure_cache.clear()


def _env_choice() -> str:
    return os.environ.get(COMPILED_ENV, "").strip().lower()


def available_providers() -> tuple[str, ...]:
    """Provider names auto-selection may try, in preference order,
    honoring ``EMISSARY_COMPILED`` (``off`` -> none, a name -> just it)."""
    env = _env_choice()
    if env == "off":
        return ()
    if env in PROVIDER_NAMES:
        return (env,)
    if env not in ("", "auto"):
        raise ValueError(
            f"{COMPILED_ENV}={env!r} not understood (expected 'off', "
            f"'auto', or one of {PROVIDER_NAMES})")
    return PROVIDER_ORDER


def _try_load(name: str) -> Any | None:
    if name in _provider_cache:
        return _provider_cache[name]
    if name in _failure_cache:
        return None
    try:
        kernels = _load_provider(name)
    except Exception as exc:  # ImportError / CcBuildError / OSError
        _failure_cache[name] = f"{name}: {exc}"
        return None
    _provider_cache[name] = kernels
    return kernels


def get_kernels(provider: str | None = None) -> Any:
    """Load a kernel provider (cached per process).

    ``provider=None`` auto-selects via :func:`available_providers`;
    naming one pins it (and still respects ``EMISSARY_COMPILED=off``,
    the operational kill-switch).  Raises
    :class:`CompiledUnavailableError` with the collected per-provider
    reasons when nothing can be loaded.
    """
    if _env_choice() == "off":
        raise CompiledUnavailableError(
            f"compiled kernels disabled via {COMPILED_ENV}=off")
    if provider is not None:
        if provider not in PROVIDER_NAMES:
            raise ValueError(f"unknown compiled provider {provider!r} "
                             f"(expected one of {PROVIDER_NAMES})")
        kernels = _try_load(provider)
        if kernels is None:
            raise CompiledUnavailableError(_failure_cache[provider])
        return kernels
    tried: list[str] = []
    for name in available_providers():
        kernels = _try_load(name)
        if kernels is not None:
            return kernels
        tried.append(_failure_cache[name])
    raise CompiledUnavailableError(
        "no compiled kernel provider available"
        + (f" ({'; '.join(tried)})" if tried else ""))


class CompiledKernel:
    """Batch dispatcher over one provider's native kernels.

    Mirrors the :class:`~emissary.policies.base.PolicyKernel` surface
    the engines rely on (``needs_rng`` / ``needs_repeat_flags`` /
    ``consumes_cost`` flags, ``attach_telemetry`` /
    ``telemetry_finalize`` / ``extra_stats``), but replaces the
    set-sorted ``run_sets`` with :meth:`run_batch`: one call per engine
    dispatch, accesses in trace order, no set-major sort required.

    State lives in flat preallocated int64 arrays (``num_sets * ways``
    per channel) shared across dispatches, so streamed chunked execution
    carries state exactly like the Python kernels do.

    Telemetry semantics match the instrumented Python kernels name for
    name: counter deltas accumulate in a packed int64 array inside the
    native loop and fold into the registry at
    :meth:`telemetry_finalize`; per-eviction victim hit counts come back
    through a per-dispatch buffer and feed the ``line_hits`` histogram.
    """

    def __init__(self, kernels: Any, policy: str, num_sets: int, ways: int,
                 **params: Any) -> None:
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r} "
                             f"(expected one of {POLICY_NAMES})")
        self.provider = kernels.name
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
            self._dummy_cost = np.zeros(0, dtype=np.int64)
            self._partitioned = self.hp_budget == "partitioned"
            if self._partitioned:
                self.consumes_core = True
                self._owner = np.full(lines, -1, dtype=np.int64)
                self._hp_by_core = np.zeros(num_sets * self.num_cores,
                                            dtype=np.int64)
                self._quota = np.asarray(
                    core_quotas(self.hp_threshold, self.num_cores),
                    dtype=np.int64)

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
        set_idx = np.ascontiguousarray(set_idx, dtype=np.int64)
        tags = np.ascontiguousarray(tags, dtype=np.int64)
        h8 = hits.view(np.uint8)
        k = self._kernels
        ways = self.ways
        policy = self.policy
        self._dispatches += 1
        if self._tel is None:
            if policy == "lru":
                k.lru_run(set_idx, tags, self._tag, self._ts, self._size,
                          self._clock, ways, h8)
            elif policy == "random":
                assert u is not None
                k.random_run(set_idx, tags,
                             np.ascontiguousarray(u, dtype=np.float64),
                             self._tag, self._size, ways, h8)
            elif policy == "srrip":
                assert rep is not None
                k.srrip_run(set_idx, tags,
                            np.ascontiguousarray(rep, dtype=np.uint8),
                            self._tag, self._rrpv, self._size, ways, h8)
            elif self._partitioned:
                assert u is not None
                cost_arr, has_cost = self._cost_args(cost)
                k.emissary_part_run(set_idx, tags,
                                    np.ascontiguousarray(u, dtype=np.float64),
                                    cost_arr, has_cost, self._core_arg(core, m),
                                    self._tag, self._ts, self._prio,
                                    self._owner, self._size, self._hp,
                                    self._hp_by_core, self._quota, self._clock,
                                    self._stats, ways, self.num_cores,
                                    self.hp_threshold, self.prob_inv,
                                    self.min_l1_misses, h8)
            else:
                assert u is not None
                cost_arr, has_cost = self._cost_args(cost)
                k.emissary_run(set_idx, tags,
                               np.ascontiguousarray(u, dtype=np.float64),
                               cost_arr, has_cost, self._tag, self._ts,
                               self._prio, self._size, self._hp, self._clock,
                               self._stats, ways, self.hp_threshold,
                               self.prob_inv, self.min_l1_misses, h8)
            return hits

        tel = self._tel
        assert extra is not None
        extra_arr = np.ascontiguousarray(extra, dtype=np.int64)
        evbuf = np.empty(m, dtype=np.int64)
        if policy == "lru":
            nev = k.lru_run_tel(set_idx, tags, extra_arr, self._tag, self._ts,
                                self._size, self._clock, self._line_hits,
                                self._counters, evbuf, ways, h8)
        elif policy == "random":
            assert u is not None
            nev = k.random_run_tel(set_idx, tags,
                                   np.ascontiguousarray(u, dtype=np.float64),
                                   extra_arr, self._tag, self._size,
                                   self._line_hits, self._counters, evbuf,
                                   ways, h8)
        elif policy == "srrip":
            assert rep is not None
            nev = k.srrip_run_tel(set_idx, tags,
                                  np.ascontiguousarray(rep, dtype=np.uint8),
                                  extra_arr, self._tag, self._rrpv, self._size,
                                  self._line_hits, self._counters, evbuf,
                                  ways, h8)
        elif self._partitioned:
            assert u is not None
            cost_arr, has_cost = self._cost_args(cost)
            nev = k.emissary_part_run_tel(
                set_idx, tags, np.ascontiguousarray(u, dtype=np.float64),
                cost_arr, has_cost, self._core_arg(core, m), extra_arr,
                self._tag, self._ts, self._prio, self._owner, self._size,
                self._hp, self._hp_by_core, self._quota, self._clock,
                self._line_hits, self._counters, evbuf, self._stats, ways,
                self.num_cores, self.hp_threshold, self.prob_inv,
                self.min_l1_misses, h8)
        else:
            assert u is not None
            cost_arr, has_cost = self._cost_args(cost)
            nev = k.emissary_run_tel(set_idx, tags,
                                     np.ascontiguousarray(u, dtype=np.float64),
                                     cost_arr, has_cost, extra_arr, self._tag,
                                     self._ts, self._prio, self._size,
                                     self._hp, self._clock, self._line_hits,
                                     self._counters, evbuf, self._stats, ways,
                                     self.hp_threshold, self.prob_inv,
                                     self.min_l1_misses, h8)
        if nev:
            tel.observe_many("line_hits", evbuf[:nev].tolist())
        return hits

    def _cost_args(self, cost: IndexArray | None) -> tuple[IndexArray, int]:
        """(cost array, has_cost flag); the kernels never index the
        zero-length dummy because ``has_cost == 0`` short-circuits."""
        if cost is None:
            return self._dummy_cost, 0
        return np.ascontiguousarray(cost, dtype=np.int64), 1

    def _core_arg(self, core: IndexArray | None, m: int) -> IndexArray:
        """Partitioned kernels index ``core`` unconditionally; a
        core-less caller (single-core engine) is treated as core 0."""
        if core is None:
            return np.zeros(m, dtype=np.int64)
        return np.ascontiguousarray(core, dtype=np.int64)

    # -- telemetry --------------------------------------------------------

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Enable instrumentation (must precede the first access):
        dispatches switch to the ``*_tel`` kernels, which maintain
        per-line hit counts and the packed counter array."""
        self._tel = telemetry
        self._line_hits = np.zeros(self.num_sets * self.ways, dtype=np.int64)
        self._counters = np.zeros(NUM_COUNTERS, dtype=np.int64)

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
                         provider: str | None = None,
                         **params: Any) -> CompiledKernel:
    """Load a provider (auto unless pinned) and build a
    :class:`CompiledKernel` for ``policy`` over a ``num_sets x ways``
    geometry.  Raises :class:`CompiledUnavailableError` when no provider
    can be loaded."""
    return CompiledKernel(get_kernels(provider), policy, num_sets, ways,
                          **params)
