"""Compiled kernel backend: the C kernels' loader and batch dispatcher.

The batched Python engine pays three costs the policies themselves
don't need: the stable set-major sort, the per-step NumPy calls of the
lockstep kernels (a few dozen per step, each over the active sets'
rows), and the Python bytecode of the per-set loops that finish the
long sets (with a NumPy->list conversion per set).  The compiled backend
removes all three: accesses stay in **trace order** (sets are
independent, so per-set state evolution is identical; see
:mod:`emissary.compiled.cc_backend` for the semantics contract) and one
call into native code processes the whole batch.  A
:class:`CompiledKernel` owns no policy state: it wraps the Python
kernel that :func:`emissary.policies.make_kernel` builds and points the
C kernel at that kernel's flat arrays, so its flags, parameters, stats
and state checks are the Python kernel's own.

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
    CTR_FILLS,
    CTR_HP_PROMOTIONS,
    NUM_COUNTERS,
    CcKernels,
    KernelArgs,
)
from emissary.policies import make_kernel
from emissary.policies.base import PolicyKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.telemetry import Telemetry

BoolArray = NDArray[np.bool_]
IndexArray = NDArray[np.int64]
UniformArray = NDArray[np.float64]

COMPILED_ENV = "EMISSARY_COMPILED"

#: ``KernelArgs`` fields that point at the wrapped kernel's flat state
#: array of the same name (``tag`` is ``_tag``); a field whose array the
#: policy does not keep stays NULL.
STATE_FIELDS = ("tag", "ts", "rrpv", "owner", "size", "hp", "hp_by_pool",
                "quota", "clock", "stats", "line_hits")

#: ``KernelArgs`` fields copied from the wrapped kernel's attribute of
#: the same name (0 where the policy has none).
PARAM_FIELDS = ("pools", "hp_threshold", "prob_inv", "min_l1_misses")


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
    """Batch dispatcher running the C kernels over a Python kernel's state.

    Wraps ``kernel`` (a :class:`~emissary.policies.base.PolicyKernel`,
    kept as :attr:`inner`) and mirrors the surface the engines rely on:
    the ``needs_rng`` / ``needs_repeat_flags`` / ``consumes_cost`` /
    ``consumes_core`` flags, ``attach_telemetry`` /
    ``telemetry_finalize`` / ``extra_stats``.  It replaces the
    set-sorted ``run_sets`` with :meth:`run_batch`: one call per engine
    dispatch, accesses in trace order, no set-major sort required.

    Every dispatch passes one :class:`~emissary.compiled.cc_backend.KernelArgs`
    block, built once: its state pointers address the wrapped kernel's
    flat arrays, which both implementations update in place and never
    rebind, so dispatches to :meth:`run_batch` and to the wrapped
    kernel's ``run_sets`` may alternate.  Each dispatch only fills in
    its inputs.

    Telemetry semantics match the instrumented Python kernels name for
    name: counter deltas accumulate in a packed int64 array inside the
    native loop and fold into the registry at
    :meth:`telemetry_finalize`; per-eviction victim hit counts come back
    through a per-dispatch buffer and feed the ``line_hits`` histogram.
    """

    def __init__(self, kernels: CcKernels, kernel: PolicyKernel) -> None:
        self.inner = kernel
        self.name = kernel.name
        self.needs_rng = kernel.needs_rng
        self.needs_repeat_flags = kernel.needs_repeat_flags
        self.consumes_cost = kernel.consumes_cost
        self.consumes_core = kernel.consumes_core
        self._kernels = kernels
        self._tel: "Telemetry" | None = None
        self._counters: IndexArray | None = None
        self._dispatches = 0
        self._entry = kernels.entry(self.name, tel=False)
        self._args = KernelArgs(ways=kernel.ways, **{
            field: getattr(kernel, field, 0) for field in PARAM_FIELDS})
        self._args_ref = ctypes.pointer(self._args)
        self._bind_state()

    def _bind_state(self) -> None:
        for name in STATE_FIELDS:
            arr = getattr(self.inner, "_" + name, None)
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
            raise ValueError(f"{self.name} kernel needs {field!r}")
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if len(arr) != m:
            raise ValueError(f"{field!r} has {len(arr)} entries for {m} "
                             "accesses")
        setattr(self._args, field, arr.ctypes.data)
        return arr

    # -- telemetry --------------------------------------------------------

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Enable instrumentation (must precede the first access): the
        wrapped kernel allocates its per-line hit counts, and dispatches
        switch to the ``*_tel`` kernels, which keep those counts and the
        packed counter array."""
        self.inner.attach_telemetry(telemetry)
        self._tel = telemetry
        self._counters = np.zeros(NUM_COUNTERS, dtype=np.int64)
        self._args.counters = self._counters.ctypes.data
        self._entry = self._kernels.entry(self.name, tel=True)
        self._bind_state()

    def telemetry_finalize(self) -> None:
        """Fold the packed counters into the registry under the names the
        instrumented Python kernels record per dispatch, then run the
        wrapped kernel's end-of-run accounting."""
        tel = self._tel
        if tel is None:
            return
        ctr = self._counters
        assert ctr is not None
        if self._dispatches:
            # The Python kernels create these counters on their first
            # dispatch; zero dispatches must leave them absent here too.
            tel.inc("fills", int(ctr[CTR_FILLS]))
            tel.inc("evictions", int(ctr[CTR_EVICTIONS]))
            tel.inc("dead_on_fill", int(ctr[CTR_DEAD_ON_FILL]))
            self.inner.count_classes(tel, int(ctr[CTR_EVICTIONS]),
                                     int(ctr[CTR_EVICTIONS_HP]),
                                     int(ctr[CTR_HP_PROMOTIONS]))
        self.inner.telemetry_finalize()

    def extra_stats(self) -> dict[str, Any]:
        return self.inner.extra_stats()


def make_compiled_kernel(policy: str, num_sets: int, ways: int,
                         **params: Any) -> CompiledKernel:
    """Load the C kernels and wrap a fresh Python kernel for ``policy``
    over a ``num_sets x ways`` geometry.  Raises
    :class:`CompiledUnavailableError` when they cannot be loaded."""
    return CompiledKernel(get_kernels(),
                          make_kernel(policy, num_sets, ways, **params))
