"""Policy kernel interfaces.

Every replacement policy ships two implementations with identical
semantics:

- a :class:`PolicyKernel` used by the batched set-major engine.  The
  engine hands it one contiguous chunk of accesses per set; the kernel
  runs a tight Python loop over plain lists (no per-access dispatch,
  no NumPy scalar indexing) and returns the hit/miss outcomes.
- a :class:`NaivePolicy` used by the per-access reference engine,
  mirroring the zsim-style ``update / find_victim / replaced`` API.

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from emissary.telemetry import Telemetry


class PolicyKernel:
    """Batched set-major kernel: processes one set's access chunk at a time.

    Telemetry is opt-in per instance: :meth:`attach_telemetry` swaps
    ``run_set`` for the kernel's instrumented variant (``_run_set_tel``),
    so the default fast loops carry **no** telemetry branches — disabled
    telemetry is structurally free, not just cheap.
    """

    name: str = "base"
    needs_rng: bool = False
    #: Set by :meth:`attach_telemetry`; instrumented loops record into it.
    _tel: "Telemetry" | None = None
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
        accounting stays exact under run collapsing.  ``core`` (only when
        ``consumes_core``) is the per-access issuing core id; None means
        a single-core caller (treated as core 0).
        Returns one hit/miss bool per access.
        """
        raise NotImplementedError

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Enable instrumentation: rebind ``run_set`` to ``_run_set_tel``.

        Must be called before the first access (kernels may allocate
        accounting state here).  Subclasses extend it; every instrumented
        loop is semantically identical to its fast twin — the telemetry
        test suite asserts bit-identical hit vectors either way.
        """
        self._tel = telemetry
        self.run_set = self._run_set_tel  # type: ignore[method-assign]

    def _run_set_tel(self, set_index: int, tags: list[int],
                     u: Sequence[float] | None,
                     rep: Sequence[bool] | None = None,
                     cost: Sequence[int] | None = None,
                     extra: Sequence[int] | None = None,
                     core: Sequence[int] | None = None) -> list[bool]:
        raise NotImplementedError(
            f"{type(self).__name__} has no instrumented loop")

    def telemetry_finalize(self) -> None:
        """End-of-run accounting (resident-line histograms, occupancy)."""

    def extra_stats(self) -> dict[str, Any]:
        """Policy-specific counters folded into the simulation result."""
        return {}


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
