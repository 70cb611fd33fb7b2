"""EMISSARY trace-driven cache simulation engine.

Reproduction scaffold for "EMISSARY: Enhanced Miss Awareness Replacement
Policy for L2 Instruction Caching" (ISCA 2023).  The package provides:

- :mod:`emissary.traces` — synthetic instruction-stream generators
- :mod:`emissary.api` — typed :class:`PolicySpec` / :class:`SimRequest`
  request objects and the unified :func:`simulate` entry point
- :mod:`emissary.engine` — batched set-major engine + naive reference engine
- :mod:`emissary.hierarchy` — two-level L1I -> L2 hierarchy engines (the
  paper's actual setting: EMISSARY at L2 behind an L1I filter, with HP
  candidacy driven by measured L1I miss counts)
- :mod:`emissary.policies` — replacement policy kernels (LRU, Random,
  SRRIP, EMISSARY)
- :mod:`emissary.compiled` — compiled kernel backend (one C source,
  built on demand with the system C compiler), bit-identical to the
  python kernels and selectable via ``SimRequest(backend="compiled")``
- :mod:`emissary.sweep` — parallel (trace x policy x params) sweep runner
  with an on-disk results cache
- :mod:`emissary.telemetry` — opt-in instrumentation layer: policy
  counters/histograms, engine phase spans, Chrome trace export
- :mod:`emissary.report` — run-report CLI rendering sweep ``--out`` JSON
- :mod:`emissary.bench` — the telemetry-off and sanitizer-off overhead
  guards (throughput is measured by ``benchmarks/run.py``)
- :mod:`emissary.analysis` — static analysis (the EMI determinism lint
  suite, ``python -m emissary.analysis``) and the opt-in runtime kernel
  state :class:`Sanitizer`
"""

from emissary.api import BACKENDS, PolicySpec, SimRequest, simulate
from emissary.compiled import CompiledUnavailableError
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine, SimResult
from emissary.hierarchy import (BatchedHierarchyEngine, HierarchyConfig,
                                HierarchyReferenceEngine, HierarchyResult)
from emissary.telemetry import TELEMETRY_SCHEMA_VERSION, Telemetry
from emissary.wire import WIRE_SCHEMA_VERSION

__version__ = "0.4.0"

__all__ = [
    "BACKENDS",
    "BatchedEngine",
    "BatchedHierarchyEngine",
    "CacheConfig",
    "CompiledUnavailableError",
    "HierarchyConfig",
    "HierarchyReferenceEngine",
    "HierarchyResult",
    "PolicySpec",
    "ReferenceEngine",
    "Sanitizer",
    "SanitizerError",
    "SimRequest",
    "SimResult",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "WIRE_SCHEMA_VERSION",
    "simulate",
    "__version__",
]


def __getattr__(name: str) -> type:
    # Loaded on first use: :mod:`emissary.analysis` pulls in the lint
    # framework, which no simulation needs.
    if name in ("Sanitizer", "SanitizerError"):
        from emissary.analysis import sanitizer
        return getattr(sanitizer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
