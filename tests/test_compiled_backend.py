"""Compiled kernel backend: loading, selection, fallback and the C source.

The bit-identity of the compiled kernels themselves is established by
the hypothesis differential suite (``test_property_differential``); this
module covers the machinery *around* them:

- loading the C kernels (:func:`emissary.compiled.get_kernels`, the
  ``EMISSARY_COMPILED`` kill switch, cache reset, the library build),
- the C source's purity: it calls nothing outside itself,
- engine-level backend selection (warn-and-fall-back, ``kernel_backend``
  validation),
- :class:`~emissary.api.SimRequest` backend plumbing, including the
  deliberate *exclusion* of ``backend`` from the results-cache key,
- the sweep worker running a wire dict's ``backend``,
- the sanitizer on the compiled flat-state path, and
- the ``bench --backend`` harness (small-n smoke).

Tests that need the C kernels (a C compiler) are skip-marked.
"""

import os
import re
import stat

import numpy as np
import pytest

from emissary.analysis.sanitizer import Sanitizer, SanitizerError
from emissary.api import (BACKENDS, DEFAULT_BACKEND, PolicySpec, SimRequest,
                          simulate)
from emissary.compiled import (
    COMPILED_ENV,
    CompiledUnavailableError,
    cc_backend,
    get_kernels,
    make_compiled_kernel,
    reset_provider_cache,
)
from emissary.engine import BatchedEngine, CacheConfig
from emissary.hierarchy import BatchedHierarchyEngine
from emissary.telemetry import Telemetry
from emissary.traces import TraceSpec

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

_needs_compiled_skip = pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="no compiled kernels (no C compiler) available")


def needs_compiled(func):  # noqa: ANN001, ANN201 - pytest decorator
    return pytest.mark.needs_compiled(_needs_compiled_skip(func))

POLICIES = [
    PolicySpec("lru"),
    PolicySpec("random"),
    PolicySpec("srrip"),
    PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4}),
]


@pytest.fixture
def clean_providers(monkeypatch):
    """Fresh provider cache around environment monkeypatching, restored
    afterwards so later tests re-probe under the real environment."""
    reset_provider_cache()
    yield monkeypatch
    reset_provider_cache()


def _trace(n=4000, seed=7):
    return TraceSpec(kind="loop", n=n, seed=seed,
                     params={"footprint_lines": 256}).generate()


# -- loading the C kernels ------------------------------------------------

@needs_compiled
def test_available_providers_auto_is_provider_order(clean_providers):
    """Unset, ``auto`` and ``cc`` all load the one C provider."""
    for value in (None, "auto", "cc", " CC "):
        if value is None:
            clean_providers.delenv(COMPILED_ENV, raising=False)
        else:
            clean_providers.setenv(COMPILED_ENV, value)
        reset_provider_cache()
        assert get_kernels().name == "cc"


def test_available_providers_env_off(clean_providers):
    # `off` is the operational kill-switch.
    clean_providers.setenv(COMPILED_ENV, "off")
    with pytest.raises(CompiledUnavailableError, match="disabled"):
        get_kernels()
    with pytest.raises(CompiledUnavailableError, match="disabled"):
        make_compiled_kernel("lru", num_sets=4, ways=2)


@needs_compiled
def test_available_providers_env_pinned(clean_providers):
    clean_providers.setenv(COMPILED_ENV, "cc")
    assert get_kernels() is get_kernels()  # loaded once per process


def test_available_providers_env_invalid(clean_providers):
    clean_providers.setenv(COMPILED_ENV, "gpu")
    with pytest.raises(ValueError, match="EMISSARY_COMPILED"):
        get_kernels()


def test_get_kernels_unknown_provider(clean_providers):
    """Only the C provider exists: the old interpreter provider name is
    an error, not a silent choice."""
    clean_providers.setenv(COMPILED_ENV, "python")
    with pytest.raises(ValueError, match="not understood"):
        get_kernels()


@needs_compiled
def test_build_library_rejects_empty_source(clean_providers, tmp_path):
    """A library without the kernel symbols (``cc`` builds one from an
    empty file) is never published to the shared cache."""
    clean_providers.setenv("EMISSARY_CC_CACHE", str(tmp_path))
    clean_providers.setattr(cc_backend, "C_SOURCE", "")
    with pytest.raises(cc_backend.CcBuildError, match="does not export"):
        cc_backend.build_library()
    assert list(tmp_path.iterdir()) == []


@needs_compiled
def test_build_library_publishes_only_the_library(clean_providers, tmp_path):
    clean_providers.setenv("EMISSARY_CC_CACHE", str(tmp_path))
    lib_path = cc_backend.build_library()
    assert list(tmp_path.iterdir()) == [lib_path]
    assert cc_backend.build_library() == lib_path  # reused, not rebuilt
    assert cc_backend.CcKernels(lib_path).name == "cc"


_NO_UIDS = pytest.mark.skipif(not hasattr(os, "getuid"),
                              reason="the platform has no user ids")


def _refuse_loads(monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("a refused library was loaded")

    monkeypatch.setattr(cc_backend, "_bind", no_load)
    monkeypatch.setattr(cc_backend.ctypes, "CDLL", no_load)


@_NO_UIDS
def test_build_library_refuses_a_shared_cache_dir(clean_providers, tmp_path):
    """A cache directory others may write can hold a planted library:
    it is refused before anything in it is loaded, and the registry
    reports the kernels unavailable (engines then fall back)."""
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o777)
    planted = cache / cc_backend.library_name("cc")
    planted.write_bytes(b"not a library")
    clean_providers.setenv("EMISSARY_CC_CACHE", str(cache))
    clean_providers.delenv(COMPILED_ENV, raising=False)
    clean_providers.setattr(cc_backend, "find_compiler", lambda: "cc")
    _refuse_loads(clean_providers)
    with pytest.raises(cc_backend.CcBuildError, match=re.escape(str(cache))):
        cc_backend.build_library()
    with pytest.raises(CompiledUnavailableError, match="refusing"):
        get_kernels()


@_NO_UIDS
def test_build_library_refuses_a_shared_cached_library(clean_providers,
                                                       tmp_path):
    """A private directory with a group-writable library in it: the
    library is refused, not loaded."""
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    planted = cache / cc_backend.library_name("cc")
    planted.write_bytes(b"not a library")
    planted.chmod(0o664)
    clean_providers.setenv("EMISSARY_CC_CACHE", str(cache))
    _refuse_loads(clean_providers)
    with pytest.raises(cc_backend.CcBuildError, match=re.escape(str(planted))):
        cc_backend.build_library("cc")


@_NO_UIDS
def test_default_cache_dir_is_private(clean_providers, tmp_path):
    """The default cache directory is created readable by its owner only."""
    clean_providers.delenv("EMISSARY_CC_CACHE", raising=False)
    clean_providers.setattr(cc_backend.tempfile, "gettempdir",
                            lambda: str(tmp_path))
    cache = cc_backend._cache_dir()
    with pytest.raises(cc_backend.CcBuildError):
        cc_backend.build_library("false")  # a compiler that always fails
    assert cache.is_dir() and stat.S_IMODE(cache.stat().st_mode) == 0o700


def test_c_source_calls_only_its_own_functions():
    """The C source is the compiled kernels' purity guarantee: it
    includes nothing but ``<stdint.h>`` and every call names a function
    or macro it defines, so no kernel reaches ``rand``, ``time``,
    ``printf`` or ``fopen``."""
    source = re.sub(r"/\*.*?\*/", "", cc_backend.C_SOURCE, flags=re.S)
    assert re.findall(r"#\s*include\s*(\S+)", source) == ["<stdint.h>"]
    defined = set(re.findall(
        r"^[A-Za-z_][\w \t*]*?\b(\w+)\s*\([^;{]*\)\s*\{", source, re.M))
    defined |= set(re.findall(r"#\s*define\s+(\w+)\(", source))
    assert {"find_way", "lru_body", "emissary_body",
            *cc_backend.KERNEL_SYMBOLS} <= defined
    syntax = {"if", "for", "while", "return", "sizeof", "__attribute__"}
    calls = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", source))
    assert calls - defined - syntax == set()


# -- engine backend selection ---------------------------------------------

def test_unknown_kernel_backend_rejected():
    """The engines take the batched members of ``api.BACKENDS``;
    ``python`` and the reference oracle are not kernel backends."""
    assert BatchedEngine(CacheConfig()).kernel_backend == DEFAULT_BACKEND
    assert BatchedHierarchyEngine().kernel_backend == DEFAULT_BACKEND
    for backend in ("gpu", "python", "reference"):
        with pytest.raises(ValueError, match="kernel_backend"):
            BatchedEngine(CacheConfig(), kernel_backend=backend)
        with pytest.raises(ValueError, match="kernel_backend"):
            BatchedHierarchyEngine(kernel_backend=backend)


def test_auto_compiled_falls_back_with_warning(clean_providers):
    """backend="compiled" with no loadable provider must warn and fall
    back to the (bit-identical) Python kernels, not fail the run."""
    clean_providers.setenv(COMPILED_ENV, "off")
    addresses = _trace(n=1500)
    config = CacheConfig(num_sets=4, ways=2)
    spec = PolicySpec("emissary", {"hp_threshold": 1, "prob_inv": 2})
    engine = BatchedEngine(config, kernel_backend="compiled")
    with pytest.warns(RuntimeWarning, match="falling back"):
        result = engine.simulate_stream([addresses], spec, seed=3)
    expected = BatchedEngine(config).simulate_stream([addresses], spec, seed=3)
    assert np.array_equal(result.hits, expected.hits)
    assert result.policy_stats == expected.policy_stats


@needs_compiled
def test_pinned_compiled_unavailable_is_hard_error(clean_providers):
    """Callers that must never silently time Python (the benchmarks) load
    the kernels through ``get_kernels``, which fails loudly once the
    kill switch is thrown, even after a successful load."""
    clean_providers.delenv(COMPILED_ENV, raising=False)
    assert get_kernels().name == "cc"
    clean_providers.setenv(COMPILED_ENV, "off")
    with pytest.raises(CompiledUnavailableError):
        get_kernels()
    with pytest.warns(RuntimeWarning, match="falling back"):
        BatchedEngine(CacheConfig(num_sets=4, ways=2),
                      kernel_backend="compiled").simulate_stream(
            [_trace(n=100)], PolicySpec("lru"), seed=3)


# -- SimRequest / api.simulate plumbing -----------------------------------

def test_simrequest_backend_validation():
    trace = TraceSpec(kind="loop", n=100, seed=1)
    assert SimRequest(trace, PolicySpec("lru")).backend == "batched"
    for backend in BACKENDS:
        assert SimRequest(trace, PolicySpec("lru"),
                          backend=backend).backend == backend
    with pytest.raises(ValueError, match="unknown backend"):
        SimRequest(trace, PolicySpec("lru"), backend="gpu")


def test_simrequest_backend_excluded_from_cache_key():
    """Backends are bit-identical, so the results-cache key must be
    backend-invariant: a compiled sweep warms the cache for batched runs."""
    trace = TraceSpec(kind="loop", n=100, seed=1)
    encodings = {backend: SimRequest(trace, PolicySpec("lru"),
                                     backend=backend).to_dict()
                 for backend in BACKENDS}
    assert encodings["compiled"] == encodings["batched"]
    assert encodings["reference"] == encodings["batched"]
    assert "backend" not in encodings["batched"]
    # from_dict still honors an explicit backend key if one is present.
    encoded = dict(encodings["batched"], backend="compiled")
    assert SimRequest.from_dict(encoded).backend == "compiled"


@needs_compiled
def test_simulate_request_backend_and_override():
    trace = TraceSpec(kind="loop", n=3000, seed=9,
                      params={"footprint_lines": 128})
    config = CacheConfig(num_sets=8, ways=4)
    spec = PolicySpec("srrip")
    batched = simulate(SimRequest(trace, spec, config))
    compiled = simulate(SimRequest(trace, spec, config, backend="compiled"))
    assert np.array_equal(compiled.hits, batched.hits)
    # An explicit engine= overrides the request's backend field.
    overridden = simulate(SimRequest(trace, spec, config, backend="compiled"),
                          engine="reference")
    assert overridden.hit_count == batched.hit_count


@needs_compiled
def test_simulate_streamed_compiled_request():
    trace = TraceSpec(kind="shift", n=5000, seed=2)
    config = CacheConfig(num_sets=8, ways=4)
    spec = PolicySpec("emissary", {"hp_threshold": 2, "prob_inv": 4})
    request = SimRequest(trace, spec, config, backend="compiled")
    oneshot = simulate(SimRequest(trace, spec, config))
    streamed = simulate(request, stream=True, chunk_bytes=1 << 12)
    assert np.array_equal(streamed.hits, oneshot.hits)
    assert streamed.policy_stats == oneshot.policy_stats


# -- sweep worker ---------------------------------------------------------

@needs_compiled
def test_run_config_compiled_backend():
    from emissary.sweep import run_config

    request = SimRequest(TraceSpec(kind="loop", n=2000, seed=4),
                         PolicySpec("emissary",
                                    {"hp_threshold": 2, "prob_inv": 4}),
                         CacheConfig(num_sets=8, ways=4))
    def outcomes(row):
        return {k: v for k, v in row.items()
                if k not in ("elapsed_s", "accesses_per_s")}

    batched = run_config(request.to_dict())
    compiled = run_config(dict(request.to_dict(), backend="compiled"))
    assert outcomes(compiled) == outcomes(batched)
    with pytest.raises(ValueError, match="unknown backend"):
        run_config(dict(request.to_dict(), backend="gpu"))


# -- sanitizer on the compiled path ---------------------------------------

@needs_compiled
@pytest.mark.filterwarnings("error::RuntimeWarning")  # no silent fallback
def test_sanitizer_checks_compiled_dispatches(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    sanitizer = Sanitizer()
    engine = BatchedEngine(CacheConfig(num_sets=4, ways=2),
                           sanitizer=sanitizer, kernel_backend="compiled")
    engine.simulate_stream([_trace(n=500)], PolicySpec("lru"), seed=3)
    assert sanitizer.checks > 0
    # MRU-run collapsing means the kernel sees at most n accesses.
    assert 0 < sanitizer.accesses <= 500
    assert sanitizer.attached == ["lru"]


@needs_compiled
def test_sanitizer_catches_compiled_state_corruption(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    kernel = make_compiled_kernel("lru", num_sets=4, ways=2)
    sanitizer = Sanitizer()
    sanitizer.attach_kernel(kernel)
    set_idx = np.zeros(4, dtype=np.int64)
    tags = np.arange(4, dtype=np.int64)
    kernel.run_batch(set_idx, tags)
    kernel.inner._size[0] = 5  # occupancy above associativity
    with pytest.raises(SanitizerError):
        kernel.run_batch(set_idx, tags)


@needs_compiled
def test_run_batch_rejects_missing_or_short_inputs():
    """Every per-access array reaches C as a bare pointer, so a missing
    or short one is refused before the call."""
    set_idx = np.zeros(4, dtype=np.int64)
    tags = np.arange(4, dtype=np.int64)
    kernel = make_compiled_kernel("random", num_sets=4, ways=2)
    with pytest.raises(ValueError, match="needs 'u'"):
        kernel.run_batch(set_idx, tags)
    with pytest.raises(ValueError, match="'u' has 3 entries for 4"):
        kernel.run_batch(set_idx, tags, u=np.zeros(3))
    with pytest.raises(ValueError, match="'tags' has 3 entries for 4"):
        kernel.run_batch(set_idx, tags[:3], u=np.zeros(4))
    kernel.attach_telemetry(Telemetry())
    with pytest.raises(ValueError, match="needs 'extra'"):
        kernel.run_batch(set_idx, tags, u=np.zeros(4))
    assert kernel.run_batch(set_idx, tags, u=np.zeros(4),
                            extra=np.zeros(4, dtype=np.int64)).tolist() \
        == [False] * 4


@needs_compiled
@pytest.mark.parametrize("policy,params", [
    ("lru", {}), ("random", {}), ("srrip", {}),
    ("emissary", {"hp_threshold": 2}),
    ("emissary", {"hp_threshold": 2, "hp_budget": "partitioned",
                  "num_cores": 2})])
def test_telemetry_off_runs_the_plain_kernels(policy, params):
    """Telemetry off costs nothing: the plain instantiation runs with no
    telemetry buffers bound until ``attach_telemetry`` switches to the
    ``_tel`` entry point."""
    kernel = make_compiled_kernel(policy, num_sets=4, ways=4, **params)
    kind = kernel.name
    assert kernel._entry.__name__ == cc_backend.symbol(kind, tel=False)
    assert kernel._args.line_hits is None and kernel._args.counters is None
    kernel.attach_telemetry(Telemetry())
    assert kernel._entry.__name__ == cc_backend.symbol(kind, tel=True)
    assert kernel._args.line_hits == kernel.inner._line_hits.ctypes.data
