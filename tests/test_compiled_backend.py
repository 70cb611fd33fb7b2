"""Compiled kernel backend: provider registry, selection, and fallback.

The bit-identity of the compiled kernels themselves is established by
the hypothesis differential suite (``test_property_differential``); this
module covers the machinery *around* them:

- the provider registry (:func:`emissary.compiled.get_kernels`,
  ``EMISSARY_COMPILED`` environment override, cache reset),
- engine-level backend selection (warn-and-fall-back on auto, hard
  error on a pinned provider, ``kernel_backend`` validation),
- :class:`~emissary.api.SimRequest` backend plumbing — including the
  deliberate *exclusion* of ``backend`` from the results-cache key,
- the sweep worker running a wire dict's ``backend``,
- the sanitizer on the compiled flat-state path, and
- the ``bench --backend`` harness (small-n smoke).

Everything here runs without numba installed: the interpreter provider
(``python``) is always loadable, and tests that need a real native
provider (numba or the bundled C fallback) are skip-marked.
"""

import numpy as np
import pytest

from emissary.analysis.sanitizer import Sanitizer, SanitizerError
from emissary.api import (BACKENDS, DEFAULT_BACKEND, PolicySpec, SimRequest,
                          simulate)
from emissary.compiled import (
    COMPILED_ENV,
    PROVIDER_NAMES,
    PROVIDER_ORDER,
    CompiledUnavailableError,
    available_providers,
    get_kernels,
    make_compiled_kernel,
    reset_provider_cache,
)
from emissary.compiled.numba_backend import HAVE_NUMBA
from emissary.engine import BatchedEngine, CacheConfig
from emissary.hierarchy import BatchedHierarchyEngine
from emissary.traces import TraceSpec

try:
    get_kernels()
    COMPILED_AVAILABLE = True
except CompiledUnavailableError:
    COMPILED_AVAILABLE = False

_needs_compiled_skip = pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="no compiled kernel provider (numba or a C compiler) available")


def needs_compiled(func):  # noqa: ANN001, ANN201 - pytest decorator
    return pytest.mark.needs_compiled(_needs_compiled_skip(func))

# Wheel-availability guard: numba ships binary wheels on a lag behind new
# CPython releases, so "pip install numba" can legitimately fail or be
# skipped on a matrix leg.  Tests that *require* the numba provider take
# this marker; the rest of the file must stay green without the wheel.
# The selectable `needs_numba` mark (registered in pyproject.toml) rides
# along so the CI numba leg can run `-m needs_numba` and fail — exit 5 —
# if the marked tests ever stop being collected.
_needs_numba_skip = pytest.mark.skipif(
    not HAVE_NUMBA,
    reason="numba wheel not installed in this environment")


def needs_numba(func):  # noqa: ANN001, ANN201 - pytest decorator
    return pytest.mark.needs_numba(_needs_numba_skip(func))

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


# -- provider registry ----------------------------------------------------

def test_available_providers_auto_is_provider_order(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    assert available_providers() == PROVIDER_ORDER
    clean_providers.setenv(COMPILED_ENV, "auto")
    assert available_providers() == PROVIDER_ORDER


def test_available_providers_env_off(clean_providers):
    clean_providers.setenv(COMPILED_ENV, "off")
    assert available_providers() == ()
    with pytest.raises(CompiledUnavailableError, match="disabled"):
        get_kernels()
    # `off` is the operational kill-switch: it beats even a pinned provider.
    with pytest.raises(CompiledUnavailableError, match="disabled"):
        get_kernels("python")


def test_available_providers_env_pinned(clean_providers):
    clean_providers.setenv(COMPILED_ENV, "cc")
    assert available_providers() == ("cc",)


def test_available_providers_env_invalid(clean_providers):
    clean_providers.setenv(COMPILED_ENV, "gpu")
    with pytest.raises(ValueError, match="EMISSARY_COMPILED"):
        available_providers()


def test_get_kernels_unknown_provider(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    with pytest.raises(ValueError, match="unknown compiled provider"):
        get_kernels("fortran")


def test_python_provider_always_loadable(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    kernels = get_kernels("python")
    assert kernels.name == "python"
    # ...but never auto-selected: it would silently defeat the point.
    assert "python" not in PROVIDER_ORDER
    assert "python" in PROVIDER_NAMES


@pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
def test_pinned_numba_unavailable_raises(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    with pytest.raises(CompiledUnavailableError, match="numba"):
        get_kernels("numba")


@needs_numba
def test_numba_provider_matches_python_backend():
    kernels = get_kernels("numba")
    assert kernels.name == "numba"
    addresses = _trace()
    config = CacheConfig(num_sets=8, ways=4)
    for spec in POLICIES:
        compiled = BatchedEngine(config, kernel_backend="compiled",
                                 compiled_provider="numba").run(
            addresses, spec, seed=3)
        python = BatchedEngine(config).run(addresses, spec, seed=3)
        assert np.array_equal(compiled.hits, python.hits)
        assert compiled.policy_stats == python.policy_stats


# -- engine backend selection ---------------------------------------------

def test_python_provider_matches_python_backend(clean_providers):
    """The interpreter provider exercises the full compiled dispatch path
    (trace-order batches over flat state) with no native code at all."""
    clean_providers.delenv(COMPILED_ENV, raising=False)
    addresses = _trace()
    config = CacheConfig(num_sets=8, ways=4)
    for spec in POLICIES:
        compiled = BatchedEngine(config, kernel_backend="compiled",
                                 compiled_provider="python").run(
            addresses, spec, seed=3)
        python = BatchedEngine(config).run(addresses, spec, seed=3)
        assert np.array_equal(compiled.hits, python.hits)
        assert compiled.policy_stats == python.policy_stats


def test_unknown_kernel_backend_rejected():
    """The engines take the batched members of ``api.BACKENDS``; the
    ``python`` provider name and the reference oracle are not kernel
    backends."""
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
        result = engine.run(addresses, spec, seed=3)
    expected = BatchedEngine(config).run(addresses, spec, seed=3)
    assert np.array_equal(result.hits, expected.hits)
    assert result.policy_stats == expected.policy_stats


def test_pinned_compiled_unavailable_is_hard_error(clean_providers):
    """A pinned provider must never silently time Python instead."""
    clean_providers.setenv(COMPILED_ENV, "off")
    engine = BatchedEngine(CacheConfig(num_sets=4, ways=2),
                           kernel_backend="compiled",
                           compiled_provider="cc")
    with pytest.raises(CompiledUnavailableError):
        engine.run(_trace(n=100), PolicySpec("lru"), seed=3)


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

def test_sanitizer_checks_compiled_dispatches(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    sanitizer = Sanitizer()
    engine = BatchedEngine(CacheConfig(num_sets=4, ways=2),
                           sanitizer=sanitizer, kernel_backend="compiled",
                           compiled_provider="python")
    engine.run(_trace(n=500), PolicySpec("lru"), seed=3)
    assert sanitizer.checks > 0
    # MRU-run collapsing means the kernel sees at most n accesses.
    assert 0 < sanitizer.accesses <= 500
    assert sanitizer.attached == ["lru"]


def test_sanitizer_catches_compiled_state_corruption(clean_providers):
    clean_providers.delenv(COMPILED_ENV, raising=False)
    kernel = make_compiled_kernel("lru", num_sets=4, ways=2,
                                  provider="python")
    sanitizer = Sanitizer()
    sanitizer.attach_kernel(kernel)
    set_idx = np.zeros(4, dtype=np.int64)
    tags = np.arange(4, dtype=np.int64)
    kernel.run_batch(set_idx, tags)
    kernel._size[0] = 5  # occupancy above associativity
    with pytest.raises(SanitizerError):
        kernel.run_batch(set_idx, tags)


# -- bench harness --------------------------------------------------------

@needs_compiled
def test_backend_bench_smoke():
    from emissary.bench import run_backend_bench

    report = run_backend_bench(n=4096, repeats=1, skip_reference=True)
    assert report["benchmark"] == "backend_throughput"
    assert report["compiled_provider"] == get_kernels().name
    assert report["all_outcomes_identical"] is True
    rows = report["policies"]
    assert {row["policy"] for row in rows} == \
        {"lru", "random", "srrip", "emissary"}
    assert any(row["hierarchy"] for row in rows)
    for row in rows:
        assert row["outcomes_identical"] is True
        assert row["speedup_vs_python"] > 0
        assert "reference" not in row


def test_backend_bench_fails_loudly_without_provider(clean_providers):
    from emissary.bench import run_backend_bench

    clean_providers.setenv(COMPILED_ENV, "off")
    with pytest.raises(CompiledUnavailableError):
        run_backend_bench(n=64, repeats=1, skip_reference=True)
