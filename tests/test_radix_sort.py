"""The shared stable radix argsort and the engine's set-sort key width.

:func:`emissary.policies.base.stable_argsort` sorts ``uint64`` keys as
LSD radix passes over 16-bit digits; the LRU closed form and the
hierarchy's miss-count table both rely on it being exactly NumPy's
stable argsort.  The engine's set sort narrows its key to ``uint8`` up
to 256 sets and to ``int16`` beyond, so both widths are checked against
the per-access reference at the boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, ReferenceEngine
from emissary.policies.base import stable_argsort

TOP = 2**64 - 1


@st.composite
def uint64_keys(draw):
    """Keys drawn from a small pool (so ties are common) whose span has
    ``bits`` bits: under 8, under 16, or across the 16/32/48 digit
    boundaries up to the full 64."""
    bits = draw(st.sampled_from((1, 7, 8, 15, 16, 17, 31, 33, 47, 49, 64)))
    base = draw(st.integers(0, TOP - (2**bits - 1)))
    pool = draw(st.lists(st.integers(0, 2**bits - 1), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=300))
    return np.array([base + pool[i] for i in picks], dtype=np.uint64)


@settings(max_examples=300, deadline=None)
@given(uint64_keys())
def test_matches_numpy_stable_argsort(keys):
    assert np.array_equal(stable_argsort(keys),
                          np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("keys", [
    np.full(257, TOP, dtype=np.uint64),
    np.full(70_000, 3, dtype=np.uint64),
    np.array([TOP], dtype=np.uint64),
    np.array([0], dtype=np.uint64),
    np.array([TOP, 0, TOP, 0, 2**48, 2**32, 2**16, 2**48], dtype=np.uint64),
], ids=["all-equal-top", "all-equal-long", "one-top", "one-zero",
        "digit-edges"])
def test_edge_inputs(keys):
    order = stable_argsort(keys)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("num_sets", [128, 256, 512])
@pytest.mark.parametrize("policy", ["lru", "srrip"])
def test_set_key_width_boundary_matches_reference(num_sets, policy):
    """Lines over every set of a 128-, 256- (largest ``uint8`` key) and
    512-set cache, each set touched many times in interleaved order."""
    config = CacheConfig(num_sets=num_sets, ways=2)
    rng = np.random.default_rng(num_sets)
    lines = rng.integers(0, 4 * num_sets, size=6_000, dtype=np.uint64)
    addresses = lines * np.uint64(config.line_size)
    spec = PolicySpec(policy)
    batched = BatchedEngine(config).simulate_stream([addresses], spec, seed=0)
    reference = ReferenceEngine(config).simulate_stream([addresses], spec,
                                                        seed=0)
    assert np.array_equal(batched.hits, reference.hits)
    assert batched.policy_stats == reference.policy_stats
