"""Tests for the synthetic instruction-stream generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emissary.traces import (
    CHUNK_GENERATORS,
    DEFAULT_CHUNK_BYTES,
    FILE_KIND,
    GENERATORS,
    INSTR_BYTES,
    LINE_BYTES,
    MAX_CORES,
    FrozenParams,
    InterleaveSpec,
    TraceSpec,
    _ADDR_ITEMSIZE,
    _interleave,
    _NOISE_BLOCK,
    call_heavy,
    call_heavy_chunks,
    looping_code,
    trace_spec_from_dict,
    working_set_shift,
)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_length_and_dtype(kind):
    trace = GENERATORS[kind](10_000, seed=1)
    assert len(trace) == 10_000
    assert trace.dtype == np.uint64


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_deterministic_for_seed(kind):
    a = GENERATORS[kind](5_000, seed=42)
    b = GENERATORS[kind](5_000, seed=42)
    c = GENERATORS[kind](5_000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_looping_code_stays_in_footprint():
    base, footprint = 0x400000, 128
    trace = looping_code(20_000, footprint_lines=footprint, base=base, seed=0)
    lines = trace // LINE_BYTES
    assert lines.min() >= base // LINE_BYTES
    assert lines.max() < base // LINE_BYTES + footprint


def test_loop_generation_peak_memory_bounded_by_output():
    """Deterministic memory guard for the loop generator (tracemalloc peak
    of a 1M-access ``generate()`` above its inputs).

    At its peak the generator holds the output (8 B per access), one
    block of noise uniforms and one period of the loop (8 B per
    instruction slot of the footprint), and the taken branches'
    positions, twice while their blocks are joined (8 B each, about
    ``branch_noise`` of the accesses).  Drawing all of a chunk's noise
    uniforms at once needs another 8 B per access, past this bound."""
    n = 1_000_000
    spec = TraceSpec("loop", n, 7)
    footprint, noise = 4096, 0.02  # looping_code's defaults
    span = footprint * (LINE_BYTES // INSTR_BYTES)
    bound = (8 * n + 8 * _NOISE_BLOCK + 8 * span
             + 2 * 8 * int(1.5 * noise * n) + (64 << 10))
    TraceSpec("loop", 1000, 7).generate()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = spec.generate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert peak <= bound, (f"peak {peak / 2**20:.2f} MiB over the "
                           f"{bound / 2**20:.2f} MiB bound")


@pytest.mark.parametrize("n", [1_000_000, 4_000_000])
def test_call_generation_peak_memory_bounded_by_output(n):
    """Deterministic memory guard for the call generator (tracemalloc
    peak of ``generate()`` above its inputs).

    The one-shot trace is built in blocks of one chunk budget, each
    filled into the output.  At its peak the generator holds the output
    (8 B per access), one block's units and its position ramp (8 B
    each per access of the longest block).  A block draws its pairs
    about 5% over its budget and the burst lengths spread it a little
    further, to 1.07 budgets at this seed, so the bound allows 1.15.
    A trace-length temporary of even 1 B per access (such as a caller
    mask) breaks the bound at 4M accesses."""
    block = int(1.15 * (DEFAULT_CHUNK_BYTES // _ADDR_ITEMSIZE))
    bound = 8 * n + 2 * 8 * block + (64 << 10)
    TraceSpec("call", 1000, 7).generate()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = TraceSpec("call", n, 7).generate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert peak <= bound, (f"peak {peak / 2**20:.2f} MiB over the "
                           f"{bound / 2**20:.2f} MiB bound")


def test_working_set_shift_moves_footprint():
    trace = working_set_shift(40_000, phases=4, footprint_lines=64, seed=0)
    quarters = np.array_split(trace // LINE_BYTES, 4)
    bases = [q.min() for q in quarters]
    assert len(set(bases)) == 4  # each phase lives in its own region


def test_call_heavy_touches_two_regions():
    trace = call_heavy(30_000, caller_lines=64, num_callees=8, seed=0)
    lines = np.unique(trace // LINE_BYTES)
    # Caller region plus at least one callee region far away.
    assert lines.max() - lines.min() > 64


def test_spec_roundtrip_and_generate():
    spec = TraceSpec("loop", 1000, 5, {"footprint_lines": 32})
    again = TraceSpec.from_dict(spec.to_dict())
    assert again == spec
    assert np.array_equal(spec.generate(), again.generate())


@pytest.mark.parametrize("kind, params, exc", [
    ("loop", {"branch_noise": 1.5}, ValueError),
    ("loop", {"footprint_lines": 2.5}, TypeError),
    ("shift", {"phases": 2.5}, TypeError),
    ("call", {"call_period": 0}, ValueError),
    ("call", {"base": -1}, ValueError),
])
def test_spec_validates_params_at_construction(kind, params, exc):
    (name, _value), = params.items()
    with pytest.raises(exc, match=name):
        TraceSpec(kind, 1000, 0, params)
    with pytest.raises(exc, match=name):
        TraceSpec.from_dict({"kind": kind, "n": 1000, "params": params})


def test_spec_n_must_be_positive_for_synthetic_kinds_only():
    for kind in sorted(GENERATORS):
        with pytest.raises(ValueError, match="n must be positive"):
            TraceSpec(kind, 0)
    assert TraceSpec(FILE_KIND, 0, params={"sha256": "0" * 64}).n == 0


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TraceSpec("fractal", 1000)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_rejects_nonpositive_n(kind):
    with pytest.raises(ValueError):
        GENERATORS[kind](0)


@pytest.mark.parametrize("bad", [
    {"caller_lines": 0}, {"caller_lines": -3}, {"num_callees": 0},
    {"callee_lines": 0}, {"callee_lines": -1}, {"call_period": 0},
    {"call_period": -24},
])
def test_call_heavy_rejects_nonpositive_params(bad):
    # Regression: callee_lines=0 used to crash deep inside rng.integers
    # (empty range) and call_period<=0 span forever; both now fail fast.
    (name, _value), = bad.items()
    with pytest.raises(ValueError, match=name):
        call_heavy(1000, **bad)


def _one_shot_and_chunked(kind):
    """The kind's one-shot generator and its chunked twin, both as
    callables that run the whole generator."""
    chunked = CHUNK_GENERATORS[kind]
    return [GENERATORS[kind], lambda n, **p: list(chunked(n, **p))]


@pytest.mark.parametrize("kind, bad, exc", [
    ("loop", {"branch_noise": 1.5}, ValueError),
    ("loop", {"branch_noise": -0.5}, ValueError),
    ("loop", {"branch_noise": float("nan")}, ValueError),
    ("loop", {"branch_noise": float("inf")}, ValueError),
    ("loop", {"branch_noise": "0.1"}, TypeError),
    ("loop", {"branch_noise": True}, TypeError),
    ("loop", {"footprint_lines": 2.5}, TypeError),
    ("loop", {"base": -64}, ValueError),
    ("loop", {"base": 64.0}, TypeError),
    ("shift", {"phases": 2.5}, TypeError),
    ("shift", {"phases": True}, TypeError),
    ("shift", {"branch_noise": 2.0}, ValueError),
    ("call", {"call_period": 2.5}, TypeError),
    ("call", {"num_callees": "8"}, TypeError),
    ("call", {"callee_lines": np.float64(2.0)}, TypeError),
    ("call", {"base": -1}, ValueError),
])
def test_generators_reject_bad_params(kind, bad, exc):
    # Regression: these ran without error (branch_noise outside [0, 1]
    # or fractional line counts) or failed with an untyped NumPy error
    # deep inside (phases=2.5).  The chunked twins share the validator.
    (name, _value), = bad.items()
    for gen in _one_shot_and_chunked(kind):
        with pytest.raises(exc, match=name):
            gen(1000, **bad)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("n, exc", [(0, ValueError), (-5, ValueError),
                                    (10.0, TypeError), (True, TypeError)])
def test_generators_reject_bad_n(kind, n, exc):
    for gen in _one_shot_and_chunked(kind):
        with pytest.raises(exc, match="n must be"):
            gen(n)


def test_generators_accept_numpy_ints_and_boundary_noise():
    a = looping_code(np.int64(500), footprint_lines=np.int32(8),
                     branch_noise=1, base=np.uint64(0), seed=3)
    b = looping_code(500, footprint_lines=8, branch_noise=1.0, base=0, seed=3)
    assert np.array_equal(a, b)
    assert len(looping_code(100, branch_noise=0)) == 100


def _call_heavy_oracle(n, caller_lines=1024, num_callees=64, callee_lines=32,
                       call_period=24, base=0x400000, seed=0):
    """The original per-call loop, kept verbatim as the oracle for the
    vectorised block builder."""
    rng = np.random.default_rng(seed)
    instrs_per_line = LINE_BYTES // INSTR_BYTES
    callee_base = base + caller_lines * LINE_BYTES * 4
    callee_span = callee_lines * instrs_per_line

    segments = []
    produced = 0
    caller_pc = 0
    caller_span = caller_lines * instrs_per_line
    while produced < n:
        run = min(call_period, n - produced)
        seg = (np.arange(caller_pc, caller_pc + run, dtype=np.uint64) % np.uint64(caller_span))
        segments.append(np.uint64(base) + seg * np.uint64(INSTR_BYTES))
        caller_pc = (caller_pc + run) % caller_span
        produced += run
        if produced >= n:
            break
        callee = int(rng.integers(0, num_callees))
        burst = min(int(rng.integers(4, callee_span + 1)), n - produced)
        cb = callee_base + callee * callee_lines * LINE_BYTES
        seg = np.arange(burst, dtype=np.uint64)
        segments.append(np.uint64(cb) + seg * np.uint64(INSTR_BYTES))
        produced += burst
    return np.concatenate(segments)[:n]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), call_period=st.integers(1, 40),
       callee_lines=st.integers(1, 4), num_callees=st.integers(1, 8),
       caller_lines=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       chunk_bytes=st.integers(1, 1 << 14))
def test_call_heavy_matches_per_call_oracle(n, call_period, callee_lines,
                                            num_callees, caller_lines, seed,
                                            chunk_bytes):
    params = dict(caller_lines=caller_lines, num_callees=num_callees,
                  callee_lines=callee_lines, call_period=call_period,
                  seed=seed)
    expected = _call_heavy_oracle(n, **params)
    assert np.array_equal(call_heavy(n, **params), expected)
    chunks = list(call_heavy_chunks(n, chunk_bytes=chunk_bytes, **params))
    assert np.array_equal(np.concatenate(chunks), expected)


def _interleave_oracle(parts, weights):
    """The original schedule: a stable argsort of ``round * C + core``
    keys, where position ``p`` of core ``i`` is in round ``p // w_i``."""
    num_cores = len(parts)
    keys = np.concatenate([
        np.arange(len(part), dtype=np.int64) // weights[i] * num_cores + i
        for i, part in enumerate(parts)])
    order = np.argsort(keys, kind="stable")
    addresses = np.concatenate(parts)[order]
    core_ids = np.concatenate([np.full(len(part), i, dtype=np.int64)
                               for i, part in enumerate(parts)])[order]
    return addresses, core_ids


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 5)),
                      min_size=1, max_size=6))
def test_interleave_matches_argsort_schedule(shape):
    # Zero-length parts occur in generate_chunks' tail, where some cores
    # have already run dry.
    counts = [count for count, _ in shape]
    weights = [w for _, w in shape]
    offsets = np.cumsum([0] + counts)
    parts = [np.arange(lo, hi, dtype=np.uint64) + np.uint64(1 << 40)
             for lo, hi in zip(offsets[:-1], offsets[1:])]
    addresses, core_ids = _interleave(parts, weights)
    expected_addresses, expected_ids = _interleave_oracle(parts, weights)
    assert addresses.dtype == np.uint64 and core_ids.dtype == np.int64
    assert np.array_equal(addresses, expected_addresses)
    assert np.array_equal(core_ids, expected_ids)


class _SliceCounter(np.ndarray):
    """An array that counts the slices taken of it (and of its views)."""

    taken = 0

    def __getitem__(self, key):
        type(self).taken += 1
        return super().__getitem__(key)


def test_interleave_copies_wide_weights_in_one_slice_per_core():
    # Weights in the thousands model coarse time slicing.  A core's full
    # rounds go in as one 2-D slice copy, so the slices taken of each
    # part stay a handful per core; copying a column at a time would take
    # one per unit of weight, 2,000 per block here.
    weights = (1000, 1000)
    plain = [np.arange(65_500, dtype=np.uint64) + np.uint64(i << 40)
             for i in range(2)]
    parts = [part.view(_SliceCounter) for part in plain]
    _SliceCounter.taken = 0
    addresses, core_ids = _interleave(parts, weights)
    assert _SliceCounter.taken <= 4 * len(parts)
    expected_addresses, expected_ids = _interleave_oracle(plain, weights)
    assert np.array_equal(np.asarray(addresses), expected_addresses)
    assert np.array_equal(core_ids, expected_ids)


class TestFrozenSpec:
    """TraceSpec is genuinely immutable: params cannot be edited in place."""

    def test_params_frozen_against_source_dict_mutation(self):
        params = {"footprint_lines": 32}
        spec = TraceSpec("loop", 1000, 5, params)
        params["footprint_lines"] = 9999  # caller's dict, not the spec's
        assert spec.params["footprint_lines"] == 32
        assert spec.to_dict()["params"] == {"footprint_lines": 32}

    def test_params_reject_in_place_mutation(self):
        spec = TraceSpec("loop", 1000, 5, {"footprint_lines": 32})
        with pytest.raises(TypeError):
            spec.params["footprint_lines"] = 9999
        with pytest.raises(TypeError):
            del spec.params["footprint_lines"]

    def test_spec_is_hashable_and_usable_as_key(self):
        a = TraceSpec("loop", 1000, 5, {"footprint_lines": 32})
        b = TraceSpec("loop", 1000, 5, {"footprint_lines": 32})
        c = TraceSpec("loop", 1000, 5, {"footprint_lines": 64})
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b, c}) == 2

    def test_frozen_params_compare_equal_to_plain_dicts(self):
        spec = TraceSpec("loop", 1000, 5, {"footprint_lines": 32})
        assert spec.params == {"footprint_lines": 32}
        assert dict(spec.params) == {"footprint_lines": 32}

    def test_nested_values_frozen_and_thawed(self):
        fp = FrozenParams({"b": [1, {"c": 2}], "a": True})
        assert list(fp) == ["a", "b"]  # canonical sorted order
        assert isinstance(fp["b"], tuple)
        thawed = fp.thaw()
        assert thawed == {"a": True, "b": [1, {"c": 2}]}
        thawed["b"].append(3)  # thawed copies are plain mutable objects
        assert fp["b"] == (1, FrozenParams({"c": 2}))

    def test_rejects_unhashable_param_values(self):
        with pytest.raises(TypeError):
            FrozenParams({"x": object()})
        with pytest.raises(TypeError):
            FrozenParams({1: "non-string key"})


def test_file_kind_requires_sha256():
    with pytest.raises(ValueError, match="sha256"):
        TraceSpec(FILE_KIND, 100)
    with pytest.raises(ValueError, match="sha256"):
        TraceSpec(FILE_KIND, 100, params={"sha256": "tooshort"})
    spec = TraceSpec(FILE_KIND, 100, params={"sha256": "0" * 64})
    assert spec.kind == FILE_KIND


class TestChunkedGeneration:
    """Chunked synthetic generation is bit-identical to one-shot and
    never materializes more than the chunk budget at a time."""

    def test_every_generator_has_a_chunked_twin(self):
        assert sorted(CHUNK_GENERATORS) == sorted(GENERATORS)

    @pytest.mark.parametrize("kind", sorted(CHUNK_GENERATORS))
    @pytest.mark.parametrize("chunk_bytes", [64, 1 << 10, 1 << 22])
    def test_chunks_concatenate_to_oneshot(self, kind, chunk_bytes):
        oneshot = GENERATORS[kind](10_000, seed=11)
        chunks = list(CHUNK_GENERATORS[kind](10_000, seed=11,
                                             chunk_bytes=chunk_bytes))
        assert np.array_equal(np.concatenate(chunks), oneshot)
        step = max(1, chunk_bytes // _ADDR_ITEMSIZE)
        assert all(len(chunk) == step for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) <= step
        assert all(chunk.dtype == np.uint64 for chunk in chunks)

    @pytest.mark.parametrize("kind", sorted(CHUNK_GENERATORS))
    def test_sub_itemsize_budget_yields_single_element_chunks(self, kind):
        chunks = list(CHUNK_GENERATORS[kind](64, seed=3, chunk_bytes=1))
        assert all(len(chunk) == 1 for chunk in chunks)
        assert np.array_equal(np.concatenate(chunks),
                              GENERATORS[kind](64, seed=3))

    @pytest.mark.parametrize("kind", sorted(CHUNK_GENERATORS))
    @pytest.mark.parametrize("chunk_bytes", [0, -8])
    def test_rejects_nonpositive_chunk_bytes(self, kind, chunk_bytes):
        with pytest.raises(ValueError, match="chunk_bytes"):
            next(CHUNK_GENERATORS[kind](100, chunk_bytes=chunk_bytes))

    def test_spec_generate_chunks_matches_generate(self):
        spec = TraceSpec("shift", 8_000, 7, {"footprint_lines": 64})
        chunks = list(spec.generate_chunks(chunk_bytes=1 << 12))
        assert np.array_equal(np.concatenate(chunks), spec.generate())

    def test_chunked_generators_honor_params(self):
        base, footprint = 0x400000, 128
        chunks = CHUNK_GENERATORS["loop"](20_000, footprint_lines=footprint,
                                          base=base, seed=0,
                                          chunk_bytes=1 << 12)
        lines = np.concatenate(list(chunks)) // LINE_BYTES
        assert lines.min() >= base // LINE_BYTES
        assert lines.max() < base // LINE_BYTES + footprint


class TestInterleaveSpec:
    """Deterministic weighted round-robin interleaving of N core traces."""

    MIX = InterleaveSpec(cores=(TraceSpec("loop", 5_000, 1,
                                          {"footprint_lines": 64}),
                                TraceSpec("call", 3_000, 2),
                                TraceSpec("shift", 4_000, 3,
                                          {"footprint_lines": 32})),
                         weights=(3, 1, 2))

    def test_generate_shape_and_conservation(self):
        addresses, core_ids = self.MIX.generate()
        assert len(addresses) == len(core_ids) == self.MIX.n == 12_000
        assert addresses.dtype == np.uint64
        # Every core contributes exactly its own trace, in order.
        for i, spec in enumerate(self.MIX.cores):
            assert np.array_equal(addresses[core_ids == i], spec.generate())

    def test_weighted_round_robin_schedule(self):
        _, core_ids = self.MIX.generate()
        # First full round: 3 accesses of core 0, 1 of core 1, 2 of core 2.
        assert core_ids[:6].tolist() == [0, 0, 0, 1, 2, 2]
        # Core 1 (n=3000, weight 1) exhausts after 3000 rounds; later
        # rounds interleave only cores 0 and 2.
        assert core_ids[core_ids != 0][:2].tolist() == [1, 2]

    def test_generate_chunks_bit_identical(self):
        addresses, core_ids = self.MIX.generate()
        for chunk_bytes in (256, 4_096, 1 << 24):
            pairs = list(self.MIX.generate_chunks(chunk_bytes=chunk_bytes))
            assert np.array_equal(np.concatenate([a for a, _ in pairs]),
                                  addresses)
            assert np.array_equal(np.concatenate([c for _, c in pairs]),
                                  core_ids)

    def test_wire_roundtrip_and_dispatch(self):
        d = self.MIX.to_dict()
        assert InterleaveSpec.from_dict(d) == self.MIX
        assert trace_spec_from_dict(d) == self.MIX
        single = TraceSpec("loop", 100, 0, {"footprint_lines": 8})
        assert trace_spec_from_dict(single.to_dict()) == single

    def test_frozen_and_hashable(self):
        assert hash(self.MIX) == hash(InterleaveSpec(
            cores=self.MIX.cores, weights=self.MIX.weights))
        with pytest.raises(AttributeError):
            self.MIX.weights = (1, 1, 1)

    def test_default_weights_are_plain_round_robin(self):
        mix = InterleaveSpec(cores=self.MIX.cores[:2])
        assert mix.weights == (1, 1)
        _, core_ids = mix.generate()
        assert core_ids[:4].tolist() == [0, 1, 0, 1]

    def test_validation(self):
        cores = self.MIX.cores
        with pytest.raises(ValueError, match="at least one"):
            InterleaveSpec(cores=())
        with pytest.raises(ValueError, match="weights"):
            InterleaveSpec(cores=cores, weights=(1, 2))
        with pytest.raises(ValueError, match="positive"):
            InterleaveSpec(cores=cores, weights=(1, 0, 2))
        with pytest.raises(TypeError, match="TraceSpec"):
            InterleaveSpec(cores=({"kind": "loop"},))
        with pytest.raises(ValueError, match=str(MAX_CORES)):
            InterleaveSpec(cores=(cores[0],) * (MAX_CORES + 1))
