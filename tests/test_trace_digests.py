"""Pinned SHA-256 digests of the synthetic trace generators' output.

The results cache keys a synthetic trace by its spec (kind, n, seed,
params), not by its addresses, so the bits a generator emits for a spec
are part of the cache's identity: a generator rewrite that changes one
address silently serves stale cached results.  These digests pin the
exact output of ``TraceSpec.generate()`` (and the multi-core
``InterleaveSpec.generate()``) for every synthetic kind, default and
non-default parameters, and lengths that straddle the ``call``
generator's caller-run / callee-burst boundaries.  The chunked paths
must hash to the same digests at every chunk budget.

Addresses are hashed as little-endian ``uint64`` bytes and core ids as
little-endian ``int64`` bytes, so the digests do not depend on the
host's byte order.
"""

import hashlib

import numpy as np
import pytest

from emissary.traces import InterleaveSpec, TraceSpec

#: (kind, param set) -> (params, seed).
PARAMS = {
    ("loop", "default"): ({}, 7),
    ("loop", "custom"): ({"footprint_lines": 100, "branch_noise": 0.1,
                          "base": 0x10000}, 2023),
    ("shift", "default"): ({}, 7),
    ("shift", "custom"): ({"phases": 3, "footprint_lines": 50,
                           "branch_noise": 0.05, "base": 0x800000}, 2023),
    ("call", "default"): ({}, 7),
    ("call", "custom"): ({"caller_lines": 16, "num_callees": 5,
                          "callee_lines": 1, "call_period": 7,
                          "base": 0x20000}, 2023),
}

#: (kind, param set, n) -> SHA-256 of the little-endian address bytes.
DIGESTS = {
    ("loop", "default", 1): "0854082c3b0245f7e0f1cc127fe74d2efe6a72eaa875378afa350adba710186d",
    ("loop", "default", 23): "a7fada6afa82dbcd1e868b57304362b4b2daf22304b69dd2e74173db772bdf84",
    ("loop", "default", 24): "3a25c417b47be5038c0b573567b44b022e7a66e9ca617d54e205575f7747bd31",
    ("loop", "default", 25): "314f24dfaf5c9e832f2a909c2b692e855140857f28acd39b56a0937912f58acd",
    ("loop", "default", 28): "26ffe175accf9488831d6ba01ef777325fad89213443b6214d916223539be759",
    ("loop", "default", 10007): "0a86022d5f22feb41ad27df61a08f8650d80ec2b8f04193321bbbe71ced71783",
    ("loop", "default", 200000): "610f6cc4fe64d9bfe80ba382ef705387f650ffb573e18eabfaa731244aad080c",
    ("loop", "custom", 1): "cbdc38a9c62c362d757efb1f0ae5d2cb344f2a529a865c95a25eea20e79de458",
    ("loop", "custom", 23): "a961069db89eddb73449e8ff0be96047d6d38627b883f4b43607dfbf9fdbdf7e",
    ("loop", "custom", 24): "f44ee8aafb3c2b1bb6c5a91b5b85519a7473d1c1e244dbc45965e395d66cf84b",
    ("loop", "custom", 25): "02c677582857a8098a5f1d1d6066efb1d8e067cd9cf5d7ded5563a16d2a73bc4",
    ("loop", "custom", 28): "6e95da037cb0dd5089edf116ba7b08fc7ebe22c8b27883740848168884b666a5",
    ("loop", "custom", 10007): "fcb53e67c989abb08dfb3a076c69d684a6061ce34a626dfcfe4d081fc7926fa9",
    ("loop", "custom", 200000): "6a674d0a52aa981a60ba751fa7a654dc3299ace5fb5d466c2d0c1c180cb421c8",
    ("shift", "default", 1): "0854082c3b0245f7e0f1cc127fe74d2efe6a72eaa875378afa350adba710186d",
    ("shift", "default", 23): "dc709e544b23ce3f440ad0ac69921456fde932d3d2cf145ae135d289efc1bfea",
    ("shift", "default", 24): "2a07e7391ea88be5aabea63356f58239186cf7d9d998cf6c4744e2f5a429dbd1",
    ("shift", "default", 25): "f07f2de5223321739ef4328d7fd72eedd200210fc0f17201664d4d0de1506cb2",
    ("shift", "default", 28): "3a9a78ab4d4227a678617bbf690656baf2474dde05cb177baa6d67b431f992e5",
    ("shift", "default", 10007): "48f1b283d429c24ff850be5f7d46074cb199640f0da21edd08217b7554dfb258",
    ("shift", "default", 200000): "38e848c34f3906a38360198fa66e3618ca947ef0d145548019535d5af2ab1149",
    ("shift", "custom", 1): "4513a1a516fbf1cb042bc78f9e9c4861a91aa218294f81230d0dcd0abdc84648",
    ("shift", "custom", 23): "6238704cb5bb9b895423eba5372838773561e4ca1e29ee6307237e10eedd50a8",
    ("shift", "custom", 24): "9cd27476f861c536b641ec705ff9ac022d7a8147d038aeca8d65f39c4bfaad99",
    ("shift", "custom", 25): "70a7812356d7d1c42ffce91730871317d9f00c9f09b00d996ffd2d2d877a5514",
    ("shift", "custom", 28): "20521a783aef6fed628e15869a97c6fcc6b27eb580aca827c12f106e40bfbac1",
    ("shift", "custom", 10007): "041c0ca91db7acf9c2813e17702bc3ed18d34003deed583431104a3e48560eb7",
    ("shift", "custom", 200000): "939fb149997b8f9a0ad0ffeaecde40e2d2fdcc0935a936934f6c23f2d6e87323",
    ("call", "default", 1): "0854082c3b0245f7e0f1cc127fe74d2efe6a72eaa875378afa350adba710186d",
    ("call", "default", 23): "9a7cde0ea774798305f56980164370ed85f0b7859bced090f6e2dd5edab8c699",
    ("call", "default", 24): "630f1839067fb0fd33fe1268eeb480dd57d0f94a9405fc1fda8352c20c4acabf",
    ("call", "default", 25): "d53c805ad2205df6705054a9a09e6d666843c509759269afc80bf103c1d3f36b",
    ("call", "default", 28): "f58f67c2bb40de9b544d5faf51de647096e96c047ab4a304eaacf42bc79d807e",
    ("call", "default", 10007): "dc4b13d316567b652fa3fc6d6a740fc635240c21645034791efde3f5da3d6c6c",
    ("call", "default", 200000): "8a76babbbb4b8cc781b78f7527ffcc8e4d9c25ce4acff1be90be9e32c7b6ec02",
    ("call", "custom", 1): "446bfbd9ec163187d37929dc2e44cc86f8403d574c2d841c9a5e4f3b5a0c20e3",
    ("call", "custom", 23): "bb59c6648b36ccff99304ac50b2a6c77794a626fe98ab12364fe87a8105073f9",
    ("call", "custom", 24): "bac75430cfe05ee8ec50b6d5188c9d880715241ab764435ca4b1a8497b6ac468",
    ("call", "custom", 25): "1cfe98b5f5ce648d77ccc785bbd3954d4c10dfcfc3e981d67a1e4cab7338d1a5",
    ("call", "custom", 28): "a947ed8744cc4baf609363c37f6c21e53c851001c6173005e82298b443a653fc",
    ("call", "custom", 10007): "88a533b101bd0dd712185b5513c11f6a7774dabc0d995955229a3043fd1766d0",
    ("call", "custom", 200000): "a9521534cd2d584a3e0a70f89184c24d6f444b9f170b0f0225a386208229aaad",
}

#: Three cores with uneven weights; the ``call`` core (weight 3, 701
#: accesses) runs out first, mid-round, then ``shift`` (weight 2, 4001
#: accesses) also ends on a partial round.
MIX = InterleaveSpec(
    cores=(TraceSpec("loop", 5_000, 1, {"footprint_lines": 64}),
           TraceSpec("call", 701, 2, PARAMS[("call", "custom")][0]),
           TraceSpec("shift", 4_001, 3, {"footprint_lines": 32})),
    weights=(1, 3, 2))
MIX_ADDRESS_DIGEST = '0849e25f34e446cc462de20631d614057656c1b1b735a3ec9696739f12f9724d'
MIX_CORE_ID_DIGEST = '9423bd04b1c4bd39aa3379d907f0b75a25524c12c2b0b67e5eacd555be29c84d'

#: Chunk budgets in bytes: one address per chunk, 512 per chunk, and
#: one chunk for every trace here.
BUDGETS = (8, 4 << 10, 4 << 20)


def _spec(kind: str, tag: str, n: int) -> TraceSpec:
    params, seed = PARAMS[(kind, tag)]
    return TraceSpec(kind, n, seed, params)


def _digest(chunks, dtype: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(np.ascontiguousarray(chunk, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, tag, n", sorted(DIGESTS))
def test_generate_digest(kind, tag, n):
    addresses = _spec(kind, tag, n).generate()
    assert addresses.dtype == np.uint64 and len(addresses) == n
    assert _digest([addresses], "<u8") == DIGESTS[(kind, tag, n)]


#: One-address chunks stop at n=10_007: at n=200k they only repeat the
#: smaller cases, at seconds per case.
CHUNK_CASES = [(kind, tag, n, chunk_bytes)
               for kind, tag, n in sorted(DIGESTS) for chunk_bytes in BUDGETS
               if chunk_bytes > 8 or n <= 10_007]


@pytest.mark.parametrize("kind, tag, n, chunk_bytes", CHUNK_CASES)
def test_generate_chunks_digest(kind, tag, n, chunk_bytes):
    chunks = _spec(kind, tag, n).generate_chunks(chunk_bytes=chunk_bytes)
    assert _digest(chunks, "<u8") == DIGESTS[(kind, tag, n)]


def test_interleave_digests():
    addresses, core_ids = MIX.generate()
    assert _digest([addresses], "<u8") == MIX_ADDRESS_DIGEST
    assert _digest([core_ids], "<i8") == MIX_CORE_ID_DIGEST


@pytest.mark.parametrize("chunk_bytes", BUDGETS)
def test_interleave_chunks_digests(chunk_bytes):
    pairs = list(MIX.generate_chunks(chunk_bytes=chunk_bytes))
    assert _digest([a for a, _ in pairs], "<u8") == MIX_ADDRESS_DIGEST
    assert _digest([c for _, c in pairs], "<i8") == MIX_CORE_ID_DIGEST
