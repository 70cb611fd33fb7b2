"""Results-cache keys of sweep points, pinned byte for byte.

A sweep point's cache key is the SHA-256 of its backend-free
``SimRequest.to_dict`` encoding.  Every cached result on disk is filed
under such a key, so a change to the sweep's request path that moved a
key would silently orphan the cache.  The digests below were computed
from the demo grid, its multi-core solo baselines and one
``--trace-file`` point; they must not move.
"""

import json
from dataclasses import replace

from emissary import trace_io
from emissary.api import SimRequest
from emissary.engine import CacheConfig
from emissary.hierarchy import HierarchyConfig
from emissary.results_cache import ResultsCache, config_key
from emissary.sweep import (add_fairness, build_grid, demo_grid, main,
                            run_sweep, solo_requests)
from emissary.traces import InterleaveSpec, TraceSpec

#: Every point of ``demo_grid(n=20_000)``, in grid order.
DEMO_KEYS = (
    "4798f5986ae16d70383720f12e15d59e92630534833d125a7102a39c2514efa7",
    "37abefaf7ddb99558074b726afc043ec6e7b6aa895c1f66f2f17693911106318",
    "542fc4df2bbb57426915c1e40b34eed14d562556d3e204326165593d95019123",
    "2fe8622c94a74dd35737d99a90a3dbb80c4e2489103cc3ff7690e8a0189d47dc",
    "a25f63aef27afe06915f24caa23fbf1f67daccd6f4ac907bb696e384dc16d99d",
    "e893c3c00f214694b7421218cb9097afa28e7758d3437f9215c9758c84cdf4c3",
    "490a3c392a2c8d23225be2cd5017c50cd27e40d928e16c618536e2de1a30087e",
    "4e8be2c85a52aa7d4ba4213e0c334290e0ca02b78d6c7d508f70d37586ddaf32",
    "ba6da6da5be7bf3dd776fcae7ae8a59b814867c98ca07b67c3006281feae2858",
    "0210fe4dd59344b556837e6c15a583f029e8f41fb63917ea1a90b650f953fa50",
    "879d2386382cd6b90eaab85e0cfb6559a26e0fdc5a342057034ad505b16cd820",
    "cb44d05338863231514f683b38f1b103bbb4cdb15589f579392173c3fc7b54f2",
    "6a4f7c6eef8b91d7f89f3fa7f61b94e2cbac1090256afc7949fc63a4189f4a75",
    "470b31ce1f48b22186ea9bf5212bea77560e4d7846e3f0dac7799f2fd1dbfec2",
    "0dbe90bd86cb0014bdcf516b6774bcfbfe748269f5e0d35b54081dee1e1cd091",
    "852b4b302bfde73213ddc72c6527603cd1e38c6ae45deeb6de98aa8afd66107b",
    "93d326b74a4ba81526fa287aafab88f73adce1c7ffc062d7c5aad002baca97f4",
    "8625181e91eb0d65d95e11cf509e638a0723c8971ca3913dbad119cd96e34ea1",
    "e38ea75ff6c69aa9a8f68125876ff3b924a4006ea91a81b26fe97c19f8cdb6f3",
    "a3cc3d48c7f45bed704136e005050245543f300a5ef20ad7ded983f722702184",
    "dfe52470e4d7b96b93c2db9b3f42112a578baf2332eb697fdd02ffc6019b448d",
    "92b7edeef3cbed0f4f5588db4c8e821a2a816245c889dfde63ae1b22c7626843",
    "535eb19b8f9bb8d13c37b8adec5f6946db224edeb6ce9533f385590e1a4a579f",
    "0d455b9085a53a15a27601c2003f21ee48dfc9adcd157dd5601eef30f99afeb4",
    "d934826b7625e0c6fb61342bf706c12608d568c481fc82e69e0890960f47e370",
    "d56b3793a5380cbe3fb3bc9008a181b0265eb83e2d9c8adefef90de2e22ece82",
    "03d32fc2a15ca8cc50ee36d7fae1d854164c2c1cbd2e683ce645831850bed569",
    "a2c81dab65f3807066aa1f768d2a63a632325eb8c3c5b61aa9237f602487a1d0",
    "20516a3a5c1f732e3123d67cd478300715aa3536bc74f1559e42ff3c51829d23",
    "a1c25006ad17c1f27216a6756eaff9984c9848d727218b5cbd7df2a56d225697",
    "07e1d854e90781922e1e44b7d176a2687d6d15c59416dbdec7d75c7aaf3fa652",
    "d4677f27de92eccb80dee1b765ccfbce20e344c74b455f08efd81e66c34b68bd",
    "4faf617dd2f5dfbab620b2677926a7ff85085b88eb7eb74706aa964e85ee4569",
    "049e2b55c4161b18a69056f4eda1c219e67a3b702ed33512fa810a98a6dc66fd",
    "9acebded39d9088e63f86336425a645f705663a3f8b2af9225dbcc34870f66a7",
    "0df506a50dded948691325107f83261a36cf16577019a90e96d12ee4d4dce13f",
    "31273936e5ddcbc0dbab5bf0ee04d0a19da348f1f9fc34379641efec4bdd254f",
    "d67cf7dc6ebad5ee69172b232f609cb9c3ae533306ee7778453d13b041dc93fb",
    "63f94b2aeddb1a8112c8db5b7c1cd644dcc15d209c46c9cae9fc6164c6fddda8",
    "e4a32a5e5d6fdd1582aad354c1b82766b8edfaa35ce44aa90dd2edb1c2aaff88",
    "c4879b7c6417f5e6fed290a4efab2c6764e11c0749b3a45637f27efcc0668c6a",
    "36abe1cbb1a00d160c53e82e917db0874db41175934987badc5cee0acea473c3",
    "c4e373b65500d9739d58469f15803d89297084fbf8c5d6c546265a454ed38ee7",
    "8da0d74378bbc18e5d20f929b00aaebaf2e415a3fa7c969786810cf339f33edb",
    "e975857718da87b08060ca49913d630523ebd719b1354abc4b3f6ff5d225c059",
)
#: The solo baselines of the demo grid's multi-core points, in
#: ``solo_requests`` order (shared and partitioned points share them).
SOLO_KEYS = (
    "92b7edeef3cbed0f4f5588db4c8e821a2a816245c889dfde63ae1b22c7626843",
    "0df506a50dded948691325107f83261a36cf16577019a90e96d12ee4d4dce13f",
    "03d32fc2a15ca8cc50ee36d7fae1d854164c2c1cbd2e683ce645831850bed569",
    "c4879b7c6417f5e6fed290a4efab2c6764e11c0749b3a45637f27efcc0668c6a",
    "03d32fc2a15ca8cc50ee36d7fae1d854164c2c1cbd2e683ce645831850bed569",
    "c4879b7c6417f5e6fed290a4efab2c6764e11c0749b3a45637f27efcc0668c6a",
)

#: Rows of the ``--trace-file`` sweep in
#: :func:`test_trace_file_point_keys_are_pinned` (``lru``, ``emissary``).
FILE_KEYS = (
    "ca079241479772a51b178520f44ee0c4d6c862c751845143253d38ef93e01642",
    "ac8f8c8fbe0b7f5033aa138c7093abf2e6f95590d2ecc0bad2917bccce585e03",
)


def test_demo_grid_keys_are_pinned():
    grid = demo_grid(n=20_000)
    assert tuple(config_key(request) for request in grid) == DEMO_KEYS
    solos = [solo for request in grid if request.is_multicore
             for solo in solo_requests(request)]
    assert tuple(config_key(solo) for solo in solos) == SOLO_KEYS


def test_trace_file_point_keys_are_pinned(tmp_path):
    """The key of a file-backed point is its content hash plus geometry:
    the file's path is advisory and the envelope's ``config`` is the
    key's own encoding."""
    path = tmp_path / "t.champsim"
    trace_io.write_trace(
        path, [TraceSpec("loop", 2_000, 1, {"footprint_lines": 100}).generate()])
    out = tmp_path / "out.json"
    assert main(["--traces", "", "--trace-file", str(path),
                 "--policies", "lru,emissary", "--num-sets", "16",
                 "--ways", "4", "--l1-sets", "8", "--l1-ways", "2",
                 "--workers", "1", "--cache-dir", str(tmp_path / "rc"),
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert tuple(config_key(row["config"]) for row in rows) == FILE_KEYS
    assert all("backend" not in row["config"] for row in rows)


def test_compiled_requests_hit_the_batched_cache(tmp_path):
    """Backends are bit-identical, so the key leaves the backend out: a
    grid simulated on ``batched`` answers the same requests on
    ``compiled`` from the cache, fairness baselines included."""
    hierarchy = HierarchyConfig(l1=CacheConfig(num_sets=8, ways=2),
                                l2=CacheConfig(num_sets=16, ways=4))
    loop = TraceSpec("loop", 2_000, 1, {"footprint_lines": 100})
    mix = InterleaveSpec(cores=(loop, TraceSpec("call", 1_000, 2)),
                         weights=(2, 1))
    grid = (build_grid([loop], ["lru", "emissary"],
                       CacheConfig(num_sets=16, ways=4), seed=1,
                       hp_thresholds=[2], prob_invs=[8])
            + build_grid([loop, mix], ["lru", "emissary"], hierarchy, seed=1,
                         hp_thresholds=[2], prob_invs=[8], min_l1_misses=2))
    rows = run_sweep(grid, workers=1, cache_dir=tmp_path)
    assert add_fairness(rows, workers=1, cache_dir=tmp_path) == 2
    assert not any(row["cached"] for row in rows)

    compiled = [replace(request, backend="compiled") for request in grid]
    assert all(isinstance(r, SimRequest) for r in compiled)
    store = ResultsCache(tmp_path)
    again = run_sweep(compiled, workers=1, cache_dir=tmp_path, store=store)
    assert all(row["cached"] for row in again)
    assert [row["config"] for row in again] == [row["config"] for row in rows]
    assert add_fairness(again, workers=1, cache_dir=tmp_path,
                        store=store) == 2
    assert store.stats() == {"hits": len(grid) + 4, "misses": 0}
    assert ([row["fairness"] for row in again if "fairness" in row]
            == [row["fairness"] for row in rows if "fairness" in row])
