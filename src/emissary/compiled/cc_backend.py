"""The compiled kernels: a C translation of each policy's step.

The C source below steps the four policies over the flat per-set state
that the batched Python kernels allocate (:mod:`emissary.policies`):
every entry point gets pointers to one kernel's arrays (``_tag`` is
``tag``, ``_size`` is ``size``, and so on) and updates them in place,
so a dispatch may go to either implementation and the state stays one.
It is compiled once per toolchain into a shared library with
``cc -O1 -shared -fPIC`` and bound through :mod:`ctypes`, so the
backend needs no third-party dependency, only a C compiler.  The loops
are bound by branches and memory, so ``-O1`` runs them as fast as
``-O3`` in about a third of the cold build time.

Semantics contract — bit-identical to the batched Python kernels and to
the naive reference (the differential suite, the golden tables and the
telemetry parity tests check it):

* Accesses arrive in **trace order** (``set_idx`` / ``tags`` aligned
  per access).  Sets are independent, so trace-order processing equals
  the batched engine's set-major processing access for access, and the
  compiled path skips the stable sort entirely.
* Slots fill in order ``0 .. ways-1`` and never empty, so ``size[s]``
  fully describes residency (no tag sentinel needed).
* LRU keeps each set's slots in recency order, LRU first, as the closed
  form does: a hit moves its slot to the MRU end, a miss in a full set
  evicts slot 0 and shifts the rest down, and a line's hit count moves
  with its tag.
* EMISSARY recency is a per-slot int64 timestamp from the kernel's
  clock (``clock[0]``): each use takes a stamp above every resident
  one, so a set's stamps are unique and its LRU line is the minimum.
  Only the order within a set matters; the Python kernel stamps a
  lockstep step's lanes alike and restamps the sets its scalar loop
  finishes.
* RANDOM's victim is ``(int64_t)(u_i * ways)``: physical way positions
  match the batched kernel because cold fills append at index ``size``.
* SRRIP inserts at ``RRPV_MAX - 1`` (0 when the fill is immediately
  re-referenced, the engine's repeat flag), promotes to 0 on hit, ages
  every way by ``RRPV_MAX - max(rrpv)`` when no way is at the maximum,
  and evicts the lowest-index way at the maximum.
* EMISSARY's two-class victim search prefers the LRU line among
  low-priority ways (high-priority once the set is HP-saturated); an
  empty preferred class falls back to the overall LRU way.  Promotion
  on fill requires measured cost ``>= min_l1_misses`` (every fill
  qualifies when no cost signal exists), ``u_i < 1.0 / prob_inv``, and
  a free HP slot in the fill's pool: ``hp_by_pool`` below ``quota``.
  The shared budget is one pool of ``hp_threshold``; the partitioned
  one has a pool per core, and the fill's pool is its core.

Each policy body is compiled once, as ``emissary_<kind>_run``, and
takes the one :class:`KernelArgs` block.  Its ``tel`` field is the
telemetry flag, set when telemetry is attached: the body then also
keeps per-line hits-since-fill (``line_hits``), adds counter deltas
into the packed ``counters`` array, and writes each eviction victim's
hit count into ``evbuf`` (returning how many it wrote).  With ``tel``
at 0 the body never reads those buffers, which stay NULL; the flag is
one well-predicted branch per hit or fill.  The source calls nothing but its
own functions and includes only ``<stdint.h>``: a kernel cannot reach
an RNG, a clock or I/O (``tests/test_compiled_backend.py`` checks it).

The build is cached under ``$EMISSARY_CC_CACHE`` (default: a
per-user directory inside the system temp dir, created with mode
``0o700``) keyed by the SHA-256 of the source plus the compiler
identity, so repeated processes (sweep workers, test runs) reuse one
``.so``.  A cache directory or cached library that another user owns,
or that its group or others may write, is refused with
:class:`CcBuildError`.  Build failures surface as
:class:`CcBuildError`, which the registry treats as "compiled kernels
unavailable", never as a crash.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

# EMISSARY's ``_stats`` slots, emitted as #defines like the CTR_ slots.
from emissary.policies.emissary import (  # noqa: F401
    STAT_HP_EVICTIONS,
    STAT_HP_PROMOTIONS,
)
from emissary.policies.srrip import RRPV_INSERT, RRPV_MAX

#: ``counters`` slot layout (written only when ``tel`` is set).
CTR_FILLS = 0
CTR_EVICTIONS = 1
CTR_DEAD_ON_FILL = 2
CTR_EVICTIONS_HP = 3
CTR_HP_PROMOTIONS = 4
NUM_COUNTERS = 5

SRRIP_RRPV_MAX = RRPV_MAX
SRRIP_RRPV_INSERT = RRPV_INSERT

#: The one argument block every entry point takes, in C declaration
#: order: the per-dispatch inputs and outputs, then the flat state (each
#: named after the Python kernel's array, ``_tag`` -> ``tag``), then the
#: telemetry flag, the geometry and the policy parameters (named after
#: the kernel's attributes).
ARG_FIELDS: tuple[tuple[str, str], ...] = (
    ("set_idx", "const int64_t *"),
    ("tags", "const int64_t *"),
    ("u", "const double *"),
    ("rep", "const uint8_t *"),
    ("cost", "const int64_t *"),
    ("core", "const int64_t *"),
    ("extra", "const int64_t *"),
    ("evbuf", "int64_t *"),
    ("hits", "uint8_t *"),
    ("m", "int64_t"),
    ("has_cost", "int64_t"),
    ("tag", "int64_t *"),
    ("ts", "int64_t *"),
    ("rrpv", "int64_t *"),
    ("owner", "int64_t *"),
    ("size", "int64_t *"),
    ("hp", "int64_t *"),
    ("hp_by_pool", "int64_t *"),
    ("quota", "const int64_t *"),
    ("clock", "int64_t *"),
    ("stats", "int64_t *"),
    ("line_hits", "int64_t *"),
    ("counters", "int64_t *"),
    ("tel", "int64_t"),
    ("ways", "int64_t"),
    ("pools", "int64_t"),
    ("hp_threshold", "int64_t"),
    ("prob_inv", "int64_t"),
    ("min_l1_misses", "int64_t"),
)

#: Kernel kinds; each has one entry point.
KINDS = ("lru", "random", "srrip", "emissary")


def symbol(kind: str) -> str:
    """Exported name of ``kind``'s entry point."""
    return f"emissary_{kind}_run"


KERNEL_SYMBOLS = tuple(symbol(kind) for kind in KINDS)


class KernelArgs(ctypes.Structure):
    """ctypes twin of the C ``Args`` struct (every field is 8 bytes)."""

    _fields_ = [(name, ctypes.c_void_p if ctype.endswith("*")
                 else ctypes.c_int64) for name, ctype in ARG_FIELDS]


def _c_header() -> str:
    defines = {name: value for name, value in globals().items()
               if name.startswith(("CTR_", "STAT_", "SRRIP_RRPV_"))}
    fields = "".join(f"    {ctype}{'' if ctype.endswith('*') else ' '}{name};\n"
                     for name, ctype in ARG_FIELDS)
    return ("#include <stdint.h>\n\n"
            + "".join(f"#define {name} {value}\n"
                      for name, value in defines.items())
            + "\ntypedef struct {\n" + fields + "} Args;\n")


_C_KERNELS = r"""
#define KERNEL static inline __attribute__((always_inline))

/* Telemetry tallies of one dispatch (kept only when tel is set). */
typedef struct { int64_t fills, evictions, dead, nev; } Tally;

/* The way of set `base` holding `tag`, or -1. */
KERNEL int64_t find_way(const int64_t *tag_arr, int64_t base, int64_t size,
                        int64_t tag) {
    for (int64_t w = 0; w < size; w++) {
        if (tag_arr[base + w] == tag) return w;
    }
    return -1;
}

/* The way with the oldest timestamp (timestamps are unique). */
KERNEL int64_t oldest_way(const int64_t *ts_arr, int64_t base, int64_t ways) {
    int64_t way = 0, best = ts_arr[base];
    for (int64_t w = 1; w < ways; w++) {
        if (ts_arr[base + w] < best) { best = ts_arr[base + w]; way = w; }
    }
    return way;
}

/* Move slots `from + 1 .. last` of a row down one slot, freeing `last`. */
KERNEL void shift_down(int64_t *row, int64_t from, int64_t last) {
    for (int64_t w = from; w < last; w++) row[w] = row[w + 1];
}

/* One eviction: the victim's lifetime hits go to `evbuf`. */
KERNEL void tally_eviction(Tally *t, int64_t *evbuf, int64_t victim_hits) {
    evbuf[t->nev++] = victim_hits;
    t->evictions += 1;
    if (victim_hits == 0) t->dead += 1;
}

KERNEL void tally_fold(const Tally *t, int64_t *counters) {
    counters[CTR_FILLS] += t->fills;
    counters[CTR_EVICTIONS] += t->evictions;
    counters[CTR_DEAD_ON_FILL] += t->dead;
}

static int64_t lru_body(const Args *a) {
    const int64_t *set_idx = a->set_idx, *tags = a->tags, *extra = a->extra;
    int64_t *tag_arr = a->tag, *size_arr = a->size;
    int64_t *line_hits = a->line_hits, *evbuf = a->evbuf;
    uint8_t *hits = a->hits;
    const int64_t m = a->m, ways = a->ways, tel = a->tel;
    Tally t = {0, 0, 0, 0};
    for (int64_t i = 0; i < m; i++) {
        int64_t s = set_idx[i], base = s * ways, size = size_arr[s];
        int64_t tag = tags[i], way = find_way(tag_arr, base, size, tag);
        int64_t mru = base + size - 1;
        if (way >= 0) {
            hits[i] = 1;
            shift_down(tag_arr, base + way, mru);
            tag_arr[mru] = tag;
            if (tel) {
                int64_t h = line_hits[base + way] + 1 + extra[i];
                shift_down(line_hits, base + way, mru);
                line_hits[mru] = h;
            }
            continue;
        }
        hits[i] = 0;
        if (size < ways) {
            mru += 1;
            size_arr[s] = size + 1;
        } else {
            /* evict the LRU slot */
            if (tel) tally_eviction(&t, evbuf, line_hits[base]);
            shift_down(tag_arr, base, mru);
            if (tel) shift_down(line_hits, base, mru);
        }
        tag_arr[mru] = tag;
        if (tel) { line_hits[mru] = extra[i]; t.fills += 1; }
    }
    if (tel) tally_fold(&t, a->counters);
    return t.nev;
}

static int64_t random_body(const Args *a) {
    const int64_t *set_idx = a->set_idx, *tags = a->tags, *extra = a->extra;
    const double *u = a->u;
    int64_t *tag_arr = a->tag, *size_arr = a->size;
    int64_t *line_hits = a->line_hits, *evbuf = a->evbuf;
    uint8_t *hits = a->hits;
    const int64_t m = a->m, ways = a->ways, tel = a->tel;
    Tally t = {0, 0, 0, 0};
    for (int64_t i = 0; i < m; i++) {
        int64_t s = set_idx[i], base = s * ways, size = size_arr[s];
        int64_t tag = tags[i], way = find_way(tag_arr, base, size, tag);
        if (way >= 0) {
            hits[i] = 1;
            if (tel) line_hits[base + way] += 1 + extra[i];
        } else {
            hits[i] = 0;
            if (size < ways) {
                way = size;
                size_arr[s] = size + 1;
            } else {
                way = (int64_t)(u[i] * (double)ways);
                if (tel) tally_eviction(&t, evbuf, line_hits[base + way]);
            }
            tag_arr[base + way] = tag;
            if (tel) { line_hits[base + way] = extra[i]; t.fills += 1; }
        }
    }
    if (tel) tally_fold(&t, a->counters);
    return t.nev;
}

static int64_t srrip_body(const Args *a) {
    const int64_t *set_idx = a->set_idx, *tags = a->tags, *extra = a->extra;
    const uint8_t *rep = a->rep;
    int64_t *tag_arr = a->tag, *rrpv_arr = a->rrpv, *size_arr = a->size;
    int64_t *line_hits = a->line_hits, *evbuf = a->evbuf;
    uint8_t *hits = a->hits;
    const int64_t m = a->m, ways = a->ways, tel = a->tel;
    Tally t = {0, 0, 0, 0};
    for (int64_t i = 0; i < m; i++) {
        int64_t s = set_idx[i], base = s * ways, size = size_arr[s];
        int64_t tag = tags[i], way = find_way(tag_arr, base, size, tag);
        if (way >= 0) {
            hits[i] = 1;
            rrpv_arr[base + way] = 0;
            if (tel) line_hits[base + way] += 1 + extra[i];
        } else {
            hits[i] = 0;
            if (size < ways) {
                way = size;
                size_arr[s] = size + 1;
            } else {
                int64_t top = rrpv_arr[base];
                for (int64_t w = 1; w < ways; w++) {
                    if (rrpv_arr[base + w] > top) top = rrpv_arr[base + w];
                }
                if (top < SRRIP_RRPV_MAX) {
                    int64_t aging = SRRIP_RRPV_MAX - top;
                    for (int64_t w = 0; w < ways; w++) {
                        rrpv_arr[base + w] += aging;
                    }
                }
                way = 0;
                for (int64_t w = 0; w < ways; w++) {
                    if (rrpv_arr[base + w] == SRRIP_RRPV_MAX) { way = w; break; }
                }
                if (tel) tally_eviction(&t, evbuf, line_hits[base + way]);
            }
            tag_arr[base + way] = tag;
            rrpv_arr[base + way] = rep[i] != 0 ? 0 : SRRIP_RRPV_INSERT;
            if (tel) { line_hits[base + way] = extra[i]; t.fills += 1; }
        }
    }
    if (tel) tally_fold(&t, a->counters);
    return t.nev;
}

/* The HP budget is `pools` pools per set: an HP line is charged to its
   pool in `owner` (-1 marks a low-priority line), and a fill promotes
   only while its pool (its core when there are several pools, else 0)
   is under quota. */
static int64_t emissary_body(const Args *a) {
    const int64_t *set_idx = a->set_idx, *tags = a->tags, *extra = a->extra;
    const int64_t *cost = a->cost, *core = a->core, *quota = a->quota;
    const double *u = a->u;
    int64_t *tag_arr = a->tag, *ts_arr = a->ts, *owner_arr = a->owner;
    int64_t *size_arr = a->size;
    int64_t *hp_counts = a->hp, *hp_by_pool = a->hp_by_pool;
    int64_t *line_hits = a->line_hits, *evbuf = a->evbuf;
    uint8_t *hits = a->hits;
    const int64_t m = a->m, ways = a->ways, has_cost = a->has_cost;
    const int64_t tel = a->tel, pools = a->pools;
    const int64_t hp_threshold = a->hp_threshold, min_cost = a->min_l1_misses;
    const double p_hit = 1.0 / (double)a->prob_inv;
    int64_t c = a->clock[0];
    int64_t promotions = 0, hp_evictions = 0;
    Tally t = {0, 0, 0, 0};
    for (int64_t i = 0; i < m; i++) {
        int64_t s = set_idx[i], base = s * ways, size = size_arr[s];
        int64_t tag = tags[i], way = find_way(tag_arr, base, size, tag);
        if (way >= 0) {
            hits[i] = 1;
            if (tel) line_hits[base + way] += 1 + extra[i];
        } else {
            hits[i] = 0;
            int64_t hp = hp_counts[s];
            if (size == ways) {
                int64_t want = hp >= hp_threshold ? 1 : 0;
                int64_t best = 0;
                for (int64_t w = 0; w < ways; w++) {
                    if ((owner_arr[base + w] >= 0) == want
                            && (way < 0 || ts_arr[base + w] < best)) {
                        best = ts_arr[base + w];
                        way = w;
                    }
                }
                /* preferred class empty: overall LRU */
                if (way < 0) way = oldest_way(ts_arr, base, ways);
                if (tel) tally_eviction(&t, evbuf, line_hits[base + way]);
                if (owner_arr[base + way] >= 0) {
                    hp -= 1;
                    hp_evictions += 1;
                    hp_by_pool[s * pools + owner_arr[base + way]] -= 1;
                }
            } else {
                way = size;
                size_arr[s] = size + 1;
            }
            int64_t pool = pools > 1 ? core[i] : 0;
            int64_t *pool_hp = &hp_by_pool[s * pools + pool];
            if ((has_cost == 0 || cost[i] >= min_cost) && u[i] < p_hit
                    && *pool_hp < quota[pool]) {
                owner_arr[base + way] = pool;
                *pool_hp += 1;
                hp += 1;
                promotions += 1;
            } else {
                owner_arr[base + way] = -1;
            }
            hp_counts[s] = hp;
            tag_arr[base + way] = tag;
            if (tel) { line_hits[base + way] = extra[i]; t.fills += 1; }
        }
        ts_arr[base + way] = c++;
    }
    a->clock[0] = c;
    a->stats[STAT_HP_PROMOTIONS] += promotions;
    a->stats[STAT_HP_EVICTIONS] += hp_evictions;
    if (tel) {
        tally_fold(&t, a->counters);
        a->counters[CTR_EVICTIONS_HP] += hp_evictions;
        a->counters[CTR_HP_PROMOTIONS] += promotions;
    }
    return t.nev;
}

int64_t emissary_lru_run(const Args *a) { return lru_body(a); }
int64_t emissary_random_run(const Args *a) { return random_body(a); }
int64_t emissary_srrip_run(const Args *a) { return srrip_body(a); }
int64_t emissary_emissary_run(const Args *a) { return emissary_body(a); }
"""

C_SOURCE = _c_header() + _C_KERNELS


class CcBuildError(RuntimeError):
    """The C toolchain is missing or the kernel library failed to build."""


def find_compiler() -> str | None:
    """Path of a usable C compiler, or None.  ``$CC`` wins, then ``cc``
    and ``gcc``/``clang`` from PATH."""
    env_cc = os.environ.get("CC")
    candidates = [env_cc] if env_cc else []
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _cache_dir() -> Path:
    configured = os.environ.get("EMISSARY_CC_CACHE")
    if configured:
        return Path(configured)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"emissary-cc-{uid}"


def _check_private(path: Path) -> None:
    """Refuse ``path`` (raise :class:`CcBuildError`) unless it belongs to
    the current user and neither its group nor others may write it: a
    library loaded from there runs with this process's rights.  Skipped
    where the platform has no user ids."""
    if not hasattr(os, "getuid"):
        return
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise CcBuildError(
            f"refusing {path}: owned by uid {st.st_uid} with mode "
            f"{stat.S_IMODE(st.st_mode):o}; it must belong to uid "
            f"{os.getuid()} and not be writable by group or others")


def library_name(compiler: str) -> str:
    """File name of the kernel library ``compiler`` builds: keyed by the
    SHA-256 of the source, the compiler and the platform."""
    key = hashlib.sha256(
        (C_SOURCE + "\0" + compiler + "\0" + sys.platform).encode()
    ).hexdigest()[:24]
    suffix = ".dll" if sys.platform == "win32" else ".so"
    return f"emissary_kernels_{key}{suffix}"


def _bind(lib_path: Path) -> ctypes.CDLL:
    """Load the library and type every entry point; a library missing
    one raises :class:`CcBuildError`."""
    lib = ctypes.CDLL(str(lib_path))
    for name in KERNEL_SYMBOLS:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise CcBuildError(f"{lib_path} does not export {name}") from None
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.POINTER(KernelArgs)]
    return lib


def build_library(compiler: str | None = None) -> CcKernels:
    """Compile (or reuse) the kernel shared library and bind it.  A new
    build is bound once, to check it exports every kernel before it is
    published, and that binding is the one returned."""
    compiler = compiler or find_compiler()
    if compiler is None:
        raise CcBuildError(
            "no C compiler found (set $CC, or install gcc/clang/cc)")
    cache = _cache_dir()
    # Private to this user: the cached library is loaded without a
    # rebuild, so nobody else may be able to plant or replace it.
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    _check_private(cache)
    lib_path = cache / library_name(compiler)
    if lib_path.exists():
        _check_private(lib_path)
        return CcKernels(lib_path, _bind(lib_path))
    # Source and library both live under per-process names until the
    # checked library is published, so concurrent builders (sweep or
    # serve workers on a cold cache) never compile or load each other's
    # half-written files.
    stem = f"{lib_path.stem}.{os.getpid()}.tmp"
    src_path = cache / f"{stem}.c"
    tmp_path = cache / f"{stem}{lib_path.suffix}"
    try:
        src_path.write_text(C_SOURCE)
        cmd = [compiler, "-O1", "-fPIC", "-shared",
               str(src_path), "-o", str(tmp_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise CcBuildError(
                f"kernel library build failed ({' '.join(cmd)}):\n"
                f"{proc.stderr}")
        lib = _bind(tmp_path)
        os.replace(tmp_path, lib_path)
    finally:
        src_path.unlink(missing_ok=True)
        tmp_path.unlink(missing_ok=True)
    return CcKernels(lib_path, lib)


class CcKernels:
    """The bound library's entry points, looked up by kind."""

    name = "cc"

    def __init__(self, lib_path: Path, lib: ctypes.CDLL) -> None:
        self.lib_path = lib_path
        self._lib = lib

    def entry(self, kind: str) -> Any:
        """The ctypes function for ``kind`` (one of :data:`KINDS`)."""
        return getattr(self._lib, symbol(kind))
