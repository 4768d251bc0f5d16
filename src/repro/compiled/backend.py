"""Backend selection and bindings for the compiled tier.

Exactly one backend is active per process, chosen at first use:

1. ``numba`` — ``@njit`` versions of the hot loops (``parallel=True`` for
   the two propagation-blocking phases, whose iterations write disjoint
   slots and are therefore exact under any interleaving);
2. ``cc`` — :data:`_C_SOURCE` compiled with the system C compiler into a
   temp-dir shared library (content-addressed by source hash, so repeat
   processes reload instead of recompiling) and bound through ctypes;
3. ``None`` — no backend, or its build failed (for example on an unusable
   ``REPRO_COMPILED_CACHE_DIR``, with one warning); callers fall back to
   the pure-NumPy oracles.

``REPRO_COMPILED_BACKEND`` overrides the ladder: ``numba``/``cc`` force
one rung (``None`` if unavailable), ``none`` disables the tier (used by
the fallback tests).

The first successful build/JIT is wrapped in the span
``compiled_warmup[<backend>]`` so compilation cost lands in run reports
instead of silently inflating the first measured iteration; see
:func:`warmup`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.obs.log import get_logger
from repro.obs.spans import span

__all__ = [
    "BACKEND_ENV",
    "WARMUP_SPAN_PREFIX",
    "available",
    "backend_name",
    "get_backend",
    "warmup",
    "warmup_seconds",
]

log = get_logger(__name__)

#: Environment variable forcing a backend: ``numba``, ``cc``, or ``none``.
BACKEND_ENV = "REPRO_COMPILED_BACKEND"

#: Span recorded around the first backend build/JIT compilation; the full
#: name is ``compiled_warmup[<backend>]`` (``docs/metrics_schema.md``).
WARMUP_SPAN_PREFIX = "compiled_warmup"

#: C implementations of the two hottest loops (propagation-blocking
#: binning/accumulate, Algorithm 3) and an exact fully-associative LRU
#: replay (the per-access semantics of ``FullyAssociativeLRU``).  The LRU
#: state is caller-allocated NumPy buffers: a dense node pool (slots
#: ``0..count-1`` always live because an eviction's slot is immediately
#: reused by the insertion that caused it) forming an intrusive MRU list,
#: plus an open-addressing hash table with tombstone deletion, rebuilt
#: in place when tombstones exceed a quarter of the table.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define EMPTY (-1)
#define TOMB  (-2)

/* ---------------- propagation blocking ---------------- */

/* Binning phase in push (CSR) order: contributions are read sequentially
   and written into the deterministic bin layout via the precomputed slot
   permutation `pos` (the inverse of BinLayout.order) — a small number of
   sequential per-bin write streams, as in the paper. */
void pb_binning(const float *contrib, const int64_t *offsets,
                const int32_t *pos, int64_t n, float *binned) {
    for (int64_t u = 0; u < n; ++u) {
        float c = contrib[u];
        int64_t hi = offsets[u + 1];
        for (int64_t e = offsets[u]; e < hi; ++e)
            binned[pos[e]] = c;
    }
}

/* Accumulate phase: drain the bins in order; the float64 adds happen in
   bin-major slot order, which is exactly the per-bin np.bincount order of
   the NumPy oracle, so the sums are bit-identical. */
void pb_accumulate(const float *binned, const int32_t *dst_sorted,
                   int64_t m, double *sums) {
    for (int64_t j = 0; j < m; ++j)
        sums[dst_sorted[j]] += (double)binned[j];
}

/* ---------------- exact fully-associative LRU ----------------
   hdr: int64[4] = {count, head (MRU), tail (LRU), tombstones}        */

static inline int64_t lru_hash(int64_t key, int64_t mask) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return (int64_t)(h & (uint64_t)mask);
}

static void lru_rebuild(int64_t *hdr, int32_t *table, int64_t tsize,
                        const int64_t *line) {
    int64_t mask = tsize - 1;
    memset(table, 0xFF, (size_t)tsize * sizeof(int32_t)); /* all EMPTY */
    for (int64_t s = 0; s < hdr[0]; ++s) {
        int64_t i = lru_hash(line[s], mask);
        while (table[i] != EMPTY)
            i = (i + 1) & mask;
        table[i] = (int32_t)s;
    }
    hdr[3] = 0;
}

void lru_run(int64_t *hdr, int32_t *table, int64_t tsize,
             int64_t *line, int32_t *prev, int32_t *next, uint8_t *dirty,
             int64_t capacity, const int64_t *lines, int64_t n,
             int32_t write, int64_t *out) {
    int64_t mask = tsize - 1;
    int64_t count = hdr[0], head = hdr[1], tail = hdr[2], tombs = hdr[3];
    int64_t misses = 0, writebacks = 0;
    for (int64_t a = 0; a < n; ++a) {
        int64_t key = lines[a];
        int64_t i = lru_hash(key, mask);
        int64_t free_pos = -1;
        int32_t node = EMPTY;
        for (;;) {
            int32_t v = table[i];
            if (v == EMPTY)
                break;
            if (v == TOMB) {
                if (free_pos < 0)
                    free_pos = i;
            } else if (line[v] == key) {
                node = v;
                break;
            }
            i = (i + 1) & mask;
        }
        if (node != EMPTY) {
            /* hit: move to MRU, merge the dirty bit */
            if (write)
                dirty[node] = 1;
            if (head != node) {
                int32_t p = prev[node], nx = next[node];
                if (p >= 0) next[p] = nx;
                if (nx >= 0) prev[nx] = p;
                if (tail == node) tail = p;
                prev[node] = -1;
                next[node] = (int32_t)head;
                if (head >= 0) prev[head] = (int32_t)node;
                head = node;
            }
            continue;
        }
        ++misses;
        int64_t slot;
        if (count == capacity) {
            /* evict the LRU tail; its slot hosts the new line */
            int64_t victim = tail;
            int64_t vkey = line[victim];
            tail = prev[victim];
            if (tail >= 0) next[tail] = -1; else head = -1;
            if (dirty[victim])
                ++writebacks;
            int64_t d = lru_hash(vkey, mask);
            while (table[d] == TOMB || table[d] < 0 || line[table[d]] != vkey)
                d = (d + 1) & mask;
            table[d] = TOMB;
            ++tombs;
            slot = victim;
            if (free_pos < 0 && d == i)
                free_pos = d; /* the key may hash where the victim sat */
        } else {
            slot = count++;
        }
        line[slot] = key;
        dirty[slot] = (uint8_t)write;
        prev[slot] = -1;
        next[slot] = (int32_t)head;
        if (head >= 0) prev[head] = (int32_t)slot;
        head = slot;
        if (tail < 0) tail = slot;
        if (free_pos >= 0) {
            table[free_pos] = (int32_t)slot;
            --tombs;
        } else {
            /* i still points at the terminating slot of the probe */
            while (table[i] >= 0)
                i = (i + 1) & mask;
            if (table[i] == TOMB) --tombs;
            table[i] = (int32_t)slot;
        }
        if (tombs * 4 > tsize) {
            hdr[0] = count;
            lru_rebuild(hdr, table, tsize, line);
            tombs = 0;
        }
    }
    hdr[0] = count;
    hdr[1] = head;
    hdr[2] = tail;
    hdr[3] = tombs;
    out[0] += misses;
    out[1] += writebacks;
}

int64_t lru_flush(int64_t *hdr, int32_t *table, int64_t tsize,
                  const uint8_t *dirty) {
    int64_t dirty_count = 0;
    for (int64_t s = 0; s < hdr[0]; ++s)
        if (dirty[s])
            ++dirty_count;
    hdr[0] = 0;
    hdr[1] = -1;
    hdr[2] = -1;
    hdr[3] = 0;
    memset(table, 0xFF, (size_t)tsize * sizeof(int32_t));
    return dirty_count;
}
"""


def _force() -> str | None:
    value = os.environ.get(BACKEND_ENV, "").strip().lower()
    return value or None


class _CcBackend:
    """ctypes bindings over the compiled :data:`_C_SOURCE` library."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.pb_binning.argtypes = [ctypes.c_void_p] * 3 + [
            ctypes.c_int64,
            ctypes.c_void_p,
        ]
        lib.pb_binning.restype = None
        lib.pb_accumulate.argtypes = [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_void_p,
        ]
        lib.pb_accumulate.restype = None
        lib.lru_run.argtypes = (
            [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
            + [ctypes.c_void_p] * 4
            + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32]
            + [ctypes.c_void_p]
        )
        lib.lru_run.restype = None
        lib.lru_flush.argtypes = [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_void_p,
        ]
        lib.lru_flush.restype = ctypes.c_int64

    @staticmethod
    def _ptr(array: np.ndarray) -> int:
        return array.ctypes.data

    def pb_binning(self, contrib, offsets, pos, bounds, binned) -> None:
        self._lib.pb_binning(
            self._ptr(contrib),
            self._ptr(offsets),
            self._ptr(pos),
            ctypes.c_int64(offsets.size - 1),
            self._ptr(binned),
        )

    def pb_accumulate(self, binned, dst_sorted, bounds, sums) -> None:
        self._lib.pb_accumulate(
            self._ptr(binned),
            self._ptr(dst_sorted),
            ctypes.c_int64(dst_sorted.size),
            self._ptr(sums),
        )

    def lru_run(self, state, lines, write: bool) -> tuple[int, int]:
        out = np.zeros(2, dtype=np.int64)
        self._lib.lru_run(
            self._ptr(state.hdr),
            self._ptr(state.table),
            ctypes.c_int64(state.table.size),
            self._ptr(state.line),
            self._ptr(state.prev),
            self._ptr(state.next),
            self._ptr(state.dirty),
            ctypes.c_int64(state.capacity),
            self._ptr(lines),
            ctypes.c_int64(lines.size),
            ctypes.c_int32(1 if write else 0),
            self._ptr(out),
        )
        return int(out[0]), int(out[1])

    def lru_flush(self, state) -> int:
        return int(
            self._lib.lru_flush(
                self._ptr(state.hdr),
                self._ptr(state.table),
                ctypes.c_int64(state.table.size),
                self._ptr(state.dirty),
            )
        )


class _NumbaBackend:
    """``@njit`` twins of the C loops (see :mod:`repro.compiled._numba`)."""

    name = "numba"

    def __init__(self, impl) -> None:
        self._impl = impl

    def pb_binning(self, contrib, offsets, pos, bounds, binned) -> None:
        self._impl.pb_binning(contrib, offsets, pos, binned)

    def pb_accumulate(self, binned, dst_sorted, bounds, sums) -> None:
        self._impl.pb_accumulate(binned, dst_sorted, bounds, sums)

    def lru_run(self, state, lines, write: bool) -> tuple[int, int]:
        misses, writebacks = self._impl.lru_run(
            state.hdr,
            state.table,
            state.line,
            state.prev,
            state.next,
            state.dirty,
            state.capacity,
            lines,
            write,
        )
        return int(misses), int(writebacks)

    def lru_flush(self, state) -> int:
        return int(self._impl.lru_flush(state.hdr, state.table, state.dirty))


def _compiler() -> str | None:
    import shutil

    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_cc() -> _CcBackend | None:
    compiler = _compiler()
    if compiler is None:
        log.debug("compiled tier: no C compiler on PATH")
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_COMPILED_CACHE_DIR") or tempfile.gettempdir()
    suffix = "dll" if sys.platform == "win32" else "so"
    lib_path = os.path.join(cache_dir, f"repro_compiled_{digest}.{suffix}")
    if not os.path.exists(lib_path):
        try:
            if not _compile_cc(compiler, cache_dir, digest, lib_path):
                return None
        except OSError as exc:
            log.warning(
                "compiled tier: cannot build in %s (%s); running the NumPy "
                "oracles instead",
                cache_dir,
                exc,
            )
            return None
    try:
        return _CcBackend(ctypes.CDLL(lib_path))
    except OSError as exc:
        log.debug("compiled tier: loading %s failed: %s", lib_path, exc)
        return None


def _compile_cc(compiler: str, cache_dir: str, digest: str, lib_path: str) -> bool:
    """Compile :data:`_C_SOURCE` into ``lib_path``; False if the compiler fails.

    Source and library are written under per-process names and published
    with ``os.replace``, so processes building at the same time (a pooled
    run's workers on an empty cache directory) never see a half-written
    file; losing the race is fine, the content is identical.
    """
    os.makedirs(cache_dir, exist_ok=True)
    src_path = os.path.join(cache_dir, f"repro_compiled_{digest}.c")
    tmp_src = os.path.join(cache_dir, f"repro_compiled_{digest}.{os.getpid()}.c")
    tmp_lib = f"{lib_path}.{os.getpid()}.tmp"
    with open(tmp_src, "w") as handle:
        handle.write(_C_SOURCE)
    for flags in (["-O3", "-march=native"], ["-O2"]):
        cmd = [compiler, *flags, "-shared", "-fPIC", "-o", tmp_lib, tmp_src]
        try:
            result = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log.debug("compiled tier: %s failed: %s", compiler, exc)
            break
        if result.returncode == 0:
            os.replace(tmp_src, src_path)
            os.replace(tmp_lib, lib_path)
            return True
        log.debug(
            "compiled tier: %s failed (%s): %s",
            " ".join(cmd),
            result.returncode,
            result.stderr.strip(),
        )
    os.remove(tmp_src)
    return False


def _build_numba() -> _NumbaBackend | None:
    try:
        from repro.compiled import _numba as impl
    except Exception as exc:  # the @njit decorators run at import time
        log.debug("compiled tier: numba unusable: %s", exc)
        return None
    backend = _NumbaBackend(impl)
    # Trigger JIT compilation of every entry point now, inside the warmup
    # span, so the first measured iteration is not charged for it.
    impl.compile_all()
    return backend


_backend: object | None = None
_resolved = False
_warmup_seconds = 0.0


def get_backend():
    """The active backend object, or ``None``; builds lazily on first call.

    The build (C compile + load, or Numba JIT of every entry point) runs
    inside the ``compiled_warmup[<backend>]`` span, so when a recorder or
    tracer is active the compilation cost is attributed explicitly.
    """
    global _backend, _resolved, _warmup_seconds
    if _resolved:
        return _backend
    force = _force()
    start = time.perf_counter()
    if force == "none":
        backend = None
    elif force == "numba":
        with span(f"{WARMUP_SPAN_PREFIX}[numba]"):
            backend = _build_numba()
    elif force == "cc":
        with span(f"{WARMUP_SPAN_PREFIX}[cc]"):
            backend = _build_cc()
    else:
        with span(f"{WARMUP_SPAN_PREFIX}[numba]"):
            backend = _build_numba()
        if backend is None:
            with span(f"{WARMUP_SPAN_PREFIX}[cc]"):
                backend = _build_cc()
    _warmup_seconds = time.perf_counter() - start
    _backend = backend
    _resolved = True
    if backend is None:
        log.debug("compiled tier: no backend available (force=%s)", force)
    else:
        log.debug(
            "compiled tier: backend %s ready in %.3fs",
            backend.name,
            _warmup_seconds,
        )
    return _backend


def _reset_backend_for_tests() -> None:
    """Drop the resolved backend so the next call re-reads the environment."""
    global _backend, _resolved, _warmup_seconds
    _backend = None
    _resolved = False
    _warmup_seconds = 0.0


def available() -> bool:
    """Whether a compiled backend (numba or cc) is usable in this process."""
    return get_backend() is not None


def backend_name() -> str:
    """``"numba"``, ``"cc"``, or ``"numpy"`` (the no-backend fallback)."""
    backend = get_backend()
    return backend.name if backend is not None else "numpy"


def warmup() -> dict[str, object]:
    """Eagerly build/JIT the backend; returns what happened.

    Idempotent: only the first call per process compiles (and records the
    ``compiled_warmup[<backend>]`` span); later calls return the cached
    outcome with ``"cached": True``.  Returns ``{"backend", "seconds",
    "cached"}`` — ``backend`` is ``"numpy"`` when no backend is available,
    in which case nothing was compiled and ``seconds`` only covers the
    failed probe.
    """
    cached = _resolved
    get_backend()
    return {
        "backend": backend_name(),
        "seconds": _warmup_seconds,
        "cached": cached,
    }


def warmup_seconds() -> float:
    """Wall-clock seconds the backend build/JIT took (0.0 before warmup)."""
    return _warmup_seconds
