"""Compiled execution tier: the same kernels, compiled inner loops.

The pure-NumPy kernels in :mod:`repro.kernels` and the per-access
``flru`` engine in :mod:`repro.memsim` are the *oracles* — readable,
portable, and the source of truth for every paper claim.  This subpackage
provides a faster executable tier behind the same registries, selected
per availability at first use:

* **numba** — ``@njit`` (``parallel=True`` where iterations are provably
  independent) when Numba is importable (``pip install .[fast]``);
* **cc** — a small C library compiled on first use with the system C
  compiler and bound through :mod:`ctypes` when Numba is absent but a
  compiler exists;
* **numpy** — graceful fallback to the existing pure-NumPy paths when
  neither is available.  Selecting the compiled kernel tier then logs a
  warning and runs the oracle code, and the default cache engine runs the
  ``flru`` loop; results are identical, only slower.

Every compiled variant carries the same accuracy contract: **bit-identical
results to its pure-NumPy oracle** — PageRank scores for the kernels
(:mod:`repro.compiled.kernels`), per-stream/per-phase ``MemCounters`` for
the cache engine (:mod:`repro.compiled.engine`).  The differential suite
under ``tests/compiled/`` asserts exactly that, and
``tests/memsim/test_stackdist.py`` holds the default engine to the
``flru`` oracle on whichever rung resolved.

Compilation cost is never hidden: the first build/JIT of the backend is
recorded as the span ``compiled_warmup[<backend>]`` (see
``docs/metrics_schema.md``), so reports show time-to-solution *including*
warm-up — the accounting "Hardware Assisted Propagation Blocking"
(Balaji & Lucia) insists on.  Call :func:`warmup` eagerly to front-load
it, or let the first compiled kernel or default cache engine trigger it
lazily.

Registry names (see ``docs/performance.md`` for the tier matrix):

* kernels — ``pb-compiled`` / ``dpb-compiled`` in
  :data:`repro.kernels.pagerank.KERNELS`, or ``--kernel-tier compiled``
  on the CLI to map ``pb``/``dpb`` automatically;
* engine — the default ``stackdist`` entry of :data:`repro.memsim.ENGINES`
  builds :class:`CompiledLRU` when a backend resolves (``flru`` otherwise);
  set ``REPRO_COMPILED_BACKEND=none`` to force the oracle rung.
"""

from repro.compiled.backend import (
    BACKEND_ENV,
    WARMUP_SPAN_PREFIX,
    available,
    backend_name,
    warmup,
    warmup_seconds,
)
from repro.compiled.kernels import (
    CompiledDPBPageRank,
    CompiledPBPageRank,
    KERNEL_TIERS,
    resolve_method,
)
from repro.compiled.engine import CompiledLRU

__all__ = [
    "BACKEND_ENV",
    "WARMUP_SPAN_PREFIX",
    "available",
    "backend_name",
    "warmup",
    "warmup_seconds",
    "CompiledPBPageRank",
    "CompiledDPBPageRank",
    "KERNEL_TIERS",
    "resolve_method",
    "CompiledLRU",
]
