"""Content-addressed forward-compute memoization and its counted-work check.

DAOP's core premise is that placement and scheduling change *time*, never
*values*: every functional numpy forward in this repository is a pure
function of its input bytes and the model weights.  ``repro.perf``
exploits that for the simulator's own host time — a bounded-byte,
BLAKE2-keyed LRU (:class:`TensorCache`) that the model stages consult via
``MoETransformer.attach_compute_cache``, shared across engines by the
differential audit and across sweep points by the benchmarks.
:func:`bench_compute` (``repro bench-compute``) records the cache's
cold-vs-warm counted work into the committed ``BENCH_compute.json``,
which the test suite regenerates byte for byte.  Host time is measured
by the repository benchmark under ``bench/``.  See
``docs/performance.md``.
"""

from repro.perf.bench import bench_compute, warm_pass_forwarded
from repro.perf.memo import IdentityLRUMemo
from repro.perf.tensor_cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MEMO_CAPACITY,
    StageCounters,
    TensorCache,
    content_key,
)

__all__ = [
    "bench_compute",
    "warm_pass_forwarded",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MEMO_CAPACITY",
    "IdentityLRUMemo",
    "StageCounters",
    "TensorCache",
    "content_key",
]
