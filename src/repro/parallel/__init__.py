"""Block-parallel execution engine.

A single scheduler shared by the layers that walk row blocks: chunked CSV
ingest, spillable ``D_k`` assembly, and the streaming GD loop. The
resident factorized operators do not use it: they run one BLAS-threaded
matmul per source factor, and their results and FLOP counters are the
same at every worker count.

Determinism contract (ingest, ``D_k`` assembly, ``StreamingGD``):

* Work is partitioned by **block size**, never by worker count, and every
  reduction happens on the calling thread in block order. Results are
  therefore identical for any worker count >= 2.
* ``REPRO_NUM_THREADS=1`` (or :func:`set_num_workers(1) <set_num_workers>`)
  is the *exact legacy path* — not a one-worker pool — so single-threaded
  runs are bit-for-bit the pre-engine code.
* Ingest and factor assembly are pure data movement into disjoint row
  slices: parsed chunks and built factors are bit-identical at every
  worker count. ``StreamingGD`` gradients reassociate across blocks, so
  its weights agree with the serial fit to <= 1e-8 while remaining
  bit-identical across worker counts >= 2.
"""

from repro.parallel.config import (
    DEFAULT_MIN_PARALLEL_ROWS,
    available_cores,
    effective_workers,
    get_min_parallel_rows,
    get_num_workers,
    num_threads,
    set_min_parallel_rows,
    set_num_workers,
    should_parallelize,
)
from repro.parallel.pool import imap_ordered, parallel_map, prefetch, shutdown

__all__ = [
    "DEFAULT_MIN_PARALLEL_ROWS",
    "available_cores",
    "effective_workers",
    "get_min_parallel_rows",
    "get_num_workers",
    "imap_ordered",
    "num_threads",
    "parallel_map",
    "prefetch",
    "set_min_parallel_rows",
    "set_num_workers",
    "shutdown",
    "should_parallelize",
]
