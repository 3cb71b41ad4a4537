"""Parallel block map with results merged in fixed order.

Callers split their work into blocks whose boundaries do not depend on the
worker count, so every block computes the same bytes on any thread and the
merged result is bitwise independent of --workers.  Threads help only where
the blocks spend their time in numpy calls that release the interpreter lock.
"""

from __future__ import annotations

import os

_pools: dict = {}  # one thread pool per worker count, kept for the process


def map_blocks(fn, n_blocks: int, workers: int) -> list:
    """[fn(0), ..., fn(n_blocks - 1)], on at most `workers` threads and the usable CPUs.

    fn must not itself call map_blocks with workers > 1: its blocks would wait
    on the pool that runs it.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    if workers <= 1 or n_blocks <= 1:
        return [fn(b) for b in range(n_blocks)]
    pool = _pools.get(workers)
    if pool is None:
        # imported here: concurrent.futures loads logging, about 5 ms of every CLI start
        from concurrent.futures import ThreadPoolExecutor

        pool = _pools[workers] = ThreadPoolExecutor(max_workers=workers)
    return list(pool.map(fn, range(n_blocks)))
