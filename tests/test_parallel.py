import os
import threading
import time

from tarry2d.parallel import map_blocks


def test_threads_capped_at_usable_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    def block(b):
        time.sleep(0.002)  # each block holds its thread, so an uncapped pool would grow
        return b, threading.get_ident()

    out = map_blocks(block, 40, 1000)
    assert [b for b, _ in out] == list(range(40))
    assert len({ident for _, ident in out}) <= cpus
