"""Host threads for the blocked kernels.

A blocked pass (MTI's post-clause-1 walk, the iteration-0 assignment
pass) splits its rows into blocks whose partition depends on the data
shape only, and :func:`run_blocks` hands them to the calling thread
plus a process-wide, lazily started pool, at most one thread per
block. Each thread claims the next unclaimed block under a lock until
none is left. Threads change who runs a block, never what it computes:
a pass's blocks own disjoint output rows, so its results are the same
bits at any thread count.

If a block raises, the threads stop claiming blocks, every thread
finishes the block it holds, and only then is the exception of the
lowest failed block raised. Blocks are claimed in order, so that block
is the lowest failing one whatever the timing, and a caller never
regains control while a worker still writes its state.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence


def affinity_cpus() -> int:
    """CPUs in this process's affinity mask (all CPUs where the
    platform has no mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _host_pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide block pool, with at least ``threads`` threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < threads:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(
                threads, thread_name_prefix="host-block"
            ))
        return _pool[1]


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def even_blocks(n: int, block_rows: int) -> int:
    """Blocks of at most ``block_rows`` rows that split ``n`` rows
    evenly (:func:`block_bounds`); 0 for no rows."""
    return -(-n // max(1, block_rows))


def block_bounds(blk: int, n_blocks: int, n: int) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of block ``blk`` of an even ``n_blocks``-way
    split: block sizes differ by at most one row, so no block is a
    sliver small enough for BLAS to take its small-matrix path, which
    rounds differently from the kernel a full block's GEMM runs."""
    return blk * n // n_blocks, (blk + 1) * n // n_blocks


def run_blocks(
    n_blocks: int,
    run: Callable[[int, object], None],
    bufs: Sequence,
) -> None:
    """Call ``run(blk, buf)`` for every block on ``len(bufs)`` threads:
    the calling thread and ``len(bufs) - 1`` pool threads, each with
    its own ``buf``, pulling the next unclaimed block until none is
    left. One buffer runs every block on the calling thread and
    touches no pool (module docstring for the failure rule)."""
    if len(bufs) == 1:
        for blk in range(n_blocks):
            run(blk, bufs[0])
        return
    claim = threading.Lock()
    blocks = iter(range(n_blocks))
    errors: dict[int, BaseException] = {}

    def work(buf):
        while not errors:
            with claim:
                blk = next(blocks, None)
            if blk is None:
                return
            try:
                run(blk, buf)
            except BaseException as exc:  # re-raised after the join
                errors[blk] = exc

    pool = _host_pool(len(bufs) - 1)
    futures = [pool.submit(work, buf) for buf in bufs[1:]]
    try:
        work(bufs[0])
    finally:
        # Never hand control back while a worker still writes.
        wait(futures)
    if errors:
        raise errors[min(errors)]
    for future in futures:
        future.result()
