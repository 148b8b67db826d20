"""The modified-FlashGraph row engine (Section 6.1).

FlashGraph's ``page_row`` modification makes the engine matrix-aware: a
row's disk location is *computed* from its row-ID (no in-memory index),
so the only O(n) state is what the algorithm itself keeps. Per
iteration the engine:

1. receives the sorted ids of the rows whose data the algorithm needs
   (everything except MTI clause-1 skips);
2. serves what it can from the row cache (no I/O request at all);
3. sends the misses to SAFS, which resolves pages against the page
   cache, merges adjacent reads, and charges the SSD array;
4. at scheduled refresh iterations, repopulates the row cache from the
   rows that just performed I/O (the paper's definition of *active*).

I/O is asynchronous and overlapped with computation: an iteration's
wall time is ``max(compute_span, io_service)`` plus the barrier and
reduction (the paper's knors turns compute-bound exactly when the
compute term wins -- Section 8.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import CorruptionError, IoSubsystemError
from repro.sem.rowcache import RowCache
from repro.sem.safs import Safs
from repro.simhw.ssd import AsyncIoQueue, SsdArray


@dataclass
class IoIterationStats:
    """Exact I/O accounting for one knors iteration."""

    iteration: int
    rows_needed: int
    row_cache_hits: int
    rows_requested: int  # misses: rows that issued an I/O request
    bytes_requested: int
    pages_needed: int
    page_cache_hits: int
    pages_from_ssd: int
    merged_requests: int
    bytes_read: int
    service_ns: float
    rc_refreshed: bool
    rc_admitted: int
    io_retries: int = 0  # injected-fault re-reads (see repro.faults)
    fault_delay_ns: float = 0.0  # fault time folded into service_ns
    service_async_ns: float = 0.0  # service through the async queue
    prefetchable: bool = False  # active set known before this fetch?


class RowEngine:
    """One dataset's semi-external I/O pipeline."""

    def __init__(
        self,
        safs: Safs,
        row_bytes: int,
        n_rows: int,
        *,
        row_cache: RowCache | None = None,
    ) -> None:
        self.safs = safs
        self.row_bytes = row_bytes
        self.n_rows = n_rows
        self.row_cache = row_cache

    def run_iteration(
        self, iteration: int, rows: np.ndarray, observer=None
    ) -> IoIterationStats:
        """Plan and account one iteration's row fetches.

        ``rows`` holds the sorted, unique ids of the rows whose data the
        numerics need (MTI clause 1 cleared means no I/O request -- "this
        is extremely significant because no I/O request is made for
        data"). Callers holding a boolean mask pass
        ``np.flatnonzero(mask)``. ``observer`` receives fault-plane
        events when the SAFS layer carries a fault plan.
        """
        needed = self._check_rows(rows)
        rc = self.row_cache
        # The prefetcher can only issue ahead of the compute front once
        # a refresh has revealed an active set -- judged on the state
        # *entering* this iteration, before any refresh below.
        prefetchable = rc is not None and rc.populated
        if rc is not None and needed.size:
            # The lookup tallies its hits; read the count off the tally
            # rather than summing the mask again.
            hits_before = rc.hits
            hit_mask = rc.lookup(needed)
            rc_hits = rc.hits - hits_before
            misses = needed[~hit_mask] if rc_hits else needed
        else:
            hit_mask = np.zeros(0, dtype=bool)
            misses = needed
            rc_hits = 0

        if (
            rc is not None
            and rc_hits > 0
            and self.safs.faults is not None
            and getattr(self.safs.faults, "corruption_enabled", False)
            and self.safs.faults.cache_corruption(iteration)
        ):
            misses, rc_hits = self._quarantine_cache_line(
                iteration, needed[hit_mask], misses, rc_hits, observer
            )

        batch = self.safs.fetch_rows(
            misses, self.row_bytes, iteration=iteration, observer=observer
        )

        refreshed = False
        admitted = 0
        if rc is not None and rc.should_refresh(iteration):
            # Active rows = rows that performed an I/O request this
            # iteration (the misses), per Section 6.2.2.
            admitted = rc.refresh(iteration, misses)
            refreshed = True

        return IoIterationStats(
            iteration=iteration,
            rows_needed=int(needed.size),
            row_cache_hits=rc_hits,
            rows_requested=int(misses.size),
            bytes_requested=batch.bytes_requested,
            pages_needed=batch.pages_needed,
            page_cache_hits=batch.page_cache_hits,
            pages_from_ssd=batch.pages_from_ssd,
            merged_requests=batch.merged_requests,
            bytes_read=batch.bytes_read,
            service_ns=batch.service_ns,
            rc_refreshed=refreshed,
            rc_admitted=admitted,
            io_retries=batch.io_retries,
            fault_delay_ns=batch.fault_delay_ns,
            service_async_ns=batch.service_async_ns,
            prefetchable=prefetchable,
        )

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as an ``intp`` array, or a typed error naming it."""
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise IoSubsystemError(
                "run_iteration rows must be a 1-D array of integer row "
                f"ids, got dtype {rows.dtype} and shape {rows.shape}"
            )
        rows = rows.astype(np.intp, copy=False)
        if rows.size > 1 and not (rows[1:] > rows[:-1]).all():
            raise IoSubsystemError(
                "run_iteration rows must be sorted and unique"
            )
        if rows.size and (rows[0] < 0 or rows[-1] >= self.n_rows):
            raise IoSubsystemError(
                f"run_iteration rows must lie in [0, {self.n_rows}), "
                f"got ids from {rows[0]} to {rows[-1]}"
            )
        return rows

    def _quarantine_cache_line(
        self,
        iteration: int,
        hit_rows: np.ndarray,
        misses: np.ndarray,
        rc_hits: int,
        observer,
    ) -> tuple[np.ndarray, int]:
        """Detect an injected DRAM cache-line corruption and repair it.

        One deterministic cached row arrives with a flipped byte; its
        CRC32 always catches the flip. The poisoned line is evicted
        from the row cache and the row rejoins this iteration's miss
        list, so its repair -- a re-read through the clean SSD path --
        is charged as ordinary I/O in the same fetch.
        """
        rc = self.row_cache
        victim = int(hit_rows[iteration % hit_rows.size])
        clean = self.safs.integrity.verify_row(victim, corrupted=True)
        if clean:
            raise CorruptionError(
                f"row {victim} cache corruption escaped CRC32 "
                f"verification at iteration {iteration}"
            )
        if observer is None:
            from repro.runtime.observer import RunObserver

            observer = RunObserver()
        observer.on_fault(
            iteration, "corruption", "cache", {"row": victim}
        )
        observer.on_corruption(
            iteration, "cache-line", {"row": victim}
        )
        evicted = rc.evict(np.array([victim], dtype=np.int64))
        observer.on_quarantine(
            iteration, "cache-line", f"row-{victim}", {"evicted": evicted}
        )
        # Reroute the row through SAFS with this iteration's misses
        # (``misses`` is sorted ascending; keep it that way). The hit
        # tallied by the lookup above is undone: the line was poison,
        # the row really came from SSD.
        pos = int(np.searchsorted(misses, victim))
        misses = np.insert(misses, pos, victim)
        rc.hits -= 1
        rc.misses += 1
        observer.on_recovery(
            iteration, "corruption", "reread", {"row": victim}
        )
        return misses, rc_hits - 1


def build_row_engine(
    ssd: SsdArray,
    n_rows: int,
    d: int,
    n_partitions: int,
    *,
    row_cache_bytes: int | None = None,
    page_cache_bytes: int | None = None,
    cache_update_interval: int = 5,
    io_mode: str = "async",
    io_queue_depth: int = 32,
    io_channels: int | None = None,
    faults: Any = None,
    retry_policy: Any = None,
) -> tuple[RowEngine, int, int]:
    """Assemble one dataset's SEM I/O stack: the SSD request queue
    (async mode only), SAFS with its page cache, the row cache
    partitioned over ``n_partitions`` threads, and the row engine.

    ``None`` budgets take the paper's defaults: the row cache gets 1/32
    of the data size (512 MB on the 16 GB Friendster-32), the page
    cache 1/16 (its 1 GB) but at least 64 pages. A row-cache budget of
    0 disables the row cache. Call it inside the run's ``use_manager``
    block: the caches allocate through :mod:`repro.mem`. Returns the
    engine plus the resolved row- and page-cache budgets, which each
    caller registers in its own Table 1 memory accounting.
    """
    row_bytes = d * 8
    data_bytes = n_rows * row_bytes
    if row_cache_bytes is None:
        row_cache_bytes = data_bytes // 32
    if page_cache_bytes is None:
        page_cache_bytes = max(64 * ssd.page_bytes, data_bytes // 16)
    io_queue = (
        AsyncIoQueue(queue_depth=io_queue_depth, channels=io_channels)
        if io_mode == "async"
        else None
    )
    safs = Safs(
        ssd,
        page_cache_bytes=page_cache_bytes,
        faults=faults,
        retry_policy=retry_policy,
        io_queue=io_queue,
    )
    row_cache = (
        RowCache(
            row_cache_bytes,
            row_bytes,
            n_rows,
            n_partitions=n_partitions,
            update_interval=cache_update_interval,
        )
        if row_cache_bytes > 0
        else None
    )
    engine = RowEngine(safs, row_bytes, n_rows, row_cache=row_cache)
    return engine, row_cache_bytes, page_cache_bytes
