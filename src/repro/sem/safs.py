"""SAFS: the userspace filesystem between knors and the SSD array.

Responsibilities modeled (Section 2 and 6.2.1):

* map row-data byte ranges onto filesystem pages (minimum read unit);
* consult the page cache;
* **merge** requests for adjacent pages into larger SSD reads,
  amortizing access cost;
* charge the SSD array for the merged reads -- synchronously, or
  through an async request queue (:class:`~repro.simhw.ssd.AsyncIoQueue`)
  that amortizes per-request cost across the array's channels.

The req-vs-read gap of Figure 6 falls out of the geometry: MTI prunes
rows "in a near-random fashion", so a few requested rows can dirty many
pages, and each page read hauls in unrequested neighbour rows.

The whole fetch path is vectorized: page resolution is chunked range
expansion over int64 arrays, cache probes and admissions are single
batch calls into the array-based LRU, and request merging is one
``diff`` over the (already sorted) miss vector. Counters are
bit-identical to the pre-vectorization path frozen in
``LegacySafs`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import CorruptionError, IoSubsystemError, RetryExhaustedError
from repro.resilience.integrity import PageIntegrity
from repro.sem.pagecache import PageCache
from repro.simhw.ssd import AsyncIoQueue, SsdArray, SsdReadResult

#: Ceiling on the size (cells) of one ``pages_of_rows`` expansion
#: temporary. When rows span many pages (row_bytes >= page_bytes) the
#: naive rows x span matrix is O(rows x span) = O(total data) -- far
#: larger than the O(distinct pages) output -- so the expansion walks
#: the rows in chunks of at most this many cells.
_EXPAND_CELLS = 1 << 20


def _sorted_unique(pages: np.ndarray) -> np.ndarray:
    """``np.unique(pages)``, without a sort when ``pages`` is
    non-decreasing.

    Rows are disjoint byte ranges, so sorted rows give non-decreasing
    page ids (a row's first page is at least the previous row's last
    one) and the distinct pages are the entries that differ from their
    predecessor: two compares of the array against itself shifted by
    one. Unsorted input falls back to ``np.unique``'s sort. Comparing
    the shifted views directly, not through ``np.diff``, keeps a serve
    batch's few pages about as cheap as ``np.unique``.
    """
    if pages.size < 2:
        return pages
    head, tail = pages[:-1], pages[1:]
    if (tail < head).any():
        return np.unique(pages)
    keep = np.empty(pages.size, dtype=bool)
    keep[0] = True
    np.not_equal(tail, head, out=keep[1:])
    return pages[keep]


@dataclass
class IoBatch:
    """Exact outcome of one iteration's row-data fetch.

    ``service_async_ns`` is the batch's service time through the async
    request queue (equal to ``service_ns`` when no queue is attached);
    fault-recovery delay is folded into both, computed once from the
    sync service time so fault accounting is mode-independent.
    """

    rows_requested: int
    bytes_requested: int  # what the algorithm asked for (row bytes)
    pages_needed: int  # distinct pages covering the rows
    page_cache_hits: int
    pages_from_ssd: int
    merged_requests: int  # SSD requests after merging adjacency runs
    bytes_read: int  # pages_from_ssd * page_bytes
    service_ns: float
    io_retries: int = 0  # injected-fault re-reads this batch paid for
    fault_delay_ns: float = 0.0  # fault time folded into service_ns
    service_async_ns: float = 0.0  # async-queue service incl. fault time


class Safs:
    """Row-request front end over (page cache + SSD array).

    When a :class:`~repro.faults.FaultPlan` is attached, each SSD
    batch may suffer an injected read error (answered by the retry
    policy's backoff + re-read loop, all charged simulated time) or a
    slow-page latency spike; outcomes are reported through the
    observer's ``on_fault``/``on_retry``/``on_recovery`` hooks.
    """

    def __init__(
        self,
        ssd: SsdArray,
        *,
        page_cache_bytes: int,
        data_offset: int = 0,
        faults: Any = None,
        retry_policy: Any = None,
        io_queue: AsyncIoQueue | None = None,
        mem: Any = None,
    ) -> None:
        self.ssd = ssd
        self.page_bytes = ssd.page_bytes
        self.page_cache = PageCache(
            page_cache_bytes, self.page_bytes, mem=mem
        )
        self.data_offset = data_offset
        self.faults = faults
        self.io_queue = io_queue
        self.integrity = PageIntegrity()
        if retry_policy is None and faults is not None:
            from repro.faults import DEFAULT_RETRY_POLICY

            retry_policy = DEFAULT_RETRY_POLICY
        self.retry_policy = retry_policy

    def pages_of_rows(
        self, rows: np.ndarray, row_bytes: int
    ) -> np.ndarray:
        """Distinct page indices covering the given rows, sorted.

        Rows are contiguous on disk (row-major layout), so row ``i``
        spans bytes ``[i*row_bytes, (i+1)*row_bytes)`` after the
        header offset. When ``row_bytes`` divides both the page size
        and the offset (128 B and 256 B rows on 4 KB pages), no row
        can span a page and a row's page is one integer division of
        its id. Other single-page rows (row_bytes << page_bytes)
        reduce to one dedupe of the first pages; rows that span pages
        expand first..last ranges in bounded chunks so the temporary
        never exceeds ``_EXPAND_CELLS`` cells even when row_bytes >=
        page_bytes. Sorted rows (what every caller passes) yield
        non-decreasing pages, deduped without a sort (see
        :func:`_sorted_unique`).
        """
        if row_bytes <= 0:
            raise IoSubsystemError(f"row_bytes must be > 0, got {row_bytes}")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        if self.page_bytes % row_bytes == 0 and (
            self.data_offset % row_bytes == 0
        ):
            # Page p holds rows [p*r, (p+1)*r) of the file's row grid,
            # r = page_bytes / row_bytes, which starts offset/row_bytes
            # rows before row 0.
            lead = self.data_offset // row_bytes
            if lead:
                rows = rows + lead
            return _sorted_unique(rows // (self.page_bytes // row_bytes))
        starts = self.data_offset + rows * row_bytes
        ends = starts + row_bytes - 1
        first = starts // self.page_bytes
        last = ends // self.page_bytes
        max_span = int((last - first).max()) + 1
        if max_span == 1:
            return _sorted_unique(first)
        chunk_rows = max(1, _EXPAND_CELLS // max_span)
        span_cols = np.arange(max_span, dtype=np.int64)
        parts = []
        for lo in range(0, rows.size, chunk_rows):
            f = first[lo : lo + chunk_rows]
            ls = last[lo : lo + chunk_rows]
            pages = f[:, None] + span_cols[None, :]
            mask = pages <= ls[:, None]
            parts.append(_sorted_unique(pages[mask]))
        if len(parts) == 1:
            return parts[0]
        return _sorted_unique(np.concatenate(parts))

    @staticmethod
    def merge_requests(pages: np.ndarray) -> int:
        """Number of SSD requests after merging adjacent-page runs.

        SAFS merges I/O "when requests are made for data located near
        one another on disk"; a run of consecutive pages becomes one
        request. ``pages`` must be sorted ascending -- every caller
        passes ``pages_of_rows`` output (sorted and distinct) or its
        cache-miss subset, which preserves order, so no re-sort.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size < 2:
            return int(pages.size)
        return int(np.count_nonzero(pages[1:] - pages[:-1] > 1)) + 1

    def fetch_rows(
        self,
        rows: np.ndarray,
        row_bytes: int,
        *,
        iteration: int = 0,
        observer: Any = None,
    ) -> IoBatch:
        """Fetch row data for ``rows``: page cache first, SSD for misses.

        Returns the exact I/O accounting; the caller holds the actual
        data (from the memmapped file), so no bytes move through here.
        ``iteration``/``observer`` feed the fault plane when a plan is
        attached (a batch that reads zero pages cannot fault, and an
        empty batch costs nothing).

        The page cache is driven through its private cores: the pages
        built here are already sorted, distinct, non-negative int64
        ids, and the misses are exactly the pages to admit, so neither
        needs the public methods' validation or dedupe.
        """
        rows = np.asarray(rows, dtype=np.int64)
        pages = self.pages_of_rows(rows, row_bytes)
        if pages.size == 0:
            return IoBatch(0, 0, 0, 0, 0, 0, 0, 0.0)
        if pages[0] < 0:  # sorted: the lowest page comes first
            raise IoSubsystemError(f"page id {int(pages[0])} is negative")
        cache = self.page_cache
        hit_mask, hits = cache._probe(pages, int(pages[-1]) + 1)
        miss_pages = pages[~hit_mask] if hits else pages
        n_miss = int(miss_pages.size)
        n_requests = self.merge_requests(miss_pages)
        result = self.ssd.read(n_requests, n_miss)
        if self.io_queue is not None:
            async_clean_ns = self.ssd.read_async(
                n_requests, n_miss, self.io_queue
            ).service_ns
        else:
            async_clean_ns = result.service_ns
        if self.faults is not None:
            if result.pages_read > 0:
                result = self._apply_faults(result, iteration, observer)
            if getattr(self.faults, "corruption_enabled", False):
                result = self._apply_corruption(
                    result, pages, hit_mask, iteration, observer
                )
        cache._admit_missed(miss_pages)
        return IoBatch(
            rows_requested=int(rows.size),
            bytes_requested=int(rows.size) * row_bytes,
            pages_needed=int(pages.size),
            page_cache_hits=hits,
            pages_from_ssd=n_miss,
            merged_requests=n_requests,
            bytes_read=result.bytes_read,
            service_ns=result.service_ns,
            io_retries=result.retries,
            fault_delay_ns=result.fault_delay_ns,
            service_async_ns=async_clean_ns + result.fault_delay_ns,
        )

    def _apply_faults(
        self, result: SsdReadResult, iteration: int, observer: Any
    ) -> SsdReadResult:
        """Resolve one batch's injected fault, charging simulated time."""
        kind = self.faults.ssd_fault(iteration)
        if kind is None:
            return result
        if observer is None:
            from repro.runtime.observer import RunObserver

            observer = RunObserver()
        if kind == "slow":
            extra = result.service_ns * (
                self.faults.spec.ssd_slow_factor - 1.0
            )
            observer.on_fault(
                iteration, "ssd", "slow",
                {"factor": self.faults.spec.ssd_slow_factor},
            )
            observer.on_recovery(
                iteration, "ssd", "absorbed", {"extra_ns": extra}
            )
            return result.delayed(extra, 0)
        # Read error: backoff + full re-read per attempt, until a
        # retry succeeds or the policy budget runs out.
        policy = self.retry_policy
        observer.on_fault(
            iteration, "ssd", "read_error",
            {"requests": result.n_requests, "pages": result.pages_read},
        )
        delay = 0.0
        attempt = 0
        while True:
            attempt += 1
            if attempt > policy.max_retries:
                raise RetryExhaustedError(
                    f"SSD batch failed {policy.max_retries} retries "
                    f"at iteration {iteration}"
                )
            backoff = policy.backoff(attempt)
            delay += backoff + result.service_ns
            observer.on_retry(iteration, "ssd", attempt, backoff)
            if not self.faults.ssd_retry_fails(iteration):
                break
            observer.on_fault(
                iteration, "ssd", "read_error", {"attempt": attempt}
            )
        observer.on_recovery(
            iteration, "ssd", "retried", {"attempts": attempt}
        )
        return result.delayed(delay, attempt)

    def _apply_corruption(
        self,
        result: SsdReadResult,
        pages: np.ndarray,
        hit_mask: np.ndarray,
        iteration: int,
        observer: Any,
    ) -> SsdReadResult:
        """Detect and repair an injected page corruption.

        One deterministic victim page in the batch arrives with a
        flipped byte, which the modelled CRC32 check
        (:class:`~repro.resilience.PageIntegrity`) always detects. The
        poisoned copy is quarantined -- discarded from the page cache
        if resident, withheld from admission otherwise -- and repaired
        by re-reading the page from a clean device, charging backoff
        plus one-page service per attempt. A repair that keeps failing
        past the retry budget raises
        :class:`~repro.errors.CorruptionError`: the run aborts rather
        than clustering on bad bytes.
        """
        if not self.faults.page_corruption(iteration):
            return result
        if observer is None:
            from repro.runtime.observer import RunObserver

            observer = RunObserver()
        policy = self.retry_policy
        victim_idx = int(iteration % pages.size)
        victim = int(pages[victim_idx])
        resident = bool(hit_mask[victim_idx])
        reread_ns = self.ssd.read(1, 1).service_ns
        delay = 0.0
        bad = 0
        while True:
            bad += 1
            self.integrity.verify_pages(pages, corrupt_page=victim)
            observer.on_fault(
                iteration, "corruption", "page",
                {"page": victim, "attempt": bad, "resident": resident},
            )
            observer.on_corruption(
                iteration, "ssd-page", {"page": victim, "attempt": bad}
            )
            if bad == 1:
                discarded = 0
                if resident:
                    discarded = self.page_cache.discard_batch(
                        np.array([victim], dtype=np.int64)
                    )
                observer.on_quarantine(
                    iteration, "ssd-page", f"page-{victim}",
                    {
                        "discarded": discarded,
                        "action": (
                            "evicted" if resident else "admission-withheld"
                        ),
                    },
                )
            if bad > policy.max_retries:
                raise CorruptionError(
                    f"page {victim} still corrupt after "
                    f"{policy.max_retries} re-reads at iteration "
                    f"{iteration}"
                )
            backoff = policy.backoff(bad)
            delay += backoff + reread_ns
            observer.on_retry(iteration, "corruption", bad, backoff)
            if not self.faults.corruption_repair_fails(iteration, "page"):
                break
        observer.on_recovery(
            iteration, "corruption", "reread",
            {"page": victim, "attempts": bad},
        )
        return result.delayed(delay, bad)
