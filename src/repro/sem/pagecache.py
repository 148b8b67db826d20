"""SAFS page cache: LRU over filesystem pages.

SAFS "creates and manages a page cache that pins frequently touched
pages in memory" (Section 2). It is consulted *after* the row cache and
*before* the SSD array. Capacity is in bytes, rounded down to pages.

The cache is a **page-indexed LRU with lazy deletion**; a batch of
``m`` pages costs O(m) amortised, whatever the capacity. The **page
table** ``_table[page]`` holds the page's last stamp from one monotonic
clock, or -1 if it is not resident: a batch probe is one gather, and a
restamp is one scatter whose last-wins order gives a page named twice
the recency of its last occurrence. The **stamp log** appends
``(page, stamp)`` pairs in stamp order between a head and a tail; an
entry is live iff the table still holds its stamp, so restamping or
discarding a page leaves its old entry stale. Eviction takes the first
live entries from the head (the lowest stamps) and advances the head.
When the tail hits the end of the buffer the live entries move to the
front, in a buffer kept at 1.5-2x what is needed: O(1) per stamp.

Tallies, contents and eviction order match the OrderedDict LRU
(``LegacyPageCache`` in ``tests/oracles.py``) element-for-element. The table
(8 B per file page: 1/512 of the data at 4 KB pages) and the log come
from a :class:`~repro.mem.MemoryManager`; steady state allocates nothing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IoSubsystemError
from repro.mem import MemoryManager, current_manager

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_LOG_MIN = 1024  # log entries: one 16 KB block serves a 512-page cache


def _page_ids(pages) -> np.ndarray:
    """``pages`` as an int64 vector; a non-integer or negative id raises."""
    pages = np.asarray(pages)
    if pages.size and pages.dtype.kind not in "iu":
        bad = pages.flat[0]
        raise IoSubsystemError(f"page id {bad!r} is not an integer")
    pages = pages.astype(np.int64, copy=False)
    if pages.size and pages.min() < 0:
        raise IoSubsystemError(f"page id {int(pages.min())} is negative")
    return pages


class PageCache:
    """Batch LRU page cache keyed by page index."""

    def __init__(
        self,
        capacity_bytes: int,
        page_bytes: int,
        *,
        mem: MemoryManager | None = None,
    ) -> None:
        if page_bytes <= 0:
            raise IoSubsystemError(f"page_bytes must be > 0, got {page_bytes}")
        if capacity_bytes < 0:
            raise IoSubsystemError("capacity_bytes must be >= 0")
        self.page_bytes = page_bytes
        self.capacity_pages = capacity_bytes // page_bytes
        self.mem = mem if mem is not None else current_manager()
        self._size = 0  # resident pages == live log entries
        self._table: np.ndarray | None = None  # page -> stamp, or -1
        self._log: np.ndarray | None = None  # rows: pages, stamps
        self._head = self._tail = self._clock = 0
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_bytes

    def _cover(self, top: int) -> np.ndarray:
        """The page table, grown geometrically to index pages below
        ``top``."""
        table = self._table
        n = 0 if table is None else table.size
        if top > n:
            grown = self.mem.alloc(max(top, 2 * n), np.int64,
                                   tag="pagecache/table")
            grown[n:] = -1
            if table is not None:
                grown[:n] = table
            self.mem.free(table)
            self._table = table = grown
        return table

    def _append(self, pages: np.ndarray, stamps: np.ndarray) -> None:
        """Log ``(pages, stamps)`` at the tail, compacting if full."""
        m = pages.size
        log = self._log
        if log is None or self._tail + m > log.shape[1]:
            live_p, live_s = self._live_entries()
            need = live_p.size + m
            if log is None or 2 * log.shape[1] < 3 * need:
                self.mem.free(log)
                size = max(2 * need, _LOG_MIN)
                log = self._log = self.mem.alloc(
                    (2, size), np.int64, tag="pagecache/log")
            log[0, : live_p.size] = live_p
            log[1, : live_p.size] = live_s
            self._head, self._tail = 0, live_p.size
        t = self._tail
        log[0, t : t + m] = pages
        log[1, t : t + m] = stamps
        self._tail = t + m

    def _live_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(pages, stamps) of the live log entries, oldest first."""
        if self._log is None:
            return _EMPTY_I64, _EMPTY_I64
        pages, stamps = self._log[:, self._head : self._tail]
        live = self._table[pages] == stamps
        return pages[live], stamps[live]

    def _evict(self, excess: int) -> None:
        """Drop the ``excess`` least recent pages: the first live log
        entries, found in a window from the head that doubles."""
        table, log = self._table, self._log
        head, tail = self._head, self._tail
        window = 2 * excess + 32
        while True:
            end = min(head + window, tail)
            pages = log[0, head:end]
            live = (table[pages] == log[1, head:end]).nonzero()[0]
            if live.size >= excess or end == tail:
                break
            window *= 2
        table[pages[live[:excess]]] = -1
        # Skip past the victims and any stale entries right behind them.
        self._head = head + (
            int(live[excess]) if live.size > excess else end - head
        )
        self._size -= excess

    def lookup_batch(self, pages: np.ndarray) -> np.ndarray:
        """Probe many pages at once; hits refresh recency in probe order.

        Returns the boolean hit mask. Equivalent to calling
        ``lookup`` element-by-element: each hit is restamped at its
        position in the argument, so a page probed twice keeps the
        recency of its *last* probe.
        """
        pages = _page_ids(pages)
        top = int(pages.max()) + 1 if pages.size else 0
        return self._probe(pages, top)[0]

    def _probe(
        self, pages: np.ndarray, top: int
    ) -> tuple[np.ndarray, int]:
        """:meth:`lookup_batch` on valid int64 ids below ``top``; returns
        the hit mask and the hit count. SAFS calls it directly with its
        sorted, distinct pages, which need no re-validation."""
        m = int(pages.size)
        if m == 0 or self.capacity_pages == 0:
            self.misses += m
            return np.zeros(m, dtype=bool), 0
        table = self._cover(top)
        hit = table[pages] >= 0
        n_hits = int(np.count_nonzero(hit))
        self.hits += n_hits
        self.misses += m - n_hits
        if n_hits:
            hit_pages = pages[hit]
            stamps = np.arange(self._clock, self._clock + n_hits)
            # Last-wins: a duplicate probe keeps its last stamp; the
            # earlier entry logged for it is stale from the start.
            table[hit_pages] = stamps
            self._append(hit_pages, stamps)
            self._clock += n_hits
        return hit, n_hits

    def admit_batch(self, pages: np.ndarray) -> None:
        """Insert pages read from SSD, evicting LRU pages as needed.

        Equivalent to calling ``admit`` element-by-element: every page
        is stamped at its last position in the argument (present pages
        are merely restamped), then the lowest-stamped overflow is
        evicted -- the survivors are the ``capacity`` highest stamps,
        as in the sequential loop.
        """
        pages = _page_ids(pages)
        m = int(pages.size)
        if self.capacity_pages == 0 or m == 0:
            self._clock += m
            return
        table = self._cover(int(pages.max()) + 1)
        was = table[pages]
        stamps = np.arange(self._clock, self._clock + m)
        self._clock += m
        table[pages] = stamps
        # An occurrence wins where the table kept its stamp: the last
        # occurrence of each distinct page.
        win = table[pages] == stamps
        self._size += int(np.count_nonzero(win & (was < 0)))
        self._append(pages[win], stamps[win])
        self._trim()

    def _admit_missed(self, pages: np.ndarray) -> None:
        """:meth:`admit_batch` for distinct pages that :meth:`_probe`
        just missed (so the table covers them and none is resident):
        each is new and stamped once, with no dedupe."""
        m = int(pages.size)
        if self.capacity_pages == 0 or m == 0:
            self._clock += m
            return
        stamps = np.arange(self._clock, self._clock + m)
        self._clock += m
        self._table[pages] = stamps
        self._size += m
        self._append(pages, stamps)
        self._trim()

    def _trim(self) -> None:
        """Evict whatever an admission pushed past capacity."""
        excess = self._size - self.capacity_pages
        if excess > 0:
            self._evict(excess)

    def lookup(self, page: int) -> bool:
        """Probe one page; a hit refreshes its recency."""
        return bool(self.lookup_batch(np.array([page]))[0])

    def admit(self, page: int) -> None:
        """Insert a page read from SSD, evicting LRU pages as needed."""
        self.admit_batch(np.array([page]))

    def clear(self) -> None:
        """Drop everything (the benches do this between runs, matching
        the paper's "we drop all caches between runs"). The backing
        blocks stay pooled for the next run."""
        if self._table is not None:
            self._table.fill(-1)
        self._size = self._head = self._tail = 0

    def release(self) -> None:
        """Return the table and the log to the owning manager."""
        self.mem.free(self._table)
        self.mem.free(self._log)
        self._table = self._log = None
        self._size = self._head = self._tail = 0

    def discard_batch(self, pages: np.ndarray) -> int:
        """Quarantine: evict ``pages`` without touching hit/miss tallies.

        Used by the integrity layer when a resident page fails its
        checksum, so the next access re-reads a clean copy from SSD.
        Returns how many of the requested pages were resident.
        """
        pages = _page_ids(pages)
        if pages.size == 0 or self._size == 0:
            return 0
        pages = np.unique(pages[pages < self._table.size])
        resident = pages[self._table[pages] >= 0]
        self._table[resident] = -1
        self._size -= int(resident.size)
        return int(resident.size)

    def contains(self, page: int) -> bool:
        """Non-mutating membership probe (for tests)."""
        t = self._table
        return t is not None and 0 <= page < t.size and bool(t[page] >= 0)

    def pages_lru_order(self) -> list[int]:
        """Resident pages, least-recently-used first (for conformance)."""
        return self._live_entries()[0].tolist()
