"""The partitioned, lazily-updated row cache (Section 6.2.2, Figure 3).

The row cache pins **active rows** -- rows that issued an I/O request
in the refresh iteration -- in memory at row granularity. Design points
reproduced from the paper:

* *Partitioned*: one partition per data partition (generally one per
  thread); each partition admits only rows it owns, into a lock-free
  local structure, so population needs no locking.
* *Lazily updated*: the cache refreshes at iteration ``I_cache``
  (default 5, the paper's setting for all experiments), then the gap
  to the next refresh doubles -- 5, 10, 20, 40... Row activation
  patterns stabilize as centroids root themselves, so a stale cache
  still hits ("nearly a 100% cache hit rate", Figure 7).
* *Capacity-bounded*: a user-defined byte budget split across
  partitions -- the first ``capacity_rows % n_partitions`` partitions
  hold one extra row, so no capacity is dropped to rounding; within a
  refresh each partition admits its active rows in row order until its
  quota fills.

Refresh is a single vectorized pass (partition ids by ``searchsorted``,
rank-within-partition against the quota vector) rather than a Python
loop over partitions. The refresh also marks the cache *populated*,
which the async I/O pipeline uses as its prefetch gate: once an active
set is known, the next iterations' fetches are predictable enough to
issue ahead of the compute front.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IoSubsystemError
from repro.mem import MemoryManager, current_manager


class RowCache:
    """Partitioned lazily-updated row cache."""

    def __init__(
        self,
        capacity_bytes: int,
        row_bytes: int,
        n_rows: int,
        *,
        n_partitions: int = 1,
        update_interval: int = 5,
        mem: MemoryManager | None = None,
    ) -> None:
        if row_bytes <= 0:
            raise IoSubsystemError(f"row_bytes must be > 0, got {row_bytes}")
        if n_rows <= 0:
            raise IoSubsystemError(f"n_rows must be > 0, got {n_rows}")
        if n_partitions <= 0:
            raise IoSubsystemError("n_partitions must be > 0")
        if update_interval <= 0:
            raise IoSubsystemError("update_interval must be > 0")
        self.capacity_rows = max(0, capacity_bytes) // row_bytes
        self.row_bytes = row_bytes
        self.n_rows = n_rows
        self.n_partitions = n_partitions
        self.update_interval = update_interval
        self.mem = mem if mem is not None else current_manager()
        self._cached = self.mem.alloc(
            (n_rows,), np.bool_, tag="rowcache/resident", zero=True
        )
        self._next_refresh = update_interval
        self._gap = update_interval
        self.hits = 0
        self.misses = 0
        self.refreshes = 0
        self.populated = False  # has an active set ever been admitted?
        # Partition boundaries (FlashGraph partitions the matrix evenly).
        self._bounds = np.linspace(
            0, n_rows, n_partitions + 1, dtype=np.int64
        )

    @property
    def cached_rows(self) -> int:
        return int(self._cached.sum())

    @property
    def cached_bytes(self) -> int:
        return self.cached_rows * self.row_bytes

    def partition_quotas(self) -> np.ndarray:
        """Per-partition admission quota; the ``capacity % partitions``
        remainder goes to the first partitions, one row each."""
        base, rem = divmod(self.capacity_rows, self.n_partitions)
        quotas = np.full(self.n_partitions, base, dtype=np.int64)
        quotas[:rem] += 1
        return quotas

    def partition_occupancy(self) -> np.ndarray:
        """Rows currently cached per partition (Figure 7-style skew)."""
        csum = np.concatenate(
            ([0], np.cumsum(self._cached, dtype=np.int64))
        )
        return csum[self._bounds[1:]] - csum[self._bounds[:-1]]

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Hit mask for the requested rows; updates hit/miss tallies."""
        rows = np.asarray(rows, dtype=np.int64)
        mask = self._cached[rows]
        hits = int(np.count_nonzero(mask))
        self.hits += hits
        self.misses += int(rows.size) - hits
        return mask

    def should_refresh(self, iteration: int) -> bool:
        """Is ``iteration`` a scheduled (exponentially spaced) refresh?"""
        return iteration == self._next_refresh

    def refresh(self, iteration: int, active_rows: np.ndarray) -> int:
        """Flush and repopulate from this iteration's active rows.

        Each partition admits its own active rows, in row order, until
        its quota is exhausted. Returns rows admitted. One vectorized
        pass: partition ids via ``searchsorted`` on the bounds, then a
        rank-within-partition comparison against the quota vector.
        """
        if not self.should_refresh(iteration):
            raise IoSubsystemError(
                f"refresh called at iteration {iteration}, scheduled at "
                f"{self._next_refresh}"
            )
        self._cached[:] = False
        active_rows = np.asarray(active_rows, dtype=np.int64)
        admitted = 0
        if active_rows.size:
            quotas = self.partition_quotas()
            part = (
                np.searchsorted(self._bounds, active_rows, side="right") - 1
            )
            # Stable sort groups by partition while keeping each
            # partition's rows in their original (row) order.
            order = np.argsort(part, kind="stable")
            sorted_part = part[order]
            counts = np.bincount(sorted_part, minlength=self.n_partitions)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            rank = np.arange(active_rows.size) - starts[sorted_part]
            take = active_rows[order[rank < quotas[sorted_part]]]
            self._cached[take] = True
            admitted = int(take.size)
        self.refreshes += 1
        self.populated = True
        self._gap *= 2
        self._next_refresh = iteration + self._gap
        return admitted

    def fast_forward(self, iteration: int) -> None:
        """Advance the refresh schedule past ``iteration`` without
        populating (used when resuming from a checkpoint: the cache
        restarts cold and re-engages at the next scheduled refresh)."""
        while self._next_refresh <= iteration:
            self._next_refresh += self._gap * 2
            self._gap *= 2

    def evict(self, rows: np.ndarray) -> int:
        """Quarantine: drop ``rows`` without touching hit/miss tallies
        or the refresh schedule.

        Used by the integrity layer when a cached row's DRAM copy fails
        its checksum -- the poisoned line leaves the cache so the row
        is re-fetched through the clean SSD path. Returns how many of
        the requested rows were actually cached.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        was = int(self._cached[rows].sum())
        self._cached[rows] = False
        return was

    def clear(self) -> None:
        """Drop contents and reset the refresh schedule."""
        self._cached[:] = False
        self._gap = self.update_interval
        self._next_refresh = self.update_interval
        self.populated = False

    def release(self) -> None:
        """Return the residency bitmap to the owning manager. The cache
        is unusable afterwards."""
        if self._cached is not None:
            self.mem.free(self._cached)
            self._cached = None
