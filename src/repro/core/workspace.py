"""Per-iteration kernel workspace: cached norms and reusable buffers.

The distance kernels are called many times per k-means iteration with
the *same* centroid matrix -- once per data block in Phase I, once per
tighten/candidate pass in MTI and Elkan -- yet historically every call
re-derived the centroid norms ``|c|^2`` and allocated a fresh
``(block_rows, k)`` temporary. A :class:`DistanceWorkspace` hoists that
per-iteration-constant work out of the hot loop:

* ``|c|^2`` is computed once per centroid set (:meth:`ensure`);
* the pairwise centroid matrix and the clause-1 thresholds are
  computed at most once per centroid set (:meth:`pairwise`,
  :meth:`half_min`);
* one distance buffer and one k x k scratch are preallocated and
  reused across blocks and iterations (:meth:`dist_buffer`); the host
  threads that run MTI blocks each take a disjoint row range of it;
* an :class:`~repro.core.centroids.AccumScratch` carries the reusable
  flat-index buffers for centroid accumulation.

The workspace changes *when* quantities are computed, never *what* is
computed: every cached value is produced by the exact same kernel
expressions, so results are bit-identical with or without a workspace
(the golden-value suite asserts ``np.array_equal``).

Cache invalidation is by array identity: a new centroid array object
triggers recomputation. The library produces a fresh centroid array
every iteration; callers must not mutate a centroid matrix in place
between kernel calls that share a workspace.

The workspace also caches the squared row norms ``|x|^2`` per data
array (:meth:`x_sq`), so a shard's norms are computed once for the
whole run rather than once per pass: ``mti_iteration`` reads them under
both kernel strategies, and ``mti_init`` fills them during its full
assignment pass. The norms are taken from float64 rows, widened block
by block, so a float32 matrix is never copied whole. The cache is a
host-side ledger entry (``workspace/x_sq``), not part of the simulated
Table 1 layout: the modelled knor holds no norm vector.

The workspace carries the selected **kernel strategy**
(``kernel="blocked" | "gemm"``, see :mod:`repro.core.distance`): under
``"gemm"`` it additionally caches the pre-scaled ``(-2 C)^T`` per
centroid set.

Every buffer is owned by a :class:`~repro.mem.MemoryManager` (the
current manager at construction unless one is passed), so arenas can
reuse the blocks across workspaces and the budgeted manager can cap
and spill them. The ``|x|^2`` cache holds **weak** references to the
data arrays it has seen: an entry dies with its array (freeing the
manager-owned norms) instead of pinning live data the way the old
strong-ref FIFO did.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from repro.core.centroids import AccumScratch
from repro.core.distance import (
    BLOCK_BYTES,
    check_kernel,
    euclidean,
    half_min_inter_centroid,
    row_norms,
)
from repro.errors import DatasetError
from repro.mem import MemoryManager, current_manager

#: Data arrays whose row norms one workspace keeps alive at once. One
#: slot serves the batch drivers (one shard per loop); a few extra
#: keep the serve plane's rotating query batches from thrashing the
#: resident shard's entry.
X_SQ_CACHE_SLOTS = 4


class DistanceWorkspace:
    """Reusable kernel state for one ``(k, d)`` clustering problem."""

    def __init__(
        self,
        k: int,
        d: int,
        *,
        block_rows: int | None = None,
        kernel: str = "blocked",
        mem: MemoryManager | None = None,
    ) -> None:
        if k < 1 or d < 1:
            raise DatasetError(
                f"workspace needs k >= 1 and d >= 1, got k={k}, d={d}"
            )
        self.k = k
        self.d = d
        # Rows per block of the norm cache's own miss pass.
        self.block_rows = (
            max(1, BLOCK_BYTES // (8 * d)) if block_rows is None
            else block_rows
        )
        self.kernel = check_kernel(kernel)
        self.mem = mem if mem is not None else current_manager()
        self.accum = AccumScratch(mem=self.mem)
        self._centroids: np.ndarray | None = None
        self._c_sq = self.mem.alloc(
            (k,), np.float64, tag="workspace/c_sq"
        )
        self._cc = self.mem.alloc(
            (k, k), np.float64, tag="workspace/cc"
        )
        self._cc_scratch = self.mem.alloc(
            (k, k), np.float64, tag="workspace/cc_scratch"
        )
        self._s = self.mem.alloc((k,), np.float64, tag="workspace/s")
        self._have_cc = False
        self._have_s = False
        self._neg2ct: np.ndarray | None = None
        self._neg2ct_base: np.ndarray | None = None
        self._dist_buf: np.ndarray | None = None
        # id(x) -> (weakref(x), |x|^2). The weak reference keeps the id
        # valid while the entry lives *without* pinning the data array:
        # when x dies, the finalizer drops the entry and frees its
        # manager-owned norms (the old strong-ref FIFO pinned every
        # array it had seen until eviction).
        self._x_sq_cache: dict[
            int, tuple[weakref.ref, np.ndarray]
        ] = {}

    # -- centroid-set cache ------------------------------------------

    def ensure(self, centroids: np.ndarray) -> np.ndarray:
        """Bind the workspace to ``centroids``, refreshing caches.

        Returns the float64 view of the centroid matrix. A repeated
        call with the same array object is free; a new object
        recomputes ``|c|^2`` and invalidates the pairwise/threshold
        caches.
        """
        c = np.asarray(centroids, dtype=np.float64)
        if c is self._centroids:
            return c
        if c.shape != (self.k, self.d):
            raise DatasetError(
                f"centroids shape {c.shape} does not match workspace "
                f"({self.k}, {self.d})"
            )
        row_norms(c, out=self._c_sq)
        self._centroids = c
        self._have_cc = False
        self._have_s = False
        if self._neg2ct_base is not None:
            self.mem.free(self._neg2ct_base)
            self._neg2ct_base = None
        self._neg2ct = None
        return c

    def _require_centroids(self) -> np.ndarray:
        if self._centroids is None:
            raise DatasetError(
                "workspace has no centroid set; call ensure() first"
            )
        return self._centroids

    @property
    def c_sq(self) -> np.ndarray:
        """Cached centroid norms ``|c|^2`` for the bound centroid set."""
        self._require_centroids()
        return self._c_sq

    def pairwise(self) -> np.ndarray:
        """Cached centroid-to-centroid distance matrix (O(k^2))."""
        c = self._require_centroids()
        if not self._have_cc:
            euclidean(c, c, c_sq=self._c_sq, out=self._cc)
            self._have_cc = True
        return self._cc

    def half_min(self) -> np.ndarray:
        """Cached clause-1 thresholds ``0.5 * min_{c' != c} d(c, c')``."""
        if not self._have_s:
            self._s = half_min_inter_centroid(
                self.pairwise(), scratch=self._cc_scratch, out=self._s
            )
            self._have_s = True
        return self._s

    @property
    def neg2ct(self) -> np.ndarray:
        """Cached pre-scaled centroid transpose ``(-2 C)^T`` (d, k).

        The gemm strategy's GEMM operand: scaling by -2 is exact in
        IEEE-754 and the ``.T`` view preserves the BLAS memory layout
        of ``c.T``, so ``x @ neg2ct`` is bit-identical to
        ``-2 * (x @ c.T)`` while skipping the separate ``*= -2`` pass
        over the ``(m, k)`` buffer.
        """
        c = self._require_centroids()
        if self._neg2ct is None:
            base = self.mem.alloc(
                (self.k, self.d), np.float64, tag="workspace/neg2ct"
            )
            np.multiply(c, -2.0, out=base)
            self._neg2ct_base = base
            self._neg2ct = base.T
        return self._neg2ct

    # -- per-data-array cache -----------------------------------------

    def _drop_x_sq(self, key: int) -> None:
        hit = self._x_sq_cache.pop(key, None)
        if hit is not None:
            self.mem.free(hit[1])

    def invalidate_x_sq(self) -> None:
        """Drop every cached ``|x|^2`` entry, freeing the norms."""
        for key in list(self._x_sq_cache):
            self._drop_x_sq(key)

    def x_sq(
        self,
        x: np.ndarray,
        *,
        fill: Callable[[np.ndarray], None] | None = None,
    ) -> np.ndarray:
        """Cached squared row norms ``|x|^2``, keyed by array identity.

        A batch driver calls this with the same shard array every
        iteration, so the norms are computed once per run. On a miss
        they are taken block by block from rows widened to float64, or
        by ``fill(norms)`` when given: a caller about to make a full
        pass over ``x`` anyway (``mti_init``) writes them on its way,
        so a memmapped matrix gets no pass of the cache's own. Entries
        hold weak references: a dead data array's entry is reclaimed by
        its finalizer (its id can then be safely reused), and the cache
        is additionally capped at :data:`X_SQ_CACHE_SLOTS` entries,
        evicting oldest-first, so the serve plane's per-batch gather
        arrays can never grow it without bound.
        """
        key = id(x)
        hit = self._x_sq_cache.get(key)
        if hit is not None:
            if hit[0]() is x:
                self.mem.touch(hit[1])
                return hit[1]
            self._drop_x_sq(key)
        norms = self.mem.alloc(
            (x.shape[0],), np.float64, tag="workspace/x_sq"
        )
        if fill is None:
            for start in range(0, x.shape[0], self.block_rows):
                stop = start + self.block_rows
                row_norms(
                    np.asarray(x[start:stop], dtype=np.float64),
                    out=norms[start:stop],
                )
        else:
            try:
                fill(norms)
            except BaseException:
                self.mem.free(norms)
                raise
        if len(self._x_sq_cache) >= X_SQ_CACHE_SLOTS:
            self._drop_x_sq(next(iter(self._x_sq_cache)))
        wself = weakref.ref(self)

        def _finalize(_ref, _key=key, _wself=wself):
            ws = _wself()
            if ws is not None:
                ws._drop_x_sq(_key)

        self._x_sq_cache[key] = (weakref.ref(x, _finalize), norms)
        return norms

    # -- block buffers ------------------------------------------------

    def dist_buffer(self, m: int) -> np.ndarray:
        """A reusable ``(m, k)`` float64 buffer for block distances.

        Grows monotonically to the largest block seen; the returned
        view aliases previous calls' views, so consume each block's
        distances before requesting the next buffer. Call it on the
        thread that owns the workspace: the memory manager is not
        thread-safe.
        """
        buf = self._dist_buf
        if buf is not None and buf.shape[0] >= m:
            # ensure_capacity's reuse branch, without its shape walk.
            self.mem.touch(buf)
            return buf[:m]
        self._dist_buf = self.mem.ensure_capacity(
            buf, (m, self.k), np.float64, tag="workspace/dist_buf",
        )
        return self._dist_buf[:m]

    # -- teardown ------------------------------------------------------

    def release(self) -> None:
        """Return every manager-owned buffer. The workspace is unusable
        afterwards; build a new one to continue."""
        self.invalidate_x_sq()
        for arr in (
            self._c_sq, self._cc, self._cc_scratch, self._s,
            self._neg2ct_base, self._dist_buf,
        ):
            self.mem.free(arr)
        self._neg2ct = None
        self._neg2ct_base = None
        self._dist_buf = None
        self._centroids = None
        self._have_cc = False
        self._have_s = False
        self.accum.release()
