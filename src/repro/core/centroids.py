"""Centroid accumulation: per-thread partials and the funnel merge.

Algorithm 1 gives every thread a private copy of the next iteration's
centroids (running sums + member counts) and merges them with a
"parallel funnelsort-like reduction" after the single global barrier.
:class:`PartialCentroids` is one thread's private structure;
:func:`funnel_merge` is the pairwise reduction tree. The tree is
deterministic (always merge neighbour pairs in index order) so results
are bit-reproducible for a fixed thread count.

Accumulation uses **flat-index bincount**: one ``np.bincount`` over the
flattened ``(row, dim)`` index ``assign * d + dim`` instead of one
strided ``bincount`` per dimension. ``np.bincount`` adds weights
sequentially in input order, and the flat row-major order visits each
``(cluster, dim)`` bucket's contributions in exactly the same row order
as the per-dimension form did -- so the floating-point sums are
bit-identical (asserted by the golden-value suite), while the data is
read once, contiguously, instead of ``d`` strided passes.

A call longer than one block (:data:`~repro.core.distance.BLOCK_BYTES`
of float64 rows, 4096 rows at d=32) is **streamed**, so no call holds
the ``n * d`` index or a float64 copy of a float32 or memmapped ``x``.
The first block is one bincount. Every later block's bincount puts the
running ``k * d`` sums in front of the block's own weights, at indices
``0..k*d-1``, and the block's row ``i`` gathers its indices as row
``assign[i]`` of that ``0..k*d-1`` head. Carrying is exact: bincount
starts each bucket at +0.0 and adds its weights in input order, and
+0.0 + s == s, so each bucket's first addition reproduces the running
sum and the rest continue the single bincount's sequence. (The running
sum is never -0.0: from +0.0, round-to-nearest addition gives -0.0
only from two -0.0 operands.) A streamed call allocates its one block
of index and weights and frees it on return; an :class:`AccumScratch`
serves the one-block calls of the hot incremental updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distance import BLOCK_BYTES
from repro.errors import DatasetError
from repro.mem import MemoryManager, current_manager


class AccumScratch:
    """Growable reusable buffers for flat-index accumulation.

    Building the flat ``assign * d + dim`` index allocates an
    ``(n, d)`` int64 temporary per call; hot loops (MTI's incremental
    update runs every iteration) route through one of these to reuse
    that memory. Results are identical with or without scratch.

    Buffers are owned by a :class:`~repro.mem.MemoryManager` and grown
    through its ``ensure_capacity`` guard, so an arena recycles them
    across scratches and a budgeted manager counts them against its
    cap.
    """

    def __init__(self, *, mem: MemoryManager | None = None) -> None:
        self.mem = mem if mem is not None else current_manager()
        self._base: np.ndarray | None = None
        self._flat: np.ndarray | None = None
        self._dims: np.ndarray | None = None

    def flat_indices(self, assign: np.ndarray, d: int) -> np.ndarray:
        """``assign[i] * d + j`` flattened row-major, without fresh
        allocations once the buffers have grown to size."""
        m = assign.shape[0]
        need = m * d
        if self._dims is None or self._dims.size < d:
            self._dims = self.mem.ensure_capacity(
                self._dims, (d,), np.int64, tag="accum/dims"
            )
            self._dims[:d] = np.arange(d, dtype=np.int64)
        self._base = self.mem.ensure_capacity(
            self._base, (m,), np.int64, tag="accum/base"
        )
        self._flat = self.mem.ensure_capacity(
            self._flat, (need,), np.int64, tag="accum/flat"
        )
        base = self._base[:m]
        np.multiply(assign, d, out=base, dtype=np.int64)
        np.add(
            base[:, None],
            self._dims[:d],
            out=self._flat[:need].reshape(m, d),
        )
        return self._flat[:need]

    def release(self) -> None:
        """Return the index buffers to the owning manager."""
        for arr in (self._base, self._flat, self._dims):
            self.mem.free(arr)
        self._base = None
        self._flat = None
        self._dims = None


def _flat_indices(assign: np.ndarray, d: int) -> np.ndarray:
    """Allocation-per-call fallback for :meth:`AccumScratch.flat_indices`."""
    return (
        assign.astype(np.int64)[:, None]
        * d
        + np.arange(d, dtype=np.int64)
    ).ravel()


def flat_sums(
    x: np.ndarray,
    assign: np.ndarray,
    k: int,
    *,
    scratch: AccumScratch | None = None,
) -> np.ndarray:
    """Per-cluster ``(k, d)`` sums of rows via flat-index bincounts.

    A call of up to one block (``BLOCK_BYTES`` of float64 rows) is one
    bincount, bit-identical to the per-dimension ``bincount`` loop it
    replaced: each ``(cluster, dim)`` bucket receives its contributions
    in the same ascending-row order. A longer call is streamed (module
    docstring): the same result to the last bit, holding one block's
    index and widened rows. ``scratch`` serves the one-block path.
    """
    n, d = x.shape
    kd = k * d
    rows = max(1, BLOCK_BYTES // (8 * max(d, 1)))
    if n <= rows:
        idx = (
            scratch.flat_indices(assign, d)
            if scratch is not None
            else _flat_indices(assign, d)
        )
        return np.bincount(
            idx, weights=x.ravel(), minlength=kd
        ).reshape(k, d)
    if assign.min() < 0 or assign.max() >= k:
        raise DatasetError(f"assignment outside clusters 0..{k - 1}")
    # One block's index and weights, each headed by the k*d carry.
    idx = np.empty(kd + rows * d, dtype=np.int64)
    idx[:kd] = np.arange(kd, dtype=np.int64)
    w = np.empty(kd + rows * d)
    # Row i's index is row assign[i] of the 0..kd-1 head, as a (k, d)
    # table; a gather, since assign was range-checked above.
    table = idx[:kd].reshape(k, d)
    sums = None
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        end = kd + (hi - lo) * d
        np.take(table, assign[lo:hi], axis=0, mode="clip",
                out=idx[kd:end].reshape(hi - lo, d))
        if sums is None:  # the first block: one plain bincount
            sums = np.bincount(
                idx[kd:end], weights=x[lo:hi].ravel(), minlength=kd
            )
            continue
        w[:kd] = sums
        np.copyto(w[kd:end].reshape(hi - lo, d), x[lo:hi])
        sums = np.bincount(idx[:end], weights=w[:end], minlength=kd)
    return sums.reshape(k, d)


@dataclass
class PartialCentroids:
    """One thread's private centroid accumulator (``ptC`` in Alg. 1)."""

    sums: np.ndarray  # (k, d) float64 running totals
    counts: np.ndarray  # (k,) int64 membership counts

    @classmethod
    def zeros(
        cls, k: int, d: int, *, mem: MemoryManager | None = None
    ) -> "PartialCentroids":
        """Fresh zeroed accumulator; with ``mem``, its blocks come from
        (and should be returned to, via :meth:`release`) that manager.
        Without, plain numpy arrays -- callers that let partials escape
        (payloads, results) keep that default."""
        if mem is None:
            return cls(
                sums=np.zeros((k, d), dtype=np.float64),
                counts=np.zeros(k, dtype=np.int64),
            )
        return cls(
            sums=mem.alloc(
                (k, d), np.float64, tag="partials/sums", zero=True
            ),
            counts=mem.alloc(
                (k,), np.int64, tag="partials/counts", zero=True
            ),
        )

    def release(self, mem: MemoryManager) -> None:
        """Return manager-owned blocks after the funnel merge.

        Only valid for partials built with ``zeros(..., mem=...)``
        whose arrays did not escape: :func:`funnel_merge` never aliases
        its inputs into the merged result, so per-thread partials are
        safely releasable right after the merge."""
        mem.free(self.sums)
        mem.free(self.counts)

    def copy(self) -> "PartialCentroids":
        return PartialCentroids(
            sums=self.sums.copy(), counts=self.counts.copy()
        )

    def accumulate(
        self,
        x: np.ndarray,
        assign: np.ndarray,
        *,
        scratch: AccumScratch | None = None,
    ) -> None:
        """Add a block of rows to this thread's partial sums.

        Line 13 of Algorithm 1: ``ptC[tid][c_nearest] += v``, done
        blockwise with bincount for speed.
        """
        add_block(self.sums, self.counts, x, assign, scratch=scratch)

    def merge_from(self, other: "PartialCentroids") -> None:
        """Fold another partial into this one (one funnel step)."""
        if self.sums.shape != other.sums.shape:
            raise DatasetError(
                f"partial shape mismatch: {self.sums.shape} vs "
                f"{other.sums.shape}"
            )
        self.sums += other.sums
        self.counts += other.counts

    def finalize(self, previous: np.ndarray) -> np.ndarray:
        """Means of members; empty clusters keep their previous centroid.

        knor (like most robust implementations) leaves a centroid in
        place when no point chose it, rather than producing NaNs.
        """
        k = self.counts.shape[0]
        out = previous.copy()
        nonzero = self.counts > 0
        out[nonzero] = self.sums[nonzero] / self.counts[nonzero, None]
        if out.shape[0] != k:
            raise DatasetError("previous centroids shape mismatch")
        return out


def add_block(
    sums: np.ndarray,
    counts: np.ndarray,
    x: np.ndarray,
    assign: np.ndarray,
    *,
    scratch: AccumScratch | None = None,
) -> None:
    """Accumulate rows of ``x`` into ``sums``/``counts`` by assignment.

    One flat-index ``bincount`` over the whole block: O(nd) with one
    contiguous pass, deterministic per-bucket summation order.
    """
    k = sums.shape[0]
    if x.shape[0] != assign.shape[0]:
        raise DatasetError("x and assign length mismatch")
    counts += np.bincount(assign, minlength=k).astype(np.int64)
    sums += flat_sums(x, assign, k, scratch=scratch)


def move_rows(
    sums: np.ndarray,
    counts: np.ndarray,
    x: np.ndarray,
    frm: np.ndarray,
    to: np.ndarray,
    *,
    scratch: AccumScratch | None = None,
) -> None:
    """Move rows between clusters in persistent sums/counts.

    The incremental centroid update of MTI and Elkan: each row in ``x``
    leaves cluster ``frm[i]`` and joins ``to[i]``. Previously hand-
    rolled (and triplicated) as per-dimension bincount loops inside
    ``mti_init``/``mti_iteration``/``elkan_iteration``.
    """
    k = sums.shape[0]
    sums -= flat_sums(x, frm, k, scratch=scratch)
    sums += flat_sums(x, to, k, scratch=scratch)
    counts -= np.bincount(frm, minlength=k)
    counts += np.bincount(to, minlength=k)


def cluster_sums(
    x: np.ndarray,
    assign: np.ndarray,
    k: int,
    *,
    scratch: AccumScratch | None = None,
) -> PartialCentroids:
    """Sums and counts over the whole dataset in one shot."""
    partial = PartialCentroids.zeros(k, x.shape[1])
    partial.accumulate(x, assign, scratch=scratch)
    return partial


def funnel_merge(partials: list[PartialCentroids]) -> PartialCentroids:
    """Pairwise reduction tree over per-thread partials.

    ``MERGEPTSTRUCTS`` of Algorithm 1: while more than one structure
    remains, merge them in parallel pairs. The simulated cost of this
    tree is charged by :meth:`repro.simhw.CostModel.reduction_ns`; here
    we perform the arithmetic itself.

    The reduction never mutates its inputs: merge targets are fresh
    accumulators, so callers may keep using (or re-merging) their
    per-thread partials afterwards. The tree shape and per-pair
    summation order match the historical in-place version exactly, so
    the merged values are bit-identical.
    """
    if not partials:
        raise DatasetError("funnel_merge needs at least one partial")
    level = list(partials)
    # Whether level[i] is an accumulator this call owns (safe to mutate)
    # or one of the caller's input partials (must be left intact).
    owned = [False] * len(level)
    while len(level) > 1:
        nxt: list[PartialCentroids] = []
        nxt_owned: list[bool] = []
        for i in range(0, len(level) - 1, 2):
            target = level[i] if owned[i] else level[i].copy()
            target.merge_from(level[i + 1])
            nxt.append(target)
            nxt_owned.append(True)
        if len(level) % 2 == 1:
            nxt.append(level[-1])
            nxt_owned.append(owned[-1])
        level = nxt
        owned = nxt_owned
    return level[0] if owned[0] else level[0].copy()
