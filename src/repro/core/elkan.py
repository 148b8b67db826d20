"""Full Elkan triangle-inequality k-means (ICML 2003).

The baseline MTI is measured against: Elkan's algorithm keeps, in
addition to the per-point upper bound, a dense **lower-bound matrix**
``lb`` of shape (n, k) -- a lower bound on the distance from every
point to every centroid. The extra bounds prune more distance
computations than MTI, at an O(nk) memory cost that the paper's whole
argument (Table 1, Section 4) is about avoiding: at n = 1B, k = 100
the matrix alone is 800 GB.

The centroid loop is evaluated column-by-column with the upper bound
updating as assignments improve, matching Elkan's sequential
formulation, so pruning counts are faithful rather than a vectorized
over-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.centroids import flat_sums, move_rows
from repro.core.distance import (
    BLOCK_BYTES,
    as_rows,
    euclidean,
    half_min_inter_centroid,
    pairwise_centroid_distances,
    rows_to_centroids,
)
from repro.core.hostpool import block_bounds, even_blocks
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace


@dataclass
class ElkanState:
    """Persistent O(nk) state across iterations."""

    assignment: np.ndarray  # (n,) int32
    ub: np.ndarray  # (n,) float64
    lb: np.ndarray  # (n, k) float64 lower bounds
    sums: np.ndarray  # (k, d)
    counts: np.ndarray  # (k,)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


@dataclass
class ElkanIterationResult:
    """Outcome and pruning statistics of one Elkan iteration.

    The pruning breakdown uses the same field names as
    :class:`~repro.core.mti.MtiIterationResult` so drivers can consume
    either result uniformly: Elkan evaluates its bounds per
    point-centroid pair with the tightened upper bound, which maps to
    MTI's clause-3 position (``clause2_pruned`` stays 0 -- Elkan has
    no separate loose-bound pass).
    """

    new_centroids: np.ndarray
    n_changed: int
    dist_per_row: np.ndarray
    needs_data: np.ndarray
    motion: np.ndarray
    clause1_rows: int = 0
    clause2_pruned: int = 0
    clause3_pruned: int = 0
    tightened_rows: int = 0
    computed: int = 0

    @property
    def pruned_pairs(self) -> int:
        """Backward-compatible alias for :attr:`clause3_pruned`."""
        return self.clause3_pruned


def elkan_init(
    x: np.ndarray,
    centroids: np.ndarray,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> tuple[ElkanState, ElkanIterationResult]:
    """Iteration 0: full distance matrix seeds ub, lb and assignments.

    The matrix is filled in even blocks of at most ``BLOCK_BYTES`` of
    row data, each widened to float64 on its own, so a float32 ``x`` is
    never copied whole.
    """
    x = as_rows(x)
    k, d = centroids.shape
    n = x.shape[0]
    c_sq = None
    x_sq = None
    if workspace is not None:
        centroids = workspace.ensure(centroids)
        c_sq = workspace.c_sq
        if workspace.kernel == "gemm":
            x_sq = workspace.x_sq(x)
    # The full matrix becomes the persistent lb state, so it is
    # allocated fresh rather than drawn from the workspace buffer.
    dist = np.empty((n, k))
    n_blocks = even_blocks(n, max(1, BLOCK_BYTES // (8 * d)))
    for blk in range(n_blocks):
        lo, hi = block_bounds(blk, n_blocks, n)
        euclidean(
            np.asarray(x[lo:hi], dtype=np.float64), centroids, c_sq=c_sq,
            x_sq=None if x_sq is None else x_sq[lo:hi], out=dist[lo:hi],
        )
    assign = np.argmin(dist, axis=1).astype(np.int32)
    ub = dist[np.arange(n), assign].copy()
    sums = flat_sums(
        x, assign, k,
        scratch=None if workspace is None else workspace.accum,
    )
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    state = ElkanState(
        assignment=assign, ub=ub, lb=dist, sums=sums, counts=counts
    )
    new_centroids = centroids.copy()
    nonzero = counts > 0
    new_centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
    result = ElkanIterationResult(
        new_centroids=new_centroids,
        n_changed=n,
        dist_per_row=np.full(n, k, dtype=np.int32),
        needs_data=np.ones(n, dtype=bool),
        motion=np.zeros(k),
        computed=n * k,
    )
    return state, result


def elkan_iteration(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: ElkanState,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> ElkanIterationResult:
    """One Elkan-pruned iteration; mutates ``state`` in place."""
    x = as_rows(x)
    n, d = x.shape
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(f"state tracks {state.n} rows but data has {n}")

    motion = rows_to_centroids(centroids, prev_centroids, np.arange(k))
    state.ub += motion[state.assignment]
    np.maximum(state.lb - motion[None, :], 0.0, out=state.lb)

    c_sq = None
    x_sq_full = None
    if workspace is not None:
        centroids = workspace.ensure(centroids)
        c_sq = workspace.c_sq
        cc = workspace.pairwise()
        s = workspace.half_min()
        if workspace.kernel == "gemm":
            # Cached per-array row norms feed the per-centroid column
            # passes; gathered norms are bit-identical to inline ones.
            x_sq_full = workspace.x_sq(x)
    else:
        cc = pairwise_centroid_distances(centroids)
        s = half_min_inter_centroid(cc)

    assign = state.assignment
    old_assign = assign.copy()

    clause1 = state.ub <= s[assign]
    active_idx = np.nonzero(~clause1)[0]

    dist_per_row = np.zeros(n, dtype=np.int32)
    needs_data = np.zeros(n, dtype=bool)
    needs_data[active_idx] = True

    pruned_pairs = 0
    computed = 0
    n_tightened = 0

    if active_idx.size:
        m = active_idx.size
        # The active rows, gathered and widened block by block.
        xa = np.empty((m, d))
        step = max(1, BLOCK_BYTES // (8 * d))
        for lo in range(0, m, step):
            xa[lo:lo + step] = x[active_idx[lo:lo + step]]
        ba = assign[active_idx].copy()
        ua = state.ub[active_idx].copy()
        lba = state.lb[active_idx]
        tight = np.zeros(m, dtype=bool)  # is ua the exact distance?

        for c in range(k):
            half = 0.5 * cc[ba, c]
            cand = (
                (ba != c)
                & (ua > lba[:, c])
                & (ua > half)
            )
            if not cand.any():
                pruned_pairs += int((ba != c).sum())
                continue
            pruned_pairs += int((ba != c).sum() - cand.sum())
            # Tighten u for candidate rows not yet tightened.
            need_tight = cand & ~tight
            nt = np.nonzero(need_tight)[0]
            if nt.size:
                ua[nt] = rows_to_centroids(
                    xa[nt], centroids, ba[nt], c_sq=c_sq,
                    x_sq=(
                        None if x_sq_full is None
                        else x_sq_full[active_idx[nt]]
                    ),
                )
                lba[nt, ba[nt]] = ua[nt]
                tight[nt] = True
                n_tightened += int(nt.size)
                computed += int(nt.size)
                dist_per_row[active_idx[nt]] += 1
            # Re-test with the tightened bound.
            cand &= (ua > lba[:, c]) & (ua > 0.5 * cc[ba, c])
            ci = np.nonzero(cand)[0]
            if ci.size == 0:
                continue
            dist_c = rows_to_centroids(
                xa[ci], centroids, np.full(ci.size, c), c_sq=c_sq,
                x_sq=(
                    None if x_sq_full is None
                    else x_sq_full[active_idx[ci]]
                ),
            )
            computed += int(ci.size)
            dist_per_row[active_idx[ci]] += 1
            lba[ci, c] = dist_c
            better = dist_c < ua[ci]
            bi = ci[better]
            if bi.size:
                ba[bi] = c
                ua[bi] = dist_c[better]
                # The new assignment's distance is exact.
                tight[bi] = True

        assign[active_idx] = ba
        state.ub[active_idx] = ua
        # Fancy indexing copied the rows; write the updated bounds back.
        state.lb[active_idx] = lba

    changed = np.nonzero(assign != old_assign)[0]
    n_changed = int(changed.size)
    if n_changed:
        move_rows(
            state.sums, state.counts,
            x[changed], old_assign[changed], assign[changed],
            scratch=None if workspace is None else workspace.accum,
        )

    new_centroids = centroids.copy()
    nonzero = state.counts > 0
    new_centroids[nonzero] = state.sums[nonzero] / state.counts[nonzero, None]

    return ElkanIterationResult(
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=dist_per_row,
        needs_data=needs_data,
        motion=motion,
        clause1_rows=int(clause1.sum()),
        clause3_pruned=pruned_pairs,
        tightened_rows=n_tightened,
        computed=computed,
    )
