"""Minimal Triangle Inequality (MTI) pruning -- Section 4 of the paper.

MTI is Elkan's triangle-inequality algorithm minus the O(nk)
lower-bound matrix. Retained state is O(n) + O(k^2):

* ``ub[i]`` -- an upper bound on the distance from point ``i`` to its
  assigned centroid, loosened every iteration by the assigned
  centroid's motion ``f(c) = d(c^t, c^{t-1})``;
* the centroid-to-centroid distance matrix (O(k^2)), from which the
  clause thresholds are derived.

The three clauses (for point ``v`` assigned to ``b``):

1. if ``u <= 0.5 * min_{c != b} d(b, c)`` -- the point cannot move at
   all this iteration: skip every distance computation *and*, in
   knors, the I/O request for its row (Section 6.2.1).
2. if ``u <= 0.5 * d(b, c)`` -- the computation against centroid ``c``
   is pruned (loose bound, no row data needed).
3. tighten ``u`` to the exact ``d(v, b)`` (one distance computation),
   then prune ``c`` if the tightened ``u <= 0.5 * d(b, c)``.

The paper's prose omits the 1/2 factors; Elkan's Lemma 1 requires them
(``d(b,c) >= 2 u(x)`` implies ``d(x,c) >= d(x,b)``) and the released
knor code uses them. We implement the correct form and property-test
that MTI's assignments match unpruned Lloyd's exactly.

Every row that survives clause 1 is tightened: ``u > s(b)`` means ``u``
exceeds ``0.5 * d(b, c)`` for the nearest other centroid ``c``, so a
loose candidate always exists. Clauses 2 and 3 are evaluated as
*counts*, not masks: :class:`ClauseThresholds` sorts each row of the
``(k, k)`` threshold table once per iteration, a row's loose candidate
count is the rank of ``u`` in its centroid's sorted row, and its tight
count is the rank of ``min(u, d(v, b))``. The pruning statistics, the
per-row distance counts and the set of rows needing a candidate pass all
follow from those two O(m) vectors.

Everything after the clause-1 test walks the ``m`` active rows in
blocks of at most ``BLOCK_BYTES`` of row data (4096 rows at d=32). Per
block the kernel gathers the rows, takes their norms, tightens, ranks
both bounds, and, for the rows with a surviving candidate only, runs
the candidate GEMM and masks its pruned centroids, then writes the
block's bounds, assignments and distance counts back. The kernel's
temporaries are therefore O(n) index and bound vectors plus per-block
buffers of at most one block's rows; no (m, d) or (m, k) array is
built. The one row gather outside the blocks is of the rows that
changed cluster, which the incremental update moves. Each row's
arithmetic is its own, so the outcome does not depend on the block
size as long as BLAS rounds a row the same in every call (see the even
split in :func:`mti_iteration`). Rows are gathered by fancy index,
``x[idx]``: knors hands the kernel a memmap view whose data starts at
byte 28 of the file, and on such an unaligned array
``np.take(x, idx, axis=0)`` costs about a copy of the whole matrix.

Centroid updates are *incremental*: only points that changed membership
move between the persistent per-cluster sums, so clause-1-skipped rows
contribute no memory traffic -- this is what makes clause 1 an I/O
elision in the semi-external module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.centroids import flat_sums, move_rows
from repro.core.distance import (
    euclidean,
    half_min_inter_centroid,
    nearest_centroid,
    pairwise_centroid_distances,
    row_norms,
    rows_to_centroids,
)
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace

#: Budget of gathered row data per block of the post-clause-1 pass:
#: ``BLOCK_BYTES // (8 * d)`` float64 rows (4096 at d=32), small
#: enough that a block's rows, norms, bounds and candidate distances
#: stay in L2.
BLOCK_BYTES = 1 << 20


@dataclass
class MtiState:
    """Persistent O(n) + O(kd) pruning state across iterations."""

    assignment: np.ndarray  # (n,) int32
    ub: np.ndarray  # (n,) float64 upper bounds
    sums: np.ndarray  # (k, d) persistent per-cluster sums
    counts: np.ndarray  # (k,) persistent membership counts

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def k(self) -> int:
        return self.sums.shape[0]


@dataclass
class MtiIterationResult:
    """Exact outcome and pruning statistics of one MTI super-phase."""

    new_centroids: np.ndarray
    n_changed: int
    dist_per_row: np.ndarray  # (n,) int32 distance computations per row
    needs_data: np.ndarray  # (n,) bool -- row-data required (I/O in SEM)
    motion: np.ndarray  # (k,) centroid displacement f(c)
    # Pruning breakdown (point-centroid pairs unless noted):
    clause1_rows: int = 0  # rows skipped entirely
    clause2_pruned: int = 0
    clause3_pruned: int = 0
    tightened_rows: int = 0
    computed: int = 0  # candidate distances actually evaluated
    extra: dict = field(default_factory=dict)


class ClauseThresholds:
    """The clause-2/3 thresholds ``0.5 * d(b, c)`` as per-row ranks.

    Built once per iteration from the ``(k, k)`` pairwise matrix, with
    the diagonal set to ``+inf`` so a centroid is never its own
    candidate. Each row is sorted, so a point's candidate count under a
    bound ``u`` is the rank of ``u`` in its centroid's row, and its
    candidates are exactly the centroids of rank below that count.
    """

    def __init__(self, cc: np.ndarray) -> None:
        k = cc.shape[0]
        half_cc = 0.5 * cc
        np.fill_diagonal(half_cc, np.inf)
        order = np.argsort(half_cc, axis=1, kind="stable")
        # Sorted rows padded with +inf to a power-of-two width, for the
        # branch-free search in count_below.
        self._width = 1 << max(k - 1, 1).bit_length()
        rows = np.full((k, self._width), np.inf)
        rows[:, :k] = np.take_along_axis(half_cc, order, axis=1)
        self._sorted = rows.ravel()
        # rank[b, c]: position of c in row b's sorted order.
        self._rank = np.empty((k, k), dtype=np.min_scalar_type(k))
        np.put_along_axis(
            self._rank, order, np.arange(k, dtype=self._rank.dtype)[None, :],
            axis=1,
        )

    def count_below(self, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``#{c : 0.5 * d(b[i], c) < u[i]}`` for every ``i`` (int64).

        A binary search of ``log2(k)`` O(m) vector passes. Every row
        ends in ``+inf`` (the diagonal, then padding), which is never
        below ``u``, so the count fits in ``width - 1`` and the search
        never reads past its row.
        """
        base = b.astype(np.int64) * self._width
        pos = np.zeros(b.shape, dtype=np.int64)
        step = self._width >> 1
        while step:
            probe = self._sorted.take(base + (pos + (step - 1)))
            pos += (probe < u) * step
            step >>= 1
        return pos

    def pruned(self, b: np.ndarray, count: np.ndarray) -> np.ndarray:
        """``(len(b), k)`` mask of the centroids *not* among the
        ``count[i]`` lowest thresholds of row ``b[i]``."""
        return np.take(self._rank, b, axis=0) >= count.astype(
            self._rank.dtype
        )[:, None]


def mti_init(
    x: np.ndarray,
    centroids: np.ndarray,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> tuple[MtiState, MtiIterationResult]:
    """Iteration 0: full assignment pass that seeds the MTI state.

    Every row costs k distance computations and a data read, exactly
    like an unpruned iteration.
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = centroids.shape
    n = x.shape[0]
    assign, mindist = nearest_centroid(x, centroids, workspace=workspace)
    sums = flat_sums(
        x, assign, k,
        scratch=None if workspace is None else workspace.accum,
    )
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    state = MtiState(
        assignment=assign, ub=mindist.copy(), sums=sums, counts=counts
    )
    new_centroids = centroids.copy()
    nonzero = counts > 0
    new_centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
    result = MtiIterationResult(
        new_centroids=new_centroids,
        n_changed=n,
        dist_per_row=np.full(n, k, dtype=np.int32),
        needs_data=np.ones(n, dtype=bool),
        motion=np.zeros(k),
        tightened_rows=0,
        computed=n * k,
    )
    return state, result


def mti_iteration(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: MtiState,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> MtiIterationResult:
    """One MTI-pruned super-phase; mutates ``state`` in place.

    With a ``workspace``, the centroid norms, pairwise matrix and
    clause-1 thresholds are computed once and the candidate distance
    block reuses a preallocated buffer; outputs are bit-identical.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(
            f"state tracks {state.n} rows but data has {n}"
        )

    # f(c): how far each centroid moved since last iteration.
    motion = rows_to_centroids(centroids, prev_centroids, np.arange(k))
    # Loosen every upper bound by its centroid's motion.
    state.ub += motion[state.assignment]

    c_sq = None
    x_sq_full = None
    if workspace is not None:
        centroids = workspace.ensure(centroids)
        c_sq = workspace.c_sq
        cc = workspace.pairwise()
        s = workspace.half_min()
        if workspace.kernel == "gemm":
            # The gemm strategy's per-array norm cache feeds the
            # tighten and candidate passes; gathered norms are
            # bit-identical to inline per-row reductions.
            x_sq_full = workspace.x_sq(x)
    else:
        cc = pairwise_centroid_distances(centroids)
        s = half_min_inter_centroid(cc)

    assign = state.assignment
    old_assign = assign.copy()

    # Clause 1: the whole row is skipped (no compute, no I/O).
    clause1 = state.ub <= s[assign]
    active_idx = np.flatnonzero(~clause1)
    m = active_idx.size

    dist_per_row = np.zeros(n, dtype=np.int32)
    needs_data = np.zeros(n, dtype=bool)
    # Per Section 6.2.1, only clause 1 elides the I/O request: the row
    # data for every non-clause-1 row is requested (the tighten step
    # needs it, and the request is issued before the per-centroid
    # clauses are evaluated).
    needs_data[active_idx] = True

    clause2_pruned = 0
    clause3_pruned = 0
    computed = 0

    if m:
        thresholds = ClauseThresholds(cc)
        ub = state.ub
        loose_total = 0
        tight_total = 0
        # Blocks of at most the row budget, split evenly: a sliver of
        # a last block would hand BLAS a GEMM small enough for its
        # single-row or small-matrix path, which rounds differently
        # from the kernel a full block's GEMM runs.
        n_blocks = -(-m // max(1, BLOCK_BYTES // (8 * x.shape[1])))
        for blk in range(n_blocks):
            idx = active_idx[blk * m // n_blocks:(blk + 1) * m // n_blocks]
            xb = x[idx]
            bb = assign[idx]
            ub_b = ub[idx]
            xb_sq = row_norms(xb) if x_sq_full is None else x_sq_full[idx]
            # U(u): exact d(x, b). Every active row is tightened: ub >
            # s[b] means ub exceeds some 0.5 * d(b, c), so a loose
            # candidate always exists.
            ut = rows_to_centroids(xb, centroids, bb, c_sq=c_sq, x_sq=xb_sq)

            # Clauses 2 and 3 as candidate counts: c survives the loose
            # bound when 0.5 * d(b, c) < ub, and the tightened bound
            # when 0.5 * d(b, c) < min(ub, ut).
            n_loose = thresholds.count_below(bb, ub_b)
            n_tight = thresholds.count_below(bb, np.minimum(ub_b, ut))
            loose_total += int(n_loose.sum())
            tight_total += int(n_tight.sum())
            dist_per_row[idx] = 1 + n_tight

            c_idx = np.flatnonzero(n_tight)  # positions within the block
            if c_idx.size:
                bc = bb[c_idx]
                # Only rows with a surviving candidate get a k-wide
                # block: the GEMM output, masked in place. (Often every
                # row has one; then the rows need no second gather.)
                dist = euclidean(
                    xb if c_idx.size == idx.size else xb[c_idx],
                    centroids, c_sq=c_sq,
                    out=(
                        None if workspace is None
                        else workspace.dist_buffer(c_idx.size)
                    ),
                    x_sq=xb_sq[c_idx],
                )
                # The algorithm only "sees" candidate distances plus the
                # tightened own distance; mask everything else so a
                # pruning bug would surface as a wrong assignment.
                rows = np.arange(c_idx.size)
                np.putmask(
                    dist, thresholds.pruned(bc, n_tight[c_idx]), np.inf
                )
                dist[rows, bc] = ut[c_idx]
                best = np.argmin(dist, axis=1).astype(np.int32)
                bb[c_idx] = best
                ut[c_idx] = dist[rows, best]

            # Write back tightened bounds and any reassignments.
            ub[idx] = ut
            assign[idx] = bb

        clause2_pruned = m * (k - 1) - loose_total
        clause3_pruned = loose_total - tight_total
        computed = m + tight_total

    # Incremental centroid update: move only the rows that changed.
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
    new_centroids[nonzero] = (
        state.sums[nonzero] / state.counts[nonzero, None]
    )

    return MtiIterationResult(
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=dist_per_row,
        needs_data=needs_data,
        motion=motion,
        clause1_rows=n - m,
        clause2_pruned=clause2_pruned,
        clause3_pruned=clause3_pruned,
        tightened_rows=m,
        computed=computed,
    )
