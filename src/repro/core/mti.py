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
blocks of at most ``BLOCK_BYTES`` of row data (4096 rows at d=32), the
one block budget of :mod:`repro.core.distance` (this module binds the
name itself, so a test can shrink these blocks alone). Per
block the kernel gathers the rows, widens them to float64, reads their
norms, tightens, ranks both bounds, and, for the rows with a surviving
candidate only, runs the candidate GEMM and a *verified unmasked
argmin*, then writes the block's bounds, assignments and distance
counts back. The argmin runs over the whole GEMM row, with the
tightened bound in the row's own column, and each winner is checked in
O(1): it must be the own centroid or a surviving candidate. A winner
that passes is also the masked argmin's answer, since the masked set
then holds the row's minimum and argmin breaks ties to the lowest
index in both. Only a row whose winner was pruned (rounding on a
bisector can let a pruned centroid tie or beat the own one) redoes the
argmin with its pruned centroids masked to ``+inf``. So the algorithm
still only "sees" candidate distances plus its own, and a pruning bug
still surfaces as a wrong assignment, without an (m, k) mask pass per
block. The kernel's temporaries are therefore O(n) index and bound
vectors plus per-block buffers of at most one block's rows; no (m, d)
or (m, k) array is built. The one row gather outside the blocks is of
the rows that changed cluster, which the incremental update moves.
Each row's arithmetic is its own, so the outcome does not depend on
the block size as long as BLAS rounds a row the same in every call
(see the even split in :class:`_BlockPass`). Rows are gathered by
fancy index, ``x[idx]``: knors hands the kernel a memmap view whose
data starts at byte 28 of the file, and on such an unaligned array
``np.take(x, idx, axis=0)`` costs about a copy of the whole matrix.

A float32 matrix stays float32: each gathered block is widened on its
own, and so are the changed rows the centroid update moves (by its
``bincount``). The conversion is exact, so the results are
bit-identical to a run on the matrix widened to float64, without ever
holding that copy. With a workspace, the squared row norms come from
its per-array cache (``workspace.x_sq``), filled during :func:`mti_init`'s
full pass from float64 rows, so no iteration takes a norm; gathered
cached norms equal the per-row reductions bit for bit.

The blocks run on host threads, the paper's partitioned workers made
real on the wall clock: the calling thread and a process-wide pool of
``WORKERS - 1`` threads (one per CPU of the process's affinity mask),
at most one thread per block, each claiming the next unclaimed block
until none is left (:func:`repro.core.hostpool.run_blocks`, shared by
both passes). A call with a single block (a small shard or batch) runs
on the calling thread alone and dispatches nothing. The iteration-0
pass of :func:`mti_init` runs its assignment blocks the same way
(``nearest_centroid(..., workers=WORKERS)``, even blocks of the budget
above, a function of ``(n, d)`` only), each block writing its own rows
of the assignment, the distances and the norm cache; its centroid sums
follow as a separate, sequential streamed pass. Threads change who
runs a block, never what it computes:

* the partition is a function of ``(m, d)`` only, never of the worker
  count, so every block hands BLAS the same GEMM on any host (the even
  split above keeps holding);
* blocks own disjoint rows of ``ub``, ``assign`` and ``dist_per_row``,
  and each row's arithmetic is its own;
* each block's loose and tight candidate totals and its reassigned
  rows land in the block's own slot and are read after the join;
* every :mod:`repro.mem`-owned buffer is taken on the calling thread
  before dispatch: in an iteration each running block holds a row
  range of the workspace's distance buffer that no other running
  block holds, one range per worker, kept across iterations
  (the iteration-0 pass's pooled blocks take plain per-block
  temporaries instead, so that buffer is first sized by iteration 1);
* if a block raises, the workers stop claiming blocks, every worker
  finishes the block it holds, and only then is the exception of the
  lowest failed block raised, so crash recovery never races a worker
  still writing state.

An iteration is three calls. :func:`mti_prologue` runs on the calling
thread: it loosens the bounds, applies clause 1, builds the block pass
and takes its buffers. The block pass runs on the threads. Then
:func:`mti_epilogue`, again on the calling thread, sums the clause
totals and moves the changed rows. Every block pass runs in
:func:`run_shared_pass`. :func:`mti_iteration` is the three in a row,
the one path of knori, knors and serve. A distributed fleet
(:class:`~repro.runtime.backends.ShardedKmeans`) instead runs every
shard's prologue in shard order, then one :func:`run_shared_pass`
over all the shards' blocks, then every epilogue in shard order:
one join per iteration rather than one per shard, and no
shard's idle tail leaves threads waiting while another shard has
blocks left. Each shard's blocks and buffers are the ones its own
pass would use, so the results are the same bits either way. The
threads never run a prologue or an epilogue, so every
:mod:`repro.mem` call stays on the calling thread, in shard order.

Centroid updates are *incremental*: only points that changed membership
move between the persistent per-cluster sums, so clause-1-skipped rows
contribute no memory traffic -- this is what makes clause 1 an I/O
elision in the semi-external module.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.core.centroids import flat_sums, move_rows
from repro.core.distance import (
    BLOCK_BYTES,
    as_rows,
    euclidean,
    half_min_inter_centroid,
    nearest_centroid,
    pairwise_centroid_distances,
    row_norms,
    rows_to_centroids,
)
from repro.core.hostpool import (
    affinity_cpus,
    block_bounds,
    even_blocks,
    run_blocks,
)
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace

#: Host threads that run one pass's blocks (:func:`mti_iteration`'s
#: and :func:`mti_init`'s): the calling thread plus ``WORKERS - 1``
#: pool threads, one per CPU in the process's affinity mask, and never
#: more than the pass has blocks. Results do not depend on it (module
#: docstring).
WORKERS = affinity_cpus()


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

    def is_candidate(
        self, b: np.ndarray, c: np.ndarray, count: np.ndarray
    ) -> np.ndarray:
        """Whether ``c[i]`` is among the ``count[i]`` lowest thresholds
        of row ``b[i]``: one rank lookup per row, O(m)."""
        return self._rank[b, c] < count

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
    like an unpruned iteration. The assignment blocks run on
    :data:`WORKERS` host threads; the per-cluster sums are a second,
    streamed pass. Under the ``blocked`` kernel the assignment pass
    also fills the workspace's row-norm cache, which every later
    :func:`mti_iteration` reads.
    """
    x = as_rows(x)
    k, d = centroids.shape
    n = x.shape[0]

    def assign_pass(x_sq_out=None):
        return nearest_centroid(
            x, centroids, workspace=workspace, x_sq_out=x_sq_out,
            workers=WORKERS,
        )

    if workspace is None or workspace.kernel == "gemm":
        # The gemm pass reads the workspace's norm cache itself.
        assign, mindist = assign_pass()
    else:
        passes = []
        workspace.x_sq(x, fill=lambda norms: passes.append(
            assign_pass(norms)
        ))
        # A rerun of iteration 0 (crash recovery's reset) finds the
        # norms cached already.
        assign, mindist = passes[0] if passes else assign_pass()
    sums = flat_sums(
        x, assign, k,
        scratch=None if workspace is None else workspace.accum,
    )
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    state = MtiState(
        assignment=assign, ub=mindist, sums=sums, counts=counts
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


class _BlockPass:
    """The post-clause-1 walk of one :func:`mti_iteration` call.

    The ``m`` active rows are split into ``n_blocks`` even blocks, a
    function of ``(m, d)`` only. :meth:`run` computes one block and
    writes its bounds, assignments and distance counts into the state's
    arrays; blocks own disjoint rows, so they may run on any thread in
    any order. Each block's loose and tight candidate totals, and its
    reassigned rows with their old clusters (``moved``), go to its own
    slot, read by :func:`mti_epilogue` once every block has run.
    """

    def __init__(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        c_sq: np.ndarray | None,
        x_sq: np.ndarray | None,
        thresholds: ClauseThresholds,
        active_idx: np.ndarray,
        state: MtiState,
        dist_per_row: np.ndarray,
    ) -> None:
        self.x = x
        self.centroids = centroids
        self.c_sq = c_sq
        self.x_sq = x_sq
        self.thresholds = thresholds
        self.active_idx = active_idx
        self.state = state
        self.dist_per_row = dist_per_row
        # Blocks of at most the row budget, split evenly: a sliver of
        # a last block would hand BLAS a GEMM small enough for its
        # single-row or small-matrix path, which rounds differently
        # from the kernel a full block's GEMM runs.
        self.n_blocks = even_blocks(
            active_idx.size, max(1, BLOCK_BYTES // (8 * x.shape[1]))
        )
        self.loose = np.zeros(self.n_blocks, dtype=np.int64)
        self.tight = np.zeros(self.n_blocks, dtype=np.int64)
        #: One distance buffer per thread that may run these blocks
        #: (``None`` entries: allocate per block), taken by
        #: :func:`mti_prologue`.
        self.bufs: list = []
        #: Per block: ``(rows, old clusters)`` of its reassigned rows,
        #: ``None`` when none moved.
        self.moved: list = [None] * self.n_blocks

    def run(self, blk: int, dist_buf: np.ndarray | None) -> None:
        """Compute block ``blk``; ``dist_buf`` is the running thread's
        ``(rows, k)`` distance buffer (``None``: allocate)."""
        lo, hi = block_bounds(blk, self.n_blocks, self.active_idx.size)
        idx = self.active_idx[lo:hi]
        centroids, c_sq = self.centroids, self.c_sq
        thresholds = self.thresholds
        ub = self.state.ub
        assign = self.state.assignment
        xb = np.asarray(self.x[idx], dtype=np.float64)
        bb = assign[idx]
        ub_b = ub[idx]
        xb_sq = row_norms(xb) if self.x_sq is None else self.x_sq[idx]
        # U(u): exact d(x, b). Every active row is tightened: ub >
        # s[b] means ub exceeds some 0.5 * d(b, c), so a loose
        # candidate always exists.
        ut = rows_to_centroids(xb, centroids, bb, c_sq=c_sq, x_sq=xb_sq)

        # Clauses 2 and 3 as candidate counts: c survives the loose
        # bound when 0.5 * d(b, c) < ub, and the tightened bound when
        # 0.5 * d(b, c) < min(ub, ut).
        n_loose = thresholds.count_below(bb, ub_b)
        n_tight = thresholds.count_below(bb, np.minimum(ub_b, ut))
        self.loose[blk] = n_loose.sum()
        self.tight[blk] = n_tight.sum()
        self.dist_per_row[idx] = 1 + n_tight

        c_idx = np.flatnonzero(n_tight)  # positions within the block
        if c_idx.size:
            bc = bb[c_idx]
            nc = n_tight[c_idx]
            uc = ut[c_idx]
            # Only rows with a surviving candidate get a k-wide block:
            # the GEMM output. (Often every row has one; then the rows
            # need no second gather.)
            dist = euclidean(
                xb if c_idx.size == idx.size else xb[c_idx],
                centroids, c_sq=c_sq,
                out=None if dist_buf is None else dist_buf[:c_idx.size],
                x_sq=xb_sq[c_idx],
            )
            # The algorithm only "sees" candidate distances plus the
            # tightened own distance. Argmin the unmasked row and verify
            # that the winner is one of those: then it is the masked
            # argmin's winner too (module docstring).
            rows = np.arange(c_idx.size)
            dist[rows, bc] = uc
            best = np.argmin(dist, axis=1).astype(np.int32)
            seen = (best == bc) | thresholds.is_candidate(bc, best, nc)
            if not seen.all():
                # A pruned centroid won: redo these rows masked, so a
                # pruning bug would surface as a wrong assignment.
                redo = np.flatnonzero(~seen)
                sub = dist[redo]
                np.putmask(sub, thresholds.pruned(bc[redo], nc[redo]),
                           np.inf)
                sub[np.arange(redo.size), bc[redo]] = uc[redo]
                best[redo] = np.argmin(sub, axis=1)
            moved = np.flatnonzero(best != bc)
            if moved.size:
                # The block's reassigned rows, ascending, with their
                # old clusters, for the epilogue's centroid update.
                self.moved[blk] = (idx[c_idx[moved]], bc[moved])
            bb[c_idx] = best
            # Every winner is now the own column (holding ut) or a
            # candidate, whose unmasked distance is the one it won by.
            ut[c_idx] = dist[rows, best]

        # Write back tightened bounds and any reassignments.
        ub[idx] = ut
        assign[idx] = bb


@dataclass
class MtiStep:
    """One :func:`mti_iteration` stopped before its block pass.

    :func:`mti_prologue` fills it on the calling thread; ``blocks`` is
    the block pass, ``None`` when clause 1 skips every row. The pass
    runs in :func:`run_shared_pass`, alone or with other shards', and
    :func:`mti_epilogue` finishes the iteration, again on the calling
    thread.
    """

    x: np.ndarray
    centroids: np.ndarray
    state: MtiState
    workspace: "DistanceWorkspace | None"
    motion: np.ndarray
    dist_per_row: np.ndarray
    needs_data: np.ndarray
    blocks: _BlockPass | None


def mti_prologue(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: MtiState,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> MtiStep:
    """Everything of :func:`mti_iteration` before its block pass.

    Loosens the bounds, applies clause 1, builds the block pass and
    takes its per-thread distance buffers: every :mod:`repro.mem` call
    of the iteration's blocks happens here, on the calling thread.
    """
    x = as_rows(x)
    n = x.shape[0]
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(
            f"state tracks {state.n} rows but data has {n}"
        )

    # f(c): how far each centroid moved since last iteration.
    motion = rows_to_centroids(centroids, prev_centroids, np.arange(k))
    # Both per-row gathers below index by the assignment: widen it
    # once, not once per gather.
    assign = state.assignment.astype(np.intp)
    # Loosen every upper bound by its centroid's motion.
    state.ub += motion.take(assign)

    c_sq = None
    x_sq = None
    if workspace is not None:
        centroids = workspace.ensure(centroids)
        c_sq = workspace.c_sq
        cc = workspace.pairwise()
        s = workspace.half_min()
        # Cached norms, gathered per block, are bit-identical to the
        # per-row reductions of the gathered rows.
        x_sq = workspace.x_sq(x)
    else:
        cc = pairwise_centroid_distances(centroids)
        s = half_min_inter_centroid(cc)

    # Clause 1: the whole row is skipped (no compute, no I/O). Written
    # as ~(ub <= s): a NaN bound is not skipped.
    clause1 = state.ub <= s.take(assign)
    active_idx = np.flatnonzero(~clause1)
    m = active_idx.size

    dist_per_row = np.zeros(n, dtype=np.int32)
    needs_data = np.zeros(n, dtype=bool)
    # Per Section 6.2.1, only clause 1 elides the I/O request: the row
    # data for every non-clause-1 row is requested (the tighten step
    # needs it, and the request is issued before the per-centroid
    # clauses are evaluated).
    needs_data[active_idx] = True

    blocks = None
    if m:
        blocks = _BlockPass(
            x, centroids, c_sq, x_sq, ClauseThresholds(cc), active_idx,
            state, dist_per_row,
        )
        n_workers = min(WORKERS, blocks.n_blocks)
        rows = -(-m // blocks.n_blocks)  # the largest block
        if workspace is None:
            blocks.bufs = [None] * n_workers
        else:
            # The manager-owned buffer is taken here, on the calling
            # thread, before any block runs; each worker gets its own
            # row range of it. It is the one the iteration-0 pass
            # sized, so it seldom grows.
            buf = workspace.dist_buffer(n_workers * rows)
            blocks.bufs = [
                buf[w * rows:(w + 1) * rows] for w in range(n_workers)
            ]
    return MtiStep(
        x, centroids, state, workspace, motion, dist_per_row, needs_data,
        blocks,
    )


def run_shared_pass(steps: list[MtiStep]) -> None:
    """Run the block passes of one or several prologues (a fleet's
    shards) in one host-pool dispatch.

    The blocks are numbered shard after shard and claimed in that
    order, so a failure raises the lowest failing shard's lowest
    failing block, once every thread has stopped. A block runs on its
    own shard's arrays with one of that shard's per-thread buffers:
    a shard holds one per thread that can be inside it at once
    (``min(WORKERS, n_blocks)``), and a thread takes a free one for
    the block it runs.
    """
    passes = [st.blocks for st in steps if st.blocks is not None]
    first = list(accumulate((p.n_blocks for p in passes), initial=0))
    free = [list(p.bufs) for p in passes]

    def run(blk: int, _thread) -> None:
        i = bisect_right(first, blk) - 1
        buf = free[i].pop()
        try:
            passes[i].run(blk - first[i], buf)
        finally:
            free[i].append(buf)

    if first[-1]:
        run_blocks(first[-1], run, [None] * min(WORKERS, first[-1]))


def mti_epilogue(step: MtiStep) -> MtiIterationResult:
    """Everything of :func:`mti_iteration` after its block pass: sum
    the clause totals, move the changed rows between the per-cluster
    sums and derive the new centroids, on the calling thread."""
    x, state, workspace = step.x, step.state, step.workspace
    n = x.shape[0]
    k = step.centroids.shape[0]
    m = 0
    clause2_pruned = clause3_pruned = computed = 0
    if step.blocks is not None:
        m = step.blocks.active_idx.size
        loose_total = int(step.blocks.loose.sum())
        tight_total = int(step.blocks.tight.sum())
        clause2_pruned = m * (k - 1) - loose_total
        clause3_pruned = loose_total - tight_total
        computed = m + tight_total

    # Incremental centroid update: move only the rows that changed,
    # in ascending row order (blocks are ascending runs of rows).
    moves = [] if step.blocks is None else [
        mv for mv in step.blocks.moved if mv is not None
    ]
    n_changed = sum(rows.size for rows, _ in moves)
    if n_changed:
        changed = np.concatenate([rows for rows, _ in moves])
        # Widened once here: a float32 gather would be widened again
        # by each of move_rows' two bincounts.
        move_rows(
            state.sums, state.counts,
            np.asarray(x[changed], dtype=np.float64),
            np.concatenate([old for _, old in moves]),
            state.assignment[changed],
            scratch=None if workspace is None else workspace.accum,
        )

    new_centroids = step.centroids.copy()
    nonzero = state.counts > 0
    new_centroids[nonzero] = (
        state.sums[nonzero] / state.counts[nonzero, None]
    )

    return MtiIterationResult(
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=step.dist_per_row,
        needs_data=step.needs_data,
        motion=step.motion,
        clause1_rows=n - m,
        clause2_pruned=clause2_pruned,
        clause3_pruned=clause3_pruned,
        tightened_rows=m,
        computed=computed,
    )


def mti_iteration(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: MtiState,
    *,
    workspace: "DistanceWorkspace | None" = None,
) -> MtiIterationResult:
    """One MTI-pruned super-phase; mutates ``state`` in place.

    :func:`mti_prologue`, its block pass (:func:`run_shared_pass`),
    then :func:`mti_epilogue`. With a ``workspace``, the centroid norms,
    pairwise matrix, clause-1 thresholds and row norms are computed
    once and each thread's candidate distance block reuses a
    preallocated buffer; outputs are bit-identical.
    """
    step = mti_prologue(
        x, centroids, prev_centroids, state, workspace=workspace
    )
    run_shared_pass([step])
    return mti_epilogue(step)
