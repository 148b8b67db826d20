"""Reference formulations the optimised kernels are pinned against.

Each function here is the straightforward form of a library kernel,
kept for the equivalence tests only: ``mti_iteration_masks`` evaluates
MTI's clauses 2 and 3 with ``(m, k)`` boolean masks,
``flat_sums_single`` takes the per-cluster sums in one bincount over
the whole call, and ``build_task_blocks_loop`` sums each task block in
a Python loop. The library's versions must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.centroids import move_rows
from repro.core.distance import (
    euclidean,
    half_min_inter_centroid,
    pairwise_centroid_distances,
    rows_to_centroids,
)
from repro.core.mti import MtiIterationResult, MtiState
from repro.errors import DatasetError, SchedulerError
from repro.simhw.engine import TaskWork
from repro.simhw.machine import SimMachine
from repro.simhw.topology import BindPolicy


def mti_iteration_masks(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: MtiState,
    *,
    workspace=None,
) -> MtiIterationResult:
    """The (m, k)-mask formulation of ``mti_iteration``.

    Clauses 2 and 3 are boolean ``(m, k)`` masks over every active row,
    and only rows with a loose candidate are tightened.
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
    active_idx = np.nonzero(~clause1)[0]

    dist_per_row = np.zeros(n, dtype=np.int32)
    needs_data = np.zeros(n, dtype=bool)
    # Per Section 6.2.1, only clause 1 elides the I/O request: the row
    # data for every non-clause-1 row is requested (the tighten step
    # may need it, and the request is issued before the per-centroid
    # clauses are evaluated).
    needs_data[active_idx] = True

    clause2_pruned = 0
    clause3_pruned = 0
    computed = 0
    n_tightened = 0

    if active_idx.size:
        xa = x[active_idx]
        ba = assign[active_idx]
        ua = state.ub[active_idx]
        half_cc = 0.5 * cc[ba]  # (m, k): 0.5 * d(b(x), c)
        other = np.ones((active_idx.size, k), dtype=bool)
        other[np.arange(active_idx.size), ba] = False

        # Clause 2 with the loose bound.
        loose_candidate = other & (ua[:, None] > half_cc)
        clause2_pruned = int(other.sum() - loose_candidate.sum())

        tighten_mask = loose_candidate.any(axis=1)
        t_idx = np.nonzero(tighten_mask)[0]  # positions within active
        n_tightened = int(t_idx.size)
        if t_idx.size:
            xt = xa[t_idx]
            bt = ba[t_idx]
            ga = active_idx[t_idx]  # global row indices
            # U(u): exact d(x, b).
            ut = rows_to_centroids(
                xt, centroids, bt, c_sq=c_sq,
                x_sq=None if x_sq_full is None else x_sq_full[ga],
            )
            computed += int(t_idx.size)

            # Clause 3 with the tightened bound.
            tight_candidate = loose_candidate[t_idx] & (
                ut[:, None] > half_cc[t_idx]
            )
            clause3_pruned = int(
                loose_candidate[t_idx].sum() - tight_candidate.sum()
            )

            row_has_cand = tight_candidate.any(axis=1)
            c_idx = np.nonzero(row_has_cand)[0]  # positions within t_idx
            new_ub_t = ut.copy()
            new_assign_t = bt.copy()
            if c_idx.size:
                dist = euclidean(
                    xt[c_idx], centroids, c_sq=c_sq,
                    out=(
                        None if workspace is None
                        else workspace.dist_buffer(c_idx.size)
                    ),
                    x_sq=(
                        None if x_sq_full is None
                        else x_sq_full[ga[c_idx]]
                    ),
                )
                cand = tight_candidate[c_idx]
                computed += int(cand.sum())
                # The algorithm only "sees" candidate distances plus
                # the tightened own distance; mask everything else so
                # a pruning bug would surface as a wrong assignment.
                masked = np.where(cand, dist, np.inf)
                masked[np.arange(c_idx.size), bt[c_idx]] = ut[c_idx]
                best = np.argmin(masked, axis=1).astype(np.int32)
                bestdist = masked[np.arange(c_idx.size), best]
                new_assign_t[c_idx] = best
                new_ub_t[c_idx] = bestdist

            # Write back tightened bounds and any reassignments.
            state.ub[ga] = new_ub_t
            assign[ga] = new_assign_t

            dist_per_row[ga] = 1 + tight_candidate.sum(axis=1).astype(
                np.int32
            )

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
        clause1_rows=int(clause1.sum()),
        clause2_pruned=clause2_pruned,
        clause3_pruned=clause3_pruned,
        tightened_rows=n_tightened,
        computed=computed,
    )


def flat_sums_single(
    x: np.ndarray, assign: np.ndarray, k: int
) -> np.ndarray:
    """Per-cluster ``(k, d)`` sums in one flat-index bincount over every
    row at once: the ``n * d`` index and the float64 weights whole."""
    d = x.shape[1]
    idx = (
        assign.astype(np.int64)[:, None] * d + np.arange(d, dtype=np.int64)
    ).ravel()
    return np.bincount(
        idx, weights=np.asarray(x, dtype=np.float64).ravel(),
        minlength=k * d,
    ).reshape(k, d)


def add_block_single(sums, counts, x, assign) -> None:
    """``add_block`` on :func:`flat_sums_single`."""
    k = sums.shape[0]
    counts += np.bincount(assign, minlength=k).astype(np.int64)
    sums += flat_sums_single(x, assign, k)


def move_rows_single(sums, counts, x, frm, to) -> None:
    """``move_rows`` on :func:`flat_sums_single`."""
    k = sums.shape[0]
    sums -= flat_sums_single(x, frm, k)
    sums += flat_sums_single(x, to, k)
    counts -= np.bincount(frm, minlength=k)
    counts += np.bincount(to, minlength=k)


def build_task_blocks_loop(
    n_rows: int,
    d: int,
    machine: SimMachine,
    *,
    dist_per_row: np.ndarray | None = None,
    needs_data: np.ndarray | None = None,
    task_rows: int = 8192,
    itemsize: int = 8,
    state_bytes_per_row: int = 12,
) -> list[TaskWork]:
    """The per-block loop formulation of ``build_task_blocks``."""
    if n_rows <= 0:
        raise SchedulerError(f"n_rows must be positive, got {n_rows}")
    if task_rows <= 0:
        raise SchedulerError(f"task_rows must be positive, got {task_rows}")
    if dist_per_row is None:
        raise SchedulerError(
            "dist_per_row is required: pass k per row for unpruned runs"
        )
    dist_per_row = np.asarray(dist_per_row)
    if dist_per_row.shape != (n_rows,):
        raise SchedulerError(
            f"dist_per_row shape {dist_per_row.shape} != ({n_rows},)"
        )
    if needs_data is None:
        needs_data_arr = np.ones(n_rows, dtype=bool)
    else:
        needs_data_arr = np.asarray(needs_data, dtype=bool)
        if needs_data_arr.shape != (n_rows,):
            raise SchedulerError(
                f"needs_data shape {needs_data_arr.shape} != ({n_rows},)"
            )

    row_bytes = d * itemsize
    tasks: list[TaskWork] = []
    n_tasks = -(-n_rows // task_rows)
    for block in range(n_tasks):
        start = block * task_rows
        stop = min(start + task_rows, n_rows)
        rows = stop - start
        n_dist = int(dist_per_row[start:stop].sum())
        data_rows = int(needs_data_arr[start:stop].sum())
        # Home node: where this block's slice of the dataset lives.
        frac = start / n_rows
        if machine.bind_policy is BindPolicy.OBLIVIOUS:
            home = 0
        else:
            owner = min(int(frac * machine.n_threads), machine.n_threads - 1)
            home = machine.threads[owner].node
        tasks.append(
            TaskWork(
                task_id=block,
                n_rows=rows,
                n_dist=n_dist,
                data_bytes=data_rows * row_bytes,
                state_bytes=rows * state_bytes_per_row,
                home_node=home,
            )
        )
    return tasks
