"""One unpruned super-phase of ||Lloyd's (Algorithm 1).

The super-phase merges Lloyd's two phases: in a single pass each point
finds its nearest centroid *and* is accumulated into the executing
thread's private centroid copy. This module performs the exact numerics
of that pass for the whole dataset and reports the per-row statistics
the simulated-hardware engine needs (every row costs exactly ``k``
distance computations when pruning is off).

Per-thread accumulation is reproduced faithfully: the dataset is split
into the same per-thread partitions the engine schedules, each
partition accumulates into its own :class:`PartialCentroids`, and the
partials go through the funnel merge -- so the floating-point summation
order matches the parallel algorithm, not a single global sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.centroids import PartialCentroids, funnel_merge
from repro.core.distance import nearest_centroid
from repro.core.empty import (
    check_empty_cluster_policy,
    reseed_empty_clusters,
)
from repro.errors import DatasetError, EmptyClusterError
from repro.mem import current_manager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace


@dataclass
class FullIterationResult:
    """Exact outcome of one unpruned super-phase."""

    assignment: np.ndarray  # (n,) int32
    mindist: np.ndarray  # (n,) float64: distance to assigned centroid
    new_centroids: np.ndarray  # (k, d)
    n_changed: int
    dist_per_row: np.ndarray  # (n,) int32 -- always k here
    needs_data: np.ndarray  # (n,) bool -- always True here
    #: The funnel-merged per-cluster accumulators behind
    #: ``new_centroids`` (before any reseed).
    sums: np.ndarray  # (k, d) float64
    counts: np.ndarray  # (k,) int64
    #: Cluster ids revived by the ``reseed`` empty-cluster policy this
    #: iteration (empty unless the policy fired).
    reseeded: tuple[int, ...] = ()


def full_iteration(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_assignment: np.ndarray | None = None,
    *,
    n_partitions: int = 1,
    workspace: "DistanceWorkspace | None" = None,
    empty_cluster: str = "drop",
) -> FullIterationResult:
    """Run one super-phase with pruning disabled.

    Parameters
    ----------
    x, centroids:
        Data (n, d) and current centroids (k, d).
    prev_assignment:
        Last iteration's membership, for the changed-count; ``None``
        treats every point as changed (iteration 0).
    n_partitions:
        Number of per-thread partials to accumulate before the funnel
        merge (``T`` in Algorithm 1). Pure-numerics callers can leave
        it at 1; drivers pass the machine's thread count.
    workspace:
        Optional :class:`~repro.core.workspace.DistanceWorkspace`
        supplying cached centroid norms and reusable block buffers;
        results are bit-identical with or without it.
    empty_cluster:
        Policy when a cluster loses all members (see
        :mod:`repro.core.empty`): ``"drop"`` keeps the previous
        centroid (the historical behavior), ``"reseed"`` revives the
        cluster from the farthest point, ``"error"`` raises
        :class:`~repro.errors.EmptyClusterError`.
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = centroids.shape
    n = x.shape[0]
    if n_partitions < 1:
        raise DatasetError(f"n_partitions must be >= 1, got {n_partitions}")
    check_empty_cluster_policy(empty_cluster)

    assign, mindist = nearest_centroid(x, centroids, workspace=workspace)

    # Per-thread accumulation, partitioned exactly as Figure 1 carves
    # the dataset, then the funnel merge of MERGEPTSTRUCTS.
    scratch = None if workspace is None else workspace.accum
    mem = workspace.mem if workspace is not None else current_manager()
    bounds = np.linspace(0, n, n_partitions + 1, dtype=int)
    partials = []
    for t in range(n_partitions):
        lo, hi = bounds[t], bounds[t + 1]
        p = PartialCentroids.zeros(k, d, mem=mem)
        if hi > lo:
            p.accumulate(x[lo:hi], assign[lo:hi], scratch=scratch)
        partials.append(p)
    merged = funnel_merge(partials)
    # funnel_merge never aliases its inputs into the merged result, so
    # the per-thread blocks go straight back to the pool.
    for p in partials:
        p.release(mem)
    new_centroids = merged.finalize(centroids)

    reseeded: list[int] = []
    if empty_cluster != "drop" and not (merged.counts > 0).all():
        empty = np.nonzero(merged.counts == 0)[0]
        if empty_cluster == "error":
            raise EmptyClusterError(
                f"clusters {empty.tolist()} lost all members "
                f"(empty_cluster='error')"
            )
        new_centroids, assign, mindist, _, reseeded = (
            reseed_empty_clusters(
                x, new_centroids, assign, mindist, merged.counts
            )
        )

    if prev_assignment is None:
        n_changed = n
    else:
        n_changed = int(np.count_nonzero(assign != prev_assignment))

    return FullIterationResult(
        assignment=assign,
        mindist=mindist,
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=np.full(n, k, dtype=np.int32),
        needs_data=np.ones(n, dtype=bool),
        sums=merged.sums,
        counts=merged.counts,
        reseeded=tuple(reseeded),
    )
