"""Mini-batch k-means (Sculley, WWW 2010 -- "Sophia-ML" in the paper).

The Related Work section positions mini-batch k-means as the
approximate competitor: it samples a batch per step and applies
per-center learning-rate updates, trading cluster quality for speed.
The paper deliberately avoids approximations; we implement the
algorithm anyway so the quality-vs-speed trade-off the paper alludes to
can be measured (see the ablation bench), and as the first entry of the
Section 9 algorithm-suite extension.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import RunResult
from repro.runtime.mm import run_mm_inmemory


def minibatch_update(
    centroids: np.ndarray,
    counts: np.ndarray,
    batch: np.ndarray,
    assign: np.ndarray,
) -> None:
    """Fold one assigned batch into ``centroids`` in place with
    Sculley's per-center learning rates (``eta = 1 / count_seen``).

    Bit-identical to the reference per-row loop (frozen as
    ``minibatch_update`` in ``tests/oracles.py``): the recurrence is
    order-dependent *within* a center but centers never interact, so
    pass ``r`` applies every center's ``r``-th batch member
    simultaneously. A stable argsort keeps each center's members in
    batch order, and the flat bincount/rank-within-group indexing is
    the same idiom as the PR 3 accumulation kernels. The Python-level
    loop shrinks from ``len(batch)`` iterations to the largest
    per-center member count (roughly ``batch/k`` on balanced data).
    When no center repeats in the batch -- always for one row, the
    serving plane's common fold -- that is one pass with nothing to
    group, applied directly.
    """
    k = counts.shape[0]
    assign = np.asarray(assign, dtype=np.int64)
    m = assign.size
    if m == 0:
        return
    if m <= k and (m == 1 or len(set(assign.tolist())) == m):
        seen = counts[assign] + 1
        counts[assign] = seen
        eta = (1.0 / seen)[:, None]
        centroids[assign] = (1.0 - eta) * centroids[assign] + eta * batch
        return
    order = np.argsort(assign, kind="stable")
    grouped = assign[order]
    sizes = np.bincount(grouped, minlength=k)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    rank = np.arange(assign.size, dtype=np.int64) - starts[grouped]
    for r in range(int(sizes.max())):
        sel = rank == r
        centers = grouped[sel]
        rows = batch[order[sel]]
        counts[centers] += 1
        eta = 1.0 / counts[centers]
        centroids[centers] = (
            (1.0 - eta)[:, None] * centroids[centers]
            + eta[:, None] * rows
        )


def minibatch_kmeans(
    x: np.ndarray,
    k: int,
    *,
    batch_size: int = 1024,
    n_steps: int = 100,
    init: str | np.ndarray = "random",
    seed: int = 0,
) -> RunResult:
    """Cluster with mini-batch SGD updates: the serving plane's
    :class:`~repro.serve.MiniBatchMM` on the in-memory substrate.

    Per step: sample ``batch_size`` rows, assign them to their nearest
    centroid, and move each chosen centroid toward the batch members
    with a per-center learning rate ``1 / count_seen`` (Sculley's
    algorithm 1).
    """
    # Imported here: repro.serve.ingest imports this module.
    from repro.serve.ingest import MiniBatchMM

    return run_mm_inmemory(
        MiniBatchMM(x, k, batch_size=batch_size, n_steps=n_steps,
                    init=init, seed=seed)
    )
