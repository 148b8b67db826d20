"""Real serial k-means strategies for Table 3.

Table 3 compares knori's single-thread iteration time against MATLAB,
BLAS (both GEMM-formulated), R, Scikit-learn and MLpack (iterative).
The two *strategies* are what matters:

* **iterative/blocked** -- walk the data in cache-sized row blocks,
  computing distances block-by-block and keeping only running state
  (knori's approach, also R/sklearn/MLpack's inner loop);
* **GEMM** -- materialize the full n-by-k cross-product ``-2 X C^T``
  in one BLAS call and post-process (MATLAB's formulation), which
  costs an extra O(nk) intermediate and the memory traffic to fill it.

Both run here for real and are wall-clock timed at reproduction scale;
the Table 3 bench reports those times next to the paper's numbers and
the cost model's paper-scale extrapolation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.centroids import cluster_sums
from repro.core.distance import euclidean, nearest_centroid, row_norms
from repro.core.init import init_centroids
from repro.errors import DatasetError

#: Strategies :func:`time_serial_iteration` accepts.
SERIAL_STRATEGIES = ("iterative", "gemm")


def _gemm_assign(
    x: np.ndarray,
    c: np.ndarray,
    *,
    x_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot GEMM assignment: full (n, k) distance matrix at once.

    ``x_sq`` lets callers hoist the data row norms out of the loop --
    they are iteration-invariant, unlike the centroid norms.
    """
    dist = euclidean(x, c, x_sq=x_sq)  # whole matrix, no blocking
    assign = np.argmin(dist, axis=1).astype(np.int32)
    return assign, dist[np.arange(x.shape[0]), assign]


def time_serial_iteration(
    x: np.ndarray,
    k: int,
    strategy: str = "iterative",
    *,
    repeats: int = 3,
    seed: int = 0,
) -> float:
    """Median wall-clock seconds for one assignment+update iteration.

    The Table 3 measurement: fixed centroids, full distance
    computations ("for fairness all implementations perform all
    distance computations").
    """
    if strategy not in SERIAL_STRATEGIES:
        raise DatasetError(f"unknown strategy {strategy!r}")
    x = np.asarray(x, dtype=np.float64)
    centroids = init_centroids(x, k, "random", seed=seed)
    if strategy == "gemm":
        # Hoisted out of the timed loop: real GEMM deployments compute
        # the data norms once, so the measurement should too.
        x_sq = row_norms(x)

        def fn(xx, cc):
            return _gemm_assign(xx, cc, x_sq=x_sq)
    else:
        def fn(xx, cc):
            return nearest_centroid(xx, cc)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        assign, _ = fn(x, centroids)
        cluster_sums(x, assign, k)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
