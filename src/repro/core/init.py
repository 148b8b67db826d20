"""Centroid initialization.

knor exposes the standard initializations: ``random`` (sample k data
points without replacement -- also called Forgy in some texts), a
random-partition scheme, and k-means++. We add scalable k-means||
(Bahmani et al.) as a Section 9 extension since it is the
initialization large-scale deployments actually use.

All methods are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import euclidean, nearest_centroid
from repro.errors import ConvergenceError, DatasetError


def _check(x: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DatasetError(f"data must be 2-D, got shape {x.shape}")
    if k < 1:
        raise ConvergenceError(f"k must be >= 1, got {k}")
    if k > x.shape[0]:
        raise ConvergenceError(
            f"k={k} exceeds the number of data points n={x.shape[0]}"
        )
    return x


def random_sample(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k distinct data points as the initial centroids."""
    idx = rng.choice(x.shape[0], size=k, replace=False)
    return x[np.sort(idx)].copy()


def random_partition(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Assign every point to a random cluster and take the means.

    Guarantees every cluster at least one member by seeding each with
    one distinct point before the random fill.
    """
    n, d = x.shape
    assign = rng.integers(0, k, size=n)
    seeds = rng.choice(n, size=k, replace=False)
    assign[seeds] = np.arange(k)
    sums = np.zeros((k, d))
    for dim in range(d):
        sums[:, dim] = np.bincount(assign, weights=x[:, dim], minlength=k)
    counts = np.bincount(assign, minlength=k)
    return sums / counts[:, None]


def kmeanspp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ (Arthur & Vassilvitskii): D^2-weighted seeding.

    A NaN/inf row is rejected with a :class:`DatasetError` naming it,
    read off the first ``d2`` (no pass of its own over ``x``).
    """
    from repro.drivers.common import check_row_dist_finite

    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    # Squared distance to the nearest chosen centroid so far.
    d2 = euclidean(x, centroids[:1])[:, 0] ** 2
    check_row_dist_finite(x, d2, "kmeans++")
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass at distance zero (duplicate points):
            # fall back to uniform choice among the rest.
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        new_d = euclidean(x, centroids[j : j + 1])[:, 0] ** 2
        np.minimum(d2, new_d, out=d2)
    return centroids


def kmeans_parallel(
    x: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    rounds: int = 5,
    oversample: float | None = None,
) -> np.ndarray:
    """Scalable k-means|| seeding (Bahmani et al., VLDB 2012).

    Oversamples ~``oversample`` candidates per round for ``rounds``
    rounds, then reclusters the weighted candidates down to k with
    k-means++. This is the initialization MLlib uses by default, so it
    also serves the framework comparators.
    """
    n = x.shape[0]
    ell = oversample if oversample is not None else 2.0 * k
    first = int(rng.integers(0, n))
    cand = [x[first]]
    d2 = euclidean(x, x[first : first + 1])[:, 0] ** 2
    for _ in range(rounds):
        total = d2.sum()
        if total <= 0:
            break
        probs = np.minimum(1.0, ell * d2 / total)
        picked = np.nonzero(rng.random(n) < probs)[0]
        if picked.size == 0:
            continue
        cand.extend(x[picked])
        new_d = euclidean(x, x[picked]).min(axis=1) ** 2
        np.minimum(d2, new_d, out=d2)
    cand_arr = np.unique(np.asarray(cand), axis=0)
    if cand_arr.shape[0] < k:
        # Rare on tiny inputs: top up with uniform samples.
        extra = rng.choice(n, size=k - cand_arr.shape[0], replace=False)
        cand_arr = np.vstack([cand_arr, x[extra]])
    # Weight candidates by how many points they own, then k-means++ on
    # the weighted candidate set (approximated by repeating the draw).
    assign, _ = nearest_centroid(x, cand_arr)
    weights = np.bincount(assign, minlength=cand_arr.shape[0]).astype(float)
    weights = np.maximum(weights, 1e-12)
    centroids = np.empty((k, x.shape[1]))
    probs = weights / weights.sum()
    centroids[0] = cand_arr[rng.choice(cand_arr.shape[0], p=probs)]
    cd2 = euclidean(cand_arr, centroids[:1])[:, 0] ** 2
    for j in range(1, k):
        w = cd2 * weights
        total = w.sum()
        if total <= 0:
            idx = int(rng.integers(0, cand_arr.shape[0]))
        else:
            idx = int(rng.choice(cand_arr.shape[0], p=w / total))
        centroids[j] = cand_arr[idx]
        new_d = euclidean(cand_arr, centroids[j : j + 1])[:, 0] ** 2
        np.minimum(cd2, new_d, out=cd2)
    return centroids


_METHODS = {
    "random": random_sample,
    "forgy": random_sample,  # alias: knor's "forgy" samples points
    "random_partition": random_partition,
    "kmeans++": kmeanspp,
    "kmeanspp": kmeanspp,
    "kmeans||": kmeans_parallel,
    "kmeans_parallel": kmeans_parallel,
}


def init_centroids(
    x: np.ndarray,
    k: int,
    method: str = "random",
    *,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Initialize k centroids with the named method.

    Parameters
    ----------
    method:
        One of ``random``/``forgy``, ``random_partition``,
        ``kmeans++``, ``kmeans||``.
    seed:
        Integer seed or a Generator; ``None`` draws fresh entropy.
    """
    x = _check(x, k)
    if method not in _METHODS:
        raise ConvergenceError(
            f"unknown init method {method!r}; choose from "
            f"{sorted(set(_METHODS))}"
        )
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    return np.ascontiguousarray(_METHODS[method](x, k, rng), dtype=np.float64)
