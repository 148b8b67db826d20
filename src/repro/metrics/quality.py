"""Clustering quality metrics.

Downstream users of a k-means library need to *evaluate* clusterings,
not just produce them; these are the two standard internal indices
``--quality`` prints, implemented on the library's own distance kernel:
the silhouette coefficient (optionally subsampled -- it is O(n^2)) and
the Davies-Bouldin index.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import euclidean
from repro.errors import DatasetError


def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DatasetError(
            f"labels must be 1-D, got shape {labels.shape}"
        )
    return labels


def silhouette_score(
    x: np.ndarray,
    labels: np.ndarray,
    *,
    sample: int | None = 2000,
    seed: int = 0,
) -> float:
    """Mean silhouette coefficient, in [-1, 1].

    ``sample`` caps the points scored (distances to *all* points are
    still exact); ``None`` scores everything (O(n^2)).
    """
    x = np.asarray(x, dtype=np.float64)
    labels = _check_labels(labels)
    if x.shape[0] != labels.shape[0]:
        raise DatasetError("x and labels length mismatch")
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise DatasetError("silhouette needs at least 2 clusters")
    n = x.shape[0]
    idx = np.arange(n)
    if sample is not None and n > sample:
        idx = np.random.default_rng(seed).choice(
            n, size=sample, replace=False
        )
    dist = euclidean(x[idx], x)  # (m, n)
    scores = np.empty(idx.size)
    for pos, i in enumerate(idx):
        li = labels[i]
        row = dist[pos]
        same = labels == li
        n_same = same.sum()
        if n_same <= 1:
            scores[pos] = 0.0
            continue
        a = row[same].sum() / (n_same - 1)  # exclude self (distance 0)
        b = np.inf
        for lj in uniq:
            if lj == li:
                continue
            other = labels == lj
            b = min(b, row[other].mean())
        scores[pos] = (b - a) / max(a, b)
    return float(scores.mean())


def davies_bouldin_index(x: np.ndarray, labels: np.ndarray) -> float:
    """Davies-Bouldin: mean worst within/between spread ratio (lower
    is better, >= 0)."""
    x = np.asarray(x, dtype=np.float64)
    labels = _check_labels(labels)
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise DatasetError("Davies-Bouldin needs at least 2 clusters")
    centroids = np.vstack(
        [x[labels == c].mean(axis=0) for c in uniq]
    )
    spreads = np.array(
        [
            euclidean(x[labels == c], centroids[i : i + 1]).mean()
            for i, c in enumerate(uniq)
        ]
    )
    cdist = euclidean(centroids, centroids)
    k = uniq.size
    worst = np.zeros(k)
    for i in range(k):
        ratios = [
            (spreads[i] + spreads[j]) / cdist[i, j]
            for j in range(k)
            if j != i and cdist[i, j] > 0
        ]
        worst[i] = max(ratios) if ratios else 0.0
    return float(worst.mean())
