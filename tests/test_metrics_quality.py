"""Clustering quality metrics: known values and invariances."""

import numpy as np
import pytest

from repro import lloyd
from repro.errors import DatasetError
from repro.metrics import davies_bouldin_index, silhouette_score


class TestSilhouette:
    def test_separated_blobs_near_one(self, blobs):
        res = lloyd(blobs, 4, init="kmeans++", seed=0)
        s = silhouette_score(blobs, res.assignment, sample=None)
        assert s > 0.8

    def test_bad_labels_score_lower(self, blobs):
        res = lloyd(blobs, 4, init="kmeans++", seed=0)
        good = silhouette_score(blobs, res.assignment)
        rng = np.random.default_rng(0)
        bad = silhouette_score(
            blobs, rng.integers(0, 4, blobs.shape[0])
        )
        assert good > bad
        assert abs(bad) < 0.2

    def test_sampling_close_to_exact(self, blobs):
        res = lloyd(blobs, 4, init="kmeans++", seed=0)
        exact = silhouette_score(blobs, res.assignment, sample=None)
        sampled = silhouette_score(
            blobs, res.assignment, sample=200, seed=1
        )
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_single_cluster_rejected(self, blobs):
        with pytest.raises(DatasetError):
            silhouette_score(blobs, np.zeros(blobs.shape[0], dtype=int))


class TestDaviesBouldin:
    def test_separated_better_than_random(self, blobs):
        res = lloyd(blobs, 4, init="kmeans++", seed=0)
        good = davies_bouldin_index(blobs, res.assignment)
        rng = np.random.default_rng(0)
        bad = davies_bouldin_index(
            blobs, rng.integers(0, 4, blobs.shape[0])
        )
        assert 0 <= good < bad

    def test_single_cluster_rejected(self, blobs):
        with pytest.raises(DatasetError):
            davies_bouldin_index(
                blobs, np.zeros(blobs.shape[0], dtype=int)
            )

