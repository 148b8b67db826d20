"""Later-phase extensions: GMM."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, DatasetError
from repro.extensions import gmm_em


@pytest.fixture(scope="module")
def two_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(loc=[0, 0], scale=0.6, size=(300, 2))
    b = rng.normal(loc=[6, 6], scale=0.6, size=(300, 2))
    x = np.vstack([a, b])
    true = np.repeat([0, 1], 300)
    perm = rng.permutation(600)
    return x[perm], true[perm]


class TestGmm:
    def test_recovers_mixture(self, two_blobs):
        x, true = two_blobs
        res = gmm_em(x, 2, seed=1)
        assert res.converged
        labels = res.assignment
        # Labels up to permutation.
        agree = max(
            (labels == true).mean(), (labels != true).mean()
        )
        assert agree > 0.99
        means = res.means[np.argsort(res.means[:, 0])]
        np.testing.assert_allclose(means[0], [0, 0], atol=0.2)
        np.testing.assert_allclose(means[1], [6, 6], atol=0.2)
        np.testing.assert_allclose(res.weights.sum(), 1.0)

    def test_log_likelihood_monotone(self, two_blobs):
        x, _ = two_blobs
        res = gmm_em(x, 3, seed=2)
        ll = np.array(res.ll_history)
        assert (np.diff(ll) >= -1e-9).all()

    def test_responsibilities_are_distributions(self, two_blobs):
        x, _ = two_blobs
        res = gmm_em(x, 4, seed=0, max_iters=10)
        np.testing.assert_allclose(
            res.responsibilities.sum(axis=1), 1.0, atol=1e-9
        )
        assert (res.responsibilities >= 0).all()

    def test_variance_floor_holds(self):
        x = np.vstack([np.zeros((50, 2)), np.ones((50, 2))])
        res = gmm_em(x, 2, seed=0, var_floor=1e-4)
        assert (res.variances >= 1e-4).all()

    def test_validation(self, two_blobs):
        x, _ = two_blobs
        with pytest.raises(ConvergenceError):
            gmm_em(x, 0)
        with pytest.raises(DatasetError):
            gmm_em(x, 2, init=np.zeros((3, 3)))
        with pytest.raises(DatasetError):
            gmm_em(np.zeros(5), 2)

