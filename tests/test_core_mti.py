"""MTI pruning: exactness, safety, and pruning effectiveness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConvergenceCriteria,
    init_centroids,
    lloyd,
    mti_init,
    mti_iteration,
)
from repro.core.distance import euclidean
from repro.core.workspace import DistanceWorkspace
from repro.data import MatrixFile, read_matrix, write_matrix
from repro.errors import DatasetError


def run_mti(x, c0, max_iters=100):
    """Drive MTI to convergence; return (state, centroids, stats)."""
    state, res = mti_init(x, c0)
    prev, cur = c0, res.new_centroids
    computed = res.computed
    results = [res]
    for _ in range(max_iters - 1):
        r = mti_iteration(x, cur, prev, state)
        computed += r.computed
        results.append(r)
        prev, cur = cur, r.new_centroids
        if r.n_changed == 0:
            break
    return state, cur, computed, results


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_mti_matches_lloyd_exactly(overlapping, k):
    c0 = init_centroids(overlapping, k, "kmeans++", seed=1)
    ref = lloyd(
        overlapping, k, init=c0, criteria=ConvergenceCriteria(max_iters=100)
    )
    state, centroids, _, results = run_mti(overlapping, c0)
    np.testing.assert_array_equal(state.assignment, ref.assignment)
    np.testing.assert_allclose(centroids, ref.centroids, atol=1e-8)
    assert len(results) == ref.iterations


def test_mti_prunes_on_clustered_data(friendster_small):
    c0 = init_centroids(friendster_small, 8, "random", seed=2)
    ref = lloyd(friendster_small, 8, init=c0)
    _, _, computed, _ = run_mti(friendster_small, c0)
    full = ref.iterations * friendster_small.shape[0] * 8
    assert computed < 0.7 * full  # substantial pruning on natural clusters


def test_clause1_rows_grow_on_clustered_data(friendster_small):
    c0 = init_centroids(friendster_small, 8, "random", seed=2)
    _, _, _, results = run_mti(friendster_small, c0)
    fracs = [
        r.clause1_rows / friendster_small.shape[0] for r in results[1:]
    ]
    if len(fracs) >= 3:
        # Strongly rooted clusters: late iterations skip more rows than
        # early ones (the Figure 7 premise).
        assert fracs[-1] >= fracs[0]
        assert fracs[-1] > 0.5


def test_clause1_rows_need_no_data(overlapping):
    c0 = init_centroids(overlapping, 6, "random", seed=0)
    state, res = mti_init(overlapping, c0)
    r = mti_iteration(overlapping, res.new_centroids, c0, state)
    # needs_data is exactly the complement of clause-1 skips.
    assert int((~r.needs_data).sum()) == r.clause1_rows
    # Skipped rows performed zero distance computations.
    assert (r.dist_per_row[~r.needs_data] == 0).all()


def test_dist_per_row_sums_to_computed(overlapping):
    c0 = init_centroids(overlapping, 6, "random", seed=3)
    state, res = mti_init(overlapping, c0)
    prev, cur = c0, res.new_centroids
    for _ in range(5):
        r = mti_iteration(overlapping, cur, prev, state)
        assert int(r.dist_per_row.sum()) == r.computed
        prev, cur = cur, r.new_centroids
        if r.n_changed == 0:
            break


def test_pruning_safety(overlapping):
    """No pruned computation could have changed an assignment.

    After each MTI iteration, the claimed assignment must equal the
    brute-force nearest centroid under the *same* centroids.
    """
    c0 = init_centroids(overlapping, 7, "random", seed=5)
    state, res = mti_init(overlapping, c0)
    prev, cur = c0, res.new_centroids
    for _ in range(8):
        r = mti_iteration(overlapping, cur, prev, state)
        full = euclidean(overlapping, cur)
        best = full[np.arange(overlapping.shape[0]), state.assignment]
        # The assigned centroid achieves the true minimum distance
        # (ties allowed -- compare values, not indices).
        np.testing.assert_allclose(best, full.min(axis=1), atol=1e-9)
        prev, cur = cur, r.new_centroids
        if r.n_changed == 0:
            break


def test_upper_bounds_are_upper_bounds(overlapping):
    c0 = init_centroids(overlapping, 5, "random", seed=6)
    state, res = mti_init(overlapping, c0)
    prev, cur = c0, res.new_centroids
    for _ in range(6):
        r = mti_iteration(overlapping, cur, prev, state)
        true_dist = euclidean(overlapping, cur)[
            np.arange(overlapping.shape[0]), state.assignment
        ]
        assert (state.ub >= true_dist - 1e-9).all()
        prev, cur = cur, r.new_centroids
        if r.n_changed == 0:
            break


def test_incremental_sums_match_recompute(overlapping):
    c0 = init_centroids(overlapping, 6, "random", seed=7)
    state, res = mti_init(overlapping, c0)
    prev, cur = c0, res.new_centroids
    for _ in range(6):
        r = mti_iteration(overlapping, cur, prev, state)
        k = cur.shape[0]
        for c in range(k):
            members = overlapping[state.assignment == c]
            np.testing.assert_allclose(
                state.sums[c], members.sum(axis=0), atol=1e-6
            )
            assert state.counts[c] == members.shape[0]
        prev, cur = cur, r.new_centroids
        if r.n_changed == 0:
            break


def test_state_row_mismatch_raises(overlapping):
    c0 = init_centroids(overlapping, 3, "random", seed=0)
    state, res = mti_init(overlapping, c0)
    with pytest.raises(DatasetError):
        mti_iteration(overlapping[:10], res.new_centroids, c0, state)


def test_k_equals_one_trivially_converges(overlapping):
    c0 = init_centroids(overlapping, 1, "random", seed=0)
    state, _, computed, results = run_mti(overlapping, c0)
    assert (state.assignment == 0).all()
    # After the init pass, clause 1 skips every row.
    assert results[-1].clause1_rows == overlapping.shape[0]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(10, 80),
    k=st.integers(1, 6),
    d=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_mti_objective_matches_lloyd_random_instances(n, k, d, seed):
    """On arbitrary random instances MTI reaches the same objective.

    (Assignments may differ only on exact ties; the objective and the
    per-point assigned distances must match.)
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    k = min(k, n)
    c0 = init_centroids(x, k, "random", seed=seed)
    ref = lloyd(x, k, init=c0, criteria=ConvergenceCriteria(max_iters=60))
    state, centroids, _, _ = run_mti(x, c0, max_iters=60)
    ref_d = euclidean(x, ref.centroids)[
        np.arange(n), ref.assignment
    ]
    mti_d = euclidean(x, centroids)[np.arange(n), state.assignment]
    np.testing.assert_allclose(
        (mti_d**2).sum(), (ref_d**2).sum(), rtol=1e-7, atol=1e-9
    )


class TestMemmapView:
    """knors runs the kernel on ``MatrixFile.row_view()``: a memmap whose
    data starts at byte 28 of the file, so the view is unaligned."""

    N, D, K = 65536, 32, 16

    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        centers = rng.normal(scale=4.0, size=(self.K, self.D))
        x = centers[rng.integers(0, self.K, self.N)] + rng.normal(
            size=(self.N, self.D)
        )
        path = write_matrix(tmp_path_factory.mktemp("mti") / "m.knor", x)
        return path, x[rng.choice(self.N, self.K, replace=False)].copy()

    @staticmethod
    def _run(x, c0, kernel, iters=4):
        """mti_init plus ``iters`` iterations; each iteration's result
        and tracemalloc peak."""
        ws = None if kernel is None else DistanceWorkspace(
            *c0.shape, kernel=kernel
        )
        state, res = mti_init(x, c0, workspace=ws)
        prev, cur = c0, res.new_centroids
        out = []
        for _ in range(iters):
            tracemalloc.start()
            try:
                r = mti_iteration(x, cur, prev, state, workspace=ws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out.append((r, peak))
            prev, cur = cur, r.new_centroids
        return state, out

    @pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
    def test_view_matches_array_within_memory(self, matrix, kernel):
        path, c0 = matrix
        view = MatrixFile(path).row_view()
        assert not view.flags.aligned  # what keeps this test meaningful
        state_v, runs_v = self._run(view, c0, kernel)
        state_a, runs_a = self._run(read_matrix(path), c0, kernel)
        for name in ("assignment", "ub", "sums", "counts"):
            assert np.array_equal(
                getattr(state_v, name), getattr(state_a, name)
            ), name
        for (rv, _), (ra, _) in zip(runs_v, runs_a):
            for name in (
                "new_centroids", "dist_per_row", "needs_data", "motion",
            ):
                assert np.array_equal(getattr(rv, name), getattr(ra, name))
            assert rv.computed == ra.computed
            assert rv.n_changed == ra.n_changed
        # Gathering from the unaligned view must not copy the matrix:
        # every iteration stays below the matrix's own 16 MB.
        for r, peak in runs_v:
            assert r.tightened_rows > 0
            assert peak < view.nbytes, (peak, view.nbytes)
