"""Kernel strategy equivalence: ``blocked`` vs ``gemm``.

The acceptance contract for the GEMM-formulated fast path:

* **Identical assignments, everywhere.** The gemm argmin runs over
  ``q = -2 X C^T + |c|^2`` -- ``|x|^2`` is constant per row and sqrt is
  monotone, so the winner never changes. Pinned per-kernel-call across
  seeds, magnitude scales, the k=1 / d=1 edges, ragged blocks and
  duplicate-centroid ties, and end-to-end through every driver,
  backend and plane.
* **ULP-bounded distances.** gemm adds ``|x|^2`` after ``|c|^2``
  where blocked adds it before; that single reassociation perturbs
  the squared distance by at most :data:`GEMM_ULP_BOUND` ulps of the
  ``|x|^2 + |c|^2`` magnitude (plus the winner-side clamp+sqrt
  rounding, two ulps of the squared distance itself).
* **``blocked`` stays the bit-identical reference**: byte-equal to
  the frozen pre-workspace legacy kernel, so selecting the default
  strategy changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConvergenceCriteria, knord, knori, lloyd
from repro.core.distance import (
    GEMM_ULP_BOUND,
    KERNEL_STRATEGIES,
    check_kernel,
    nearest_centroid,
    row_norms,
)
from repro.core.workspace import X_SQ_CACHE_SLOTS, DistanceWorkspace
from repro.drivers import knors
from repro.errors import ConfigError
from tests import oracles as legacy
from repro.runtime.mm import (
    KmeansMM,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)
from repro.serve import MiniBatchMM, ServePlane
from repro.simhw import ArrivalProcess

CRIT = ConvergenceCriteria(max_iters=25)


def _both(x, c, **kwargs):
    """One assignment pass per strategy over identical inputs."""
    ab, db = nearest_centroid(x, c, kernel="blocked", **kwargs)
    ag, dg = nearest_centroid(x, c, kernel="gemm", **kwargs)
    return ab, db, ag, dg


def _assert_ulp_equivalent(x, c, ab, db, ag, dg):
    """The pinned contract: same winners, squared distances within
    the documented reassociation bound."""
    np.testing.assert_array_equal(ab, ag)
    x_sq = row_norms(np.asarray(x, dtype=np.float64))
    c_sq = row_norms(np.asarray(c, dtype=np.float64))
    tol = GEMM_ULP_BOUND * np.spacing(x_sq + c_sq[ab]) + 2 * np.spacing(
        db**2
    )
    assert np.all(np.abs(db**2 - dg**2) <= tol)


class TestKernelValidation:
    """The ``kernel`` argument is typed-checked at every entry."""

    def test_strategies_tuple(self):
        assert KERNEL_STRATEGIES == ("blocked", "gemm")

    @pytest.mark.parametrize("kernel", KERNEL_STRATEGIES)
    def test_check_kernel_passthrough(self, kernel):
        assert check_kernel(kernel) == kernel

    def test_check_kernel_rejects(self):
        with pytest.raises(ConfigError, match="kernel"):
            check_kernel("simd")

    def test_workspace_rejects(self):
        with pytest.raises(ConfigError):
            DistanceWorkspace(3, 2, kernel="bogus")

    def test_nearest_centroid_rejects(self):
        x = np.zeros((4, 2))
        with pytest.raises(ConfigError):
            nearest_centroid(x, x[:2], kernel="bogus")

    def test_none_defers_to_workspace(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 4))
        c = rng.normal(size=(5, 4))
        ws = DistanceWorkspace(5, 4, kernel="gemm")
        a_ws, d_ws = nearest_centroid(x, c, workspace=ws)
        a_explicit, d_explicit = nearest_centroid(x, c, kernel="gemm")
        np.testing.assert_array_equal(a_ws, a_explicit)
        np.testing.assert_array_equal(d_ws, d_explicit)


class TestUlpEquivalence:
    """Kernel-call level: identical argmin, bounded distance delta."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_scales(self, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** float(rng.integers(-3, 4))
        x = rng.normal(scale=scale, size=(1500, 13))
        c = rng.normal(scale=scale, size=(37, 13))
        _assert_ulp_equivalent(x, c, *_both(x, c))

    def test_k_equals_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 6))
        c = rng.normal(size=(1, 6))
        ab, db, ag, dg = _both(x, c)
        assert np.all(ab == 0)
        _assert_ulp_equivalent(x, c, ab, db, ag, dg)

    def test_d_equals_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(400, 1))
        c = rng.normal(size=(7, 1))
        _assert_ulp_equivalent(x, c, *_both(x, c))

    def test_float32_origin_data(self):
        """Data quantized to float32 then widened: coarse values with
        exact float64 representations still agree."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 8)).astype(np.float32).astype(np.float64)
        c = rng.normal(size=(9, 8)).astype(np.float32).astype(np.float64)
        _assert_ulp_equivalent(x, c, *_both(x, c))

    def test_ragged_final_block(self):
        """block_rows that does not divide n: the short tail block
        goes through the same per-block path."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1000, 5))
        c = rng.normal(size=(6, 5))
        ab, db, ag, dg = _both(x, c, block_rows=96)  # 1000 = 10*96 + 40
        _assert_ulp_equivalent(x, c, ab, db, ag, dg)
        # Blocking never changes answers within a strategy either.
        a_full, d_full = nearest_centroid(x, c, kernel="gemm")
        np.testing.assert_array_equal(ag, a_full)
        np.testing.assert_array_equal(dg, d_full)

    def test_duplicate_centroid_ties(self):
        """Exact ties (duplicated centroids) produce bitwise-equal
        candidate columns under both strategies, so argmin's
        lowest-index rule picks the same winner."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(600, 4))
        base = rng.normal(size=(4, 4))
        c = np.vstack([base, base[::-1]])  # every centroid twice
        ab, db, ag, dg = _both(x, c)
        np.testing.assert_array_equal(ab, ag)
        assert ab.max() < 4  # ties broke toward the first copy
        _assert_ulp_equivalent(x, c, ab, db, ag, dg)

    def test_rows_on_centroids(self):
        """Near-cancellation (rows sitting on centroids) stays within
        the bound: the expanded form leaves only ulp-level residual,
        and the winner-side clamp keeps it non-negative."""
        rng = np.random.default_rng(6)
        c = rng.normal(size=(5, 3))
        x = np.repeat(c, 20, axis=0)
        ab, db, ag, dg = _both(x, c)
        _assert_ulp_equivalent(x, c, ab, db, ag, dg)
        assert np.all(dg < 1e-6) and np.all(dg >= 0.0)
        assert np.all(db < 1e-6) and np.all(db >= 0.0)

    def test_workspace_matches_workspace_free(self):
        """The cached neg2ct / |x|^2 operands are bit-identical to the
        inline ones, so the two gemm paths agree to the last bit."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(800, 9))
        c = rng.normal(size=(11, 9))
        ws = DistanceWorkspace(11, 9, kernel="gemm")
        a_ws, d_ws = nearest_centroid(x, c, workspace=ws)
        a_free, d_free = nearest_centroid(x, c, kernel="gemm")
        np.testing.assert_array_equal(a_ws, a_free)
        np.testing.assert_array_equal(d_ws, d_free)


class TestBlockedStaysReference:
    """Selecting ``blocked`` (or nothing) changes no bits."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_legacy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(700, 6))
        c = rng.normal(size=(8, 6))
        a_now, d_now = nearest_centroid(x, c, kernel="blocked")
        a_old, d_old = legacy.nearest_centroid(x, c)
        np.testing.assert_array_equal(a_now, a_old)
        np.testing.assert_array_equal(d_now, d_old)

    def test_default_is_blocked(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 3))
        c = rng.normal(size=(4, 3))
        a_default, d_default = nearest_centroid(x, c)
        a_blocked, d_blocked = nearest_centroid(x, c, kernel="blocked")
        np.testing.assert_array_equal(a_default, a_blocked)
        np.testing.assert_array_equal(d_default, d_blocked)
        assert DistanceWorkspace(4, 3).kernel == "blocked"


class TestWorkspaceGemmCaches:
    """The gemm-side workspace caches: |x|^2 per array, (-2 C)^T per
    centroid set."""

    def test_x_sq_identity_hit(self):
        ws = DistanceWorkspace(3, 5, kernel="gemm")
        x = np.random.default_rng(0).normal(size=(50, 5))
        first = ws.x_sq(x)
        assert ws.x_sq(x) is first
        np.testing.assert_array_equal(first, row_norms(x))

    def test_x_sq_fifo_eviction(self):
        ws = DistanceWorkspace(3, 5, kernel="gemm")
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(10, 5)) for _ in range(X_SQ_CACHE_SLOTS + 1)]
        norms = [ws.x_sq(a) for a in arrays]
        # Oldest entry evicted: a fresh call recomputes (new object).
        assert ws.x_sq(arrays[0]) is not norms[0]
        # Newest entries still cached.
        assert ws.x_sq(arrays[-1]) is norms[-1]

    def test_neg2ct_cached_and_invalidated(self):
        rng = np.random.default_rng(2)
        c1 = rng.normal(size=(4, 6))
        c2 = rng.normal(size=(4, 6))
        ws = DistanceWorkspace(4, 6, kernel="gemm")
        ws.ensure(c1)
        op = ws.neg2ct
        assert op.shape == (6, 4)
        np.testing.assert_array_equal(op, (c1 * -2.0).T)
        assert ws.neg2ct is op  # cached per centroid set
        ws.ensure(c2)
        np.testing.assert_array_equal(ws.neg2ct, (c2 * -2.0).T)


def _same_run(rb, rg):
    """Two RunResults that must agree on everything but kernel label."""
    np.testing.assert_array_equal(rb.assignment, rg.assignment)
    assert rb.iterations == rg.iterations
    assert rb.converged == rg.converged
    np.testing.assert_allclose(rb.centroids, rg.centroids, rtol=1e-12)


class TestEndToEnd:
    """gemm == blocked through every driver, backend and plane."""

    @pytest.mark.parametrize("pruning", ["mti", None])
    def test_knori(self, overlapping, pruning):
        rb = knori(overlapping, 6, pruning=pruning, seed=1, criteria=CRIT)
        rg = knori(overlapping, 6, pruning=pruning, seed=1, criteria=CRIT,
                   kernel="gemm")
        _same_run(rb, rg)
        assert rb.params["kernel"] == "blocked"
        assert rg.params["kernel"] == "gemm"

    def test_lloyd(self, overlapping):
        rb = lloyd(overlapping, 5, seed=2, criteria=CRIT)
        rg = lloyd(overlapping, 5, seed=2, criteria=CRIT, kernel="gemm")
        np.testing.assert_array_equal(rb.assignment, rg.assignment)
        assert rb.iterations == rg.iterations

    def test_knors(self, matrix_path):
        rb = knors(matrix_path, 4, seed=1, criteria=CRIT)
        rg = knors(matrix_path, 4, seed=1, criteria=CRIT, kernel="gemm")
        _same_run(rb, rg)
        # The I/O plane is kernel-blind: same bytes either way.
        assert rb.params["kernel"] == "blocked"
        assert rg.params["kernel"] == "gemm"

    def test_knord(self, overlapping):
        rb = knord(overlapping, 6, n_machines=4, seed=1, criteria=CRIT)
        rg = knord(overlapping, 6, n_machines=4, seed=1, criteria=CRIT,
                   kernel="gemm")
        _same_run(rb, rg)
        assert rg.params["kernel"] == "gemm"

    @pytest.mark.parametrize("runner", [
        run_mm_inmemory,
        run_mm_sem,
        lambda a: run_mm_distributed(a, n_machines=4),
    ], ids=["inmemory", "sem", "distributed"])
    def test_mm_kmeans(self, overlapping, runner):
        rb = runner(KmeansMM(overlapping, 6, seed=1, criteria=CRIT))
        rg = runner(KmeansMM(overlapping, 6, seed=1, criteria=CRIT,
                             kernel="gemm"))
        _same_run(rb, rg)
        assert rg.params["kernel"] == "gemm"

    def test_minibatch_mm(self, blobs):
        x = np.ascontiguousarray(blobs)
        rb = run_mm_inmemory(
            MiniBatchMM(x, 4, batch_size=128, n_steps=10, seed=3)
        )
        rg = run_mm_inmemory(
            MiniBatchMM(x, 4, batch_size=128, n_steps=10, seed=3,
                        kernel="gemm")
        )
        np.testing.assert_array_equal(rb.assignment, rg.assignment)
        np.testing.assert_allclose(rb.centroids, rg.centroids, rtol=1e-12)

    def test_serve_plane(self, blobs):
        x = np.ascontiguousarray(blobs)
        centroids = x[:4].copy()
        arrivals = ArrivalProcess(n_arrivals=300, seed=9)

        def run(kernel):
            plane = ServePlane(x, centroids, kernel=kernel)
            return plane.serve(arrivals)

        rb, rg = run("blocked"), run("gemm")
        np.testing.assert_array_equal(rb.assignments, rg.assignments)
        np.testing.assert_array_equal(rb.latency_ns, rg.latency_ns)
        assert rg.params["kernel"] == "gemm"
