"""Baselines: serial strategies, naive parallel, frameworks, MPI,
mini-batch."""

import numpy as np
import pytest

from repro import ConvergenceCriteria, knord, knori, lloyd
from repro.baselines import (
    FRAMEWORKS,
    framework_kmeans,
    minibatch_kmeans,
    mpi_lloyd,
    naive_parallel_lloyd,
    time_serial_iteration,
)
from repro.baselines.gemm import SERIAL_STRATEGIES, _gemm_assign
from repro.core import init_centroids, nearest_centroid
from repro.core.distance import row_norms
from repro.errors import ConfigError, DatasetError

CRIT = ConvergenceCriteria(max_iters=20)


class TestSerialStrategies:
    def test_time_serial_iteration_positive(self, overlapping):
        t_it = time_serial_iteration(overlapping, 5, "iterative")
        t_ge = time_serial_iteration(overlapping, 5, "gemm")
        assert t_it > 0 and t_ge > 0

    def test_unknown_strategy(self, overlapping):
        with pytest.raises(Exception):
            time_serial_iteration(overlapping, 5, "quantum")

    def test_unknown_strategy_typed_and_validated_first(self):
        """Satellite regression: the strategy check runs before any
        work -- with k too large to even initialize centroids, a bad
        strategy must still fail as DatasetError, never as the
        downstream init error."""
        tiny = np.zeros((2, 2))
        with pytest.raises(DatasetError, match="unknown strategy"):
            time_serial_iteration(tiny, 100, "quantum")

    def test_known_strategies_exported(self):
        assert SERIAL_STRATEGIES == ("iterative", "gemm")

    def test_gemm_assign_matches_nearest_centroid(self, overlapping):
        """Table 3's GEMM path, with the row norms hoisted as
        time_serial_iteration hoists them, assigns every row as the
        blocked kernel does."""
        x_sq = row_norms(overlapping)
        for seed in (1, 3):
            c = init_centroids(overlapping, 6, "random", seed=seed)
            got, _ = _gemm_assign(overlapping, c, x_sq=x_sq)
            want, _ = nearest_centroid(overlapping, c)
            np.testing.assert_array_equal(got, want)


class TestNaiveParallel:
    def test_matches_lloyd_numerics(self, overlapping):
        c0 = init_centroids(overlapping, 6, "random", seed=1)
        ref = lloyd(overlapping, 6, init=c0)
        res = naive_parallel_lloyd(overlapping, 6, init=c0)
        np.testing.assert_array_equal(res.assignment, ref.assignment)

    def test_slower_than_pll(self, friendster_small):
        naive = naive_parallel_lloyd(
            friendster_small, 8, seed=1, criteria=CRIT, n_threads=48
        )
        pll = knori(friendster_small, 8, pruning=None, seed=1,
                    criteria=CRIT, n_threads=48)
        assert naive.sim_seconds > pll.sim_seconds

    def test_lock_penalty_worsens_with_threads_over_k(self,
                                                      friendster_small):
        """The paper: interference worsens as T grows relative to k."""
        crit = ConvergenceCriteria(max_iters=5)
        t8 = naive_parallel_lloyd(friendster_small, 4, seed=1,
                                  criteria=crit, n_threads=8)
        t48 = naive_parallel_lloyd(friendster_small, 4, seed=1,
                                   criteria=crit, n_threads=48)
        # Per-row phase-II cost grows with contention, eating the
        # parallel speedup: 6x threads buys far less than 6x.
        assert t8.sim_seconds / t48.sim_seconds < 4.0


class TestFrameworks:
    def test_numerics_match_lloyd(self, overlapping):
        c0 = init_centroids(overlapping, 5, "random", seed=2)
        ref = lloyd(overlapping, 5, init=c0)
        for name in FRAMEWORKS:
            res = framework_kmeans(overlapping, 5, name, init=c0)
            np.testing.assert_array_equal(res.assignment, ref.assignment)

    def test_order_of_magnitude_gap(self, friendster_small):
        kn = knori(friendster_small, 8, pruning=None, seed=1,
                   criteria=CRIT)
        ml = framework_kmeans(friendster_small, 8, "mllib", seed=1,
                              criteria=CRIT)
        ratio = ml.sim_seconds / kn.sim_seconds
        assert ratio > 5.0  # "no less than an order of magnitude" at scale

    def test_turi_slowest(self, friendster_small):
        times = {
            name: framework_kmeans(
                friendster_small, 8, name, seed=1, criteria=CRIT
            ).sim_seconds
            for name in FRAMEWORKS
        }
        assert times["turi"] > times["mllib"] > times["h2o"]

    def test_memory_multipliers(self, overlapping):
        data = overlapping.size * 8
        ml = framework_kmeans(overlapping, 5, "mllib", seed=0,
                              criteria=CRIT)
        assert ml.memory_breakdown["framework_resident"] == int(8.0 * data)

    def test_distributed_mode_charges_network(self, overlapping):
        res = framework_kmeans(
            overlapping, 5, "mllib", n_machines=4, seed=0, criteria=CRIT
        )
        assert res.algorithm == "MLlib-EC2"
        assert all(r.network_bytes > 0 for r in res.records)

    def test_unknown_framework(self, overlapping):
        with pytest.raises(ConfigError):
            framework_kmeans(overlapping, 5, "sklearn")


class TestMpiPure:
    def test_matches_knord_numerics(self, overlapping):
        c0 = init_centroids(overlapping, 6, "random", seed=1)
        kd = knord(overlapping, 6, n_machines=2, init=c0)
        mp = mpi_lloyd(overlapping, 6, n_machines=2,
                       ranks_per_machine=4, init=c0)
        np.testing.assert_array_equal(mp.assignment, kd.assignment)
        assert mp.algorithm == "MPI"

    def test_knord_faster_at_scale(self):
        from repro.data import rand_multivariate

        x = rand_multivariate(100_000, 16, seed=3)
        crit = ConvergenceCriteria(max_iters=5)
        kd = knord(x, 8, n_machines=3, pruning=None, seed=1,
                   criteria=crit)
        mp = mpi_lloyd(x, 8, n_machines=3, pruning=None, seed=1,
                       criteria=crit)
        ratio = mp.sim_seconds / kd.sim_seconds
        assert ratio > 1.1  # paper: 20-50% knord advantage

    def test_pruning_variants(self, overlapping):
        crit = ConvergenceCriteria(max_iters=5)
        a = mpi_lloyd(overlapping, 4, n_machines=2, ranks_per_machine=4,
                      seed=0, criteria=crit)
        b = mpi_lloyd(overlapping, 4, n_machines=2, ranks_per_machine=4,
                      pruning=None, seed=0, criteria=crit)
        assert a.algorithm == "MPI"
        assert b.algorithm == "MPI-"
        assert a.total_dist_computations <= b.total_dist_computations

    def test_elkan_rejected(self, overlapping):
        with pytest.raises(ConfigError):
            mpi_lloyd(overlapping, 4, pruning="elkan",
                      ranks_per_machine=2)


class TestMinibatch:
    def test_runs_and_approximates(self, blobs):
        exact = lloyd(blobs, 4, init="kmeans++", seed=0)
        mb = minibatch_kmeans(blobs, 4, batch_size=256, n_steps=50,
                              init="kmeans++", seed=0)
        # Approximate but not wildly off on easy data.
        assert mb.inertia < 3.0 * exact.inertia

    def test_fewer_computations_than_exact(self, overlapping):
        mb = minibatch_kmeans(overlapping, 5, batch_size=100, n_steps=10)
        assert mb.total_dist_computations == 10 * 100 * 5

    def test_validation(self, blobs):
        with pytest.raises(ConfigError):
            minibatch_kmeans(blobs, 3, batch_size=0)
        with pytest.raises(ConfigError):
            minibatch_kmeans(blobs, 3, n_steps=0)
