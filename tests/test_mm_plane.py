"""The MM algorithm plane: cross-backend bit-identity and legacy pins.

The clusterNOR generalization's acceptance contract, in three parts:

* every registered MM algorithm yields **bit-identical** models,
  assignments and iteration counts across the InMemory / Sem /
  Distributed backends for the same seed;
* each MM port replays its standalone extension loop **operation for
  operation** (pinned against :func:`gmm_em`,
  :func:`spherical_kmeans`, :func:`semisupervised_kmeanspp`,
  :func:`yinyang_kmeans`, and classic ``knori`` for k-means);
* the satellite edges ride along: the yinyang k<10 single-group clamp
  and empty-group drop both stay exact vs plain Lloyd's, and GMM input
  hygiene raises the loader's typed errors.

The generic contract itself is pinned too: a hand-written
:class:`MMAlgorithm` is priced by the work it reports, stops at its
iteration cap, and has malformed per-row statistics rejected typed on
every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConvergenceCriteria, knori, knors, lloyd
from repro.core.init import init_centroids
from repro.data import write_matrix
from repro.errors import (
    ConfigError,
    ConvergenceError,
    CorruptionError,
    DatasetError,
    IoSubsystemError,
    SchedulerError,
)
from repro.extensions import (
    MM_ALGORITHMS,
    gmm_em,
    make_mm_algorithm,
    run_algorithm,
    semisupervised_kmeanspp,
    spherical_kmeans,
    yinyang_init,
    yinyang_kmeans,
)
from repro.extensions.gmm import GmmMM
from repro.runtime.mm import (
    KmeansMM,
    MMAlgorithm,
    MMStep,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)
from repro.simhw import BindPolicy

K = 6
SEED = 3
CRIT = ConvergenceCriteria(max_iters=30)


@pytest.fixture(scope="module")
def mmdata():
    """Six moderately-separated clusters in 5-D."""
    rng = np.random.default_rng(17)
    centers = rng.normal(scale=4.0, size=(K, 5))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.2, size=(150, 5)) for c in centers]
    )
    rng.shuffle(x)
    return x


@pytest.fixture(scope="module")
def mmlabels(mmdata):
    """Sparse labels over mmdata for the semisupervised port."""
    n = mmdata.shape[0]
    labels = np.full(n, -1)
    labels[::40] = np.arange(n)[::40] % K
    return labels


def _algo_kwargs(name):
    if name == "gmm":
        return {"seed": SEED, "max_iters": 30}
    return {"seed": SEED, "criteria": CRIT}


def _trio(name, x, labels=None):
    """One run of algorithm ``name`` per backend, fresh instances."""
    def build():
        return make_mm_algorithm(
            name, x, K, labels=labels, **_algo_kwargs(name)
        )

    ri = run_mm_inmemory(build())
    rs = run_mm_sem(build())
    rd = run_mm_distributed(build(), n_machines=4)
    return ri, rs, rd


class TestCrossBackendIdentity:
    """Same seed => bit-identical model on every substrate."""

    @pytest.mark.parametrize("name", sorted(MM_ALGORITHMS))
    def test_bit_identical_across_backends(
        self, mmdata, mmlabels, name
    ):
        labels = mmlabels if name == "semisupervised" else None
        ri, rs, rd = _trio(name, mmdata, labels)
        for other in (rs, rd):
            np.testing.assert_array_equal(ri.centroids, other.centroids)
            np.testing.assert_array_equal(
                ri.assignment, other.assignment
            )
            assert other.iterations == ri.iterations
            assert other.converged == ri.converged
            assert other.inertia == ri.inertia

    @pytest.mark.parametrize("name", sorted(MM_ALGORITHMS))
    def test_substrate_counters_differ(self, mmdata, mmlabels, name):
        """The hardware plane stays substrate-specific: SEM reads
        bytes, distributed moves network traffic, in-memory neither."""
        labels = mmlabels if name == "semisupervised" else None
        ri, rs, rd = _trio(name, mmdata, labels)
        assert all(
            r.bytes_read == 0 and r.network_bytes == 0
            for r in ri.records
        )
        assert rs.records[0].bytes_read > 0
        assert all(
            r.network_bytes > 0 and r.allreduce_ns > 0
            for r in rd.records
        )


class TestKmeansPort:
    def test_mti_matches_classic_knori(self, mmdata):
        ref = knori(mmdata, K, pruning="mti", seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            KmeansMM(mmdata, K, pruning="mti", seed=SEED, criteria=CRIT)
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.iterations == ref.iterations
        assert res.inertia == ref.inertia
        # Identical work content -> identical simulated time.
        assert res.sim_seconds == ref.sim_seconds

    def test_matches_builtin_knori(self, overlapping):
        """A caller-supplied init gives the same model and sim time."""
        c0 = init_centroids(overlapping, 6, "random", seed=2)
        builtin = knori(overlapping, 6, init=c0)
        res = run_mm_inmemory(KmeansMM(overlapping, 6, init=c0))
        np.testing.assert_array_equal(
            res.assignment, builtin.assignment
        )
        np.testing.assert_allclose(
            res.centroids, builtin.centroids, atol=1e-10
        )
        assert res.converged
        assert res.iterations == builtin.iterations
        assert res.sim_seconds == pytest.approx(
            builtin.sim_seconds, rel=1e-9
        )

    def test_elkan_matches_classic_knori(self, mmdata):
        ref = knori(mmdata, K, pruning="elkan", seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            KmeansMM(mmdata, K, pruning="elkan", seed=SEED,
                     criteria=CRIT)
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.iterations == ref.iterations
        assert res.sim_seconds == ref.sim_seconds

    def test_unpruned_matches_knori_assignments(self, mmdata):
        """Unpruned partial sums are partition-order sensitive, so
        centroids agree to rounding; assignments stay identical."""
        ref = knori(mmdata, K, pruning=None, seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            KmeansMM(mmdata, K, pruning=None, seed=SEED, criteria=CRIT)
        )
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        np.testing.assert_allclose(
            res.centroids, ref.centroids, rtol=0, atol=1e-10
        )
        assert res.iterations == ref.iterations
        assert res.sim_seconds == ref.sim_seconds

    @pytest.mark.parametrize("pruning", ["mti", None])
    def test_sem_matches_classic_knors(self, mmdata, tmp_path, pruning):
        """Same work through the SEM stack: equal sim time and I/O."""
        path = tmp_path / "mm.knor"
        write_matrix(path, mmdata)
        c0 = init_centroids(mmdata, 5, "random", seed=1)
        data_bytes = mmdata.size * 8
        caches = {
            "row_cache_bytes": data_bytes // 32,
            "page_cache_bytes": data_bytes // 16,
        }
        ref = knors(path, 5, init=c0, pruning=pruning, **caches)
        res = run_mm_sem(
            KmeansMM(mmdata, 5, init=c0, pruning=pruning), **caches
        )
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.sim_seconds == ref.sim_seconds
        assert (
            sum(r.bytes_read for r in res.records)
            == ref.total_bytes_read
        )

    def test_pruning_modes_match_lloyd(self, overlapping):
        c0 = init_centroids(overlapping, 5, "random", seed=3)
        ref = lloyd(overlapping, 5, init=c0)
        for pruning in ("mti", "elkan", None):
            res = run_mm_inmemory(
                KmeansMM(overlapping, 5, pruning=pruning, init=c0)
            )
            np.testing.assert_array_equal(res.assignment, ref.assignment)

    def test_rejects_bad_shapes(self, mmdata):
        with pytest.raises(DatasetError):
            KmeansMM(np.zeros(7), 2)
        with pytest.raises(DatasetError):
            KmeansMM(mmdata[:3], 5)


class TestGmmPort:
    def test_matches_standalone_em(self, mmdata):
        ref = gmm_em(mmdata, K, seed=SEED, max_iters=30)
        res = run_mm_inmemory(
            GmmMM(mmdata, K, seed=SEED, max_iters=30)
        )
        np.testing.assert_array_equal(res.centroids, ref.means)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.iterations == ref.iterations
        assert res.converged == ref.converged
        assert res.params["log_likelihood"] == ref.log_likelihood

    def test_model_attributes_match(self, mmdata):
        ref = gmm_em(mmdata, K, seed=SEED, max_iters=10)
        alg = GmmMM(mmdata, K, seed=SEED, max_iters=10)
        run_mm_inmemory(alg)
        np.testing.assert_array_equal(alg.variances, ref.variances)
        np.testing.assert_array_equal(alg.weights, ref.weights)
        np.testing.assert_array_equal(alg.resp, ref.responsibilities)
        assert alg.ll_history == ref.ll_history

    def test_inmemory_prices_every_row(self, blobs):
        """EM on the NUMA substrate: converges, log-likelihood is
        monotone, the blobs are recovered, and every iteration is
        charged k Gaussian evaluations per row."""
        alg = GmmMM(blobs, 4, seed=1, max_iters=60)
        res = run_mm_inmemory(alg)
        assert res.converged
        assert (np.diff(alg.ll_history) >= -1e-9).all()
        sizes = np.sort(np.bincount(res.assignment, minlength=4))
        np.testing.assert_array_equal(sizes, [250, 250, 250, 250])
        n = blobs.shape[0]
        assert all(r.dist_computations == n * 4 for r in res.records)

    def test_sem_requests_every_row(self, overlapping):
        """EM has no pruning: every SEM iteration requests all rows."""
        res = run_mm_sem(GmmMM(overlapping, 3, seed=0, max_iters=15))
        assert res.iterations >= 2
        n = overlapping.shape[0]
        assert all(r.rows_active == n for r in res.records)


class TestGmmHygiene:
    """Satellite: GMM rejects bad input with the loader's typed
    errors, and the ConvergenceError path stays typed too."""

    @pytest.mark.parametrize("ctor", [gmm_em, GmmMM])
    def test_nan_rows_rejected_naming_rows(self, mmdata, ctor):
        x = mmdata.copy()
        x[5, 0] = np.nan
        x[11, 2] = np.inf
        with pytest.raises(DatasetError, match=r"rows \[5, 11\]"):
            ctor(x, 3)

    @pytest.mark.parametrize("ctor", [gmm_em, GmmMM])
    def test_many_bad_rows_truncated(self, mmdata, ctor):
        x = mmdata.copy()
        x[:10, 0] = np.nan
        with pytest.raises(DatasetError, match=r"\(\+2 more\)"):
            ctor(x, 3)

    @pytest.mark.parametrize("ctor", [gmm_em, GmmMM])
    def test_k_exceeding_n_is_dataset_error(self, mmdata, ctor):
        with pytest.raises(DatasetError):
            ctor(mmdata[:4], 5)

    @pytest.mark.parametrize("ctor", [gmm_em, GmmMM])
    def test_convergence_error_path(self, mmdata, ctor):
        with pytest.raises(ConvergenceError):
            ctor(mmdata, 0)
        with pytest.raises(ConvergenceError):
            ctor(mmdata, 2, max_iters=0)


class TestSphericalPort:
    def test_matches_standalone(self, mmdata):
        ref = spherical_kmeans(mmdata, K, seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            make_mm_algorithm(
                "spherical", mmdata, K, seed=SEED, criteria=CRIT
            )
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.iterations == ref.iterations
        assert res.inertia == ref.inertia

    def test_rejects_zero_vectors(self):
        x = np.vstack([np.eye(3), np.zeros((1, 3))])
        with pytest.raises(DatasetError):
            make_mm_algorithm("spherical", x, 2)


class TestSemisupervisedPort:
    def test_matches_standalone(self, mmdata, mmlabels):
        ref = semisupervised_kmeanspp(
            mmdata, K, mmlabels, seed=SEED, criteria=CRIT
        )
        res = run_mm_inmemory(
            make_mm_algorithm(
                "semisupervised", mmdata, K, labels=mmlabels,
                seed=SEED, criteria=CRIT,
            )
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.iterations == ref.iterations
        assert res.inertia == ref.inertia

    def test_labels_anchor(self, mmdata, mmlabels):
        res = run_mm_inmemory(
            make_mm_algorithm(
                "semisupervised", mmdata, K, labels=mmlabels,
                seed=SEED, criteria=CRIT,
            )
        )
        anchored = mmlabels >= 0
        np.testing.assert_array_equal(
            res.assignment[anchored], mmlabels[anchored]
        )


class TestYinyangPort:
    def test_matches_standalone(self, mmdata):
        ref = yinyang_kmeans(mmdata, K, t=2, seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            make_mm_algorithm(
                "yinyang", mmdata, K, t=2, seed=SEED, criteria=CRIT
            )
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.iterations == ref.iterations
        assert res.inertia == ref.inertia
        assert res.params["t"] == ref.params["t"] == 2

    def test_pruning_counters_survive_the_port(self, mmdata):
        ref = yinyang_kmeans(mmdata, K, t=2, seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            make_mm_algorithm(
                "yinyang", mmdata, K, t=2, seed=SEED, criteria=CRIT
            )
        )
        ref_by_it = {r.iteration: r for r in ref.records}
        for rec in res.records:
            assert (
                rec.dist_computations
                == ref_by_it[rec.iteration].dist_computations
            )
        assert any(r.clause1_rows > 0 for r in res.records)

    def test_sem_io_tracks_pruning(self, mmdata):
        """Globally-filtered rows issue no SSD requests: later SEM
        iterations read fewer bytes than the full first pass."""
        res = run_mm_sem(
            make_mm_algorithm(
                "yinyang", mmdata, K, t=2, seed=SEED, criteria=CRIT
            ),
            row_cache_bytes=0,
        )
        reads = [r.bytes_read for r in res.records]
        assert reads[0] > 0
        assert min(reads[1:]) < reads[0]


class TestYinyangEdges:
    """Satellite: the k<10 single-group clamp and the empty-group
    drop both preserve exactness vs plain Lloyd's."""

    def test_small_k_clamps_to_one_group(self, overlapping):
        c0 = init_centroids(overlapping, 5, "random", seed=2)
        crit = ConvergenceCriteria(max_iters=100)
        ref = lloyd(overlapping, 5, init=c0, criteria=crit)
        res = yinyang_kmeans(overlapping, 5, init=c0, criteria=crit)
        assert res.params["t"] == 1  # t = max(1, 5 // 10)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        np.testing.assert_allclose(
            res.centroids, ref.centroids, atol=1e-8
        )
        assert res.iterations == ref.iterations

    def test_empty_groups_dropped_stays_exact(self, overlapping):
        """Coincident far-away centroids collapse the centroid
        grouping (empty groups are dropped), and -- because those
        centroids never win a point -- the run stays exact vs
        Lloyd's."""
        near = init_centroids(overlapping, 10, "random", seed=2)
        far = np.full((4, overlapping.shape[1]), 1e3)
        c0 = np.vstack([near, far])  # k=14, only 11 distinct rows
        crit = ConvergenceCriteria(max_iters=100)

        state, _ = yinyang_init(overlapping, c0, t=13, seed=0)
        assert state.t < 13  # empty groups were dropped

        ref = lloyd(overlapping, 14, init=c0, criteria=crit)
        res = yinyang_kmeans(
            overlapping, 14, t=13, init=c0, criteria=crit
        )
        assert res.params["t"] == state.t
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        np.testing.assert_allclose(
            res.centroids, ref.centroids, atol=1e-8
        )
        assert res.iterations == ref.iterations


class _FixedWork:
    """A minimal hand-written MM algorithm: fixed per-row work.

    The first ``frac`` of the rows cost ten distance columns each and
    the rest are skipped; ``bad`` truncates one per-row statistic to
    exercise the backends' shape check.
    """

    name = "fixed-work"
    reduction_slots = 1
    state_bytes_per_row = 8

    def __init__(self, x, *, frac=1.0, stop_after=4, max_iters=100,
                 bad=None):
        self.x = x
        self.n_rows, self.d = x.shape
        self.frac = frac
        self.stop_after = stop_after
        self.max_iters = max_iters
        self.bad = bad
        self.reset()

    def reset(self):
        self.iteration = 0

    def majorize(self):
        needs = np.zeros(self.n_rows, dtype=bool)
        needs[: int(self.frac * self.n_rows)] = True
        units = np.where(needs, 10, 0).astype(np.int64)
        if self.bad == "dist_per_row":
            units = units[:3]
        if self.bad == "needs_data":
            needs = needs[:3]
        return MMStep(
            dist_per_row=units, needs_data=needs, n_changed=0,
            payload={"total": self.x.sum(axis=0)},
        )

    def minimize(self, payload):
        self.iteration += 1

    def converged(self):
        return (
            self.stop_after is not None
            and self.iteration >= self.stop_after
        )

    def export_state(self):
        return {"iteration": self.iteration}

    def restore_state(self, snap):
        self.iteration = int(snap["iteration"])

    @property
    def model_array(self):
        return self.x[:1]

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        return loop_result.as_run_result(
            algorithm=self.name,
            centroids=self.model_array,
            assignment=np.zeros(self.n_rows, dtype=np.int32),
            inertia=0.0,
            memory_breakdown=memory_breakdown,
            params=extra_params,
        )


class TestContract:
    """What any hand-written :class:`MMAlgorithm` gets from the plane."""

    def test_protocol_conformance(self, blobs):
        assert isinstance(KmeansMM(blobs, 3), MMAlgorithm)
        assert isinstance(GmmMM(blobs, 3), MMAlgorithm)
        assert isinstance(_FixedWork(blobs), MMAlgorithm)

    def test_bad_step_shapes_rejected(self, blobs):
        for bad in ("dist_per_row", "needs_data"):
            for run in (run_mm_inmemory, run_mm_sem, run_mm_distributed):
                with pytest.raises(SchedulerError, match=bad):
                    run(_FixedWork(blobs, bad=bad))

    def test_max_iters_respected(self, blobs):
        res = run_mm_inmemory(
            _FixedWork(blobs, stop_after=None, max_iters=3)
        )
        assert res.iterations == 3
        assert not res.converged

    def test_custom_sparse_algorithm_prices_skips(self, blobs):
        """A custom algorithm that skips most rows pays less."""
        dense = run_mm_inmemory(_FixedWork(blobs, frac=1.0))
        sparse = run_mm_inmemory(_FixedWork(blobs, frac=0.1))
        assert sparse.iterations == dense.iterations == 4
        assert sparse.sim_seconds < dense.sim_seconds

    def test_oblivious_policy_available(self, blobs):
        res = run_mm_inmemory(
            KmeansMM(blobs, 3, seed=0),
            bind_policy=BindPolicy.OBLIVIOUS,
        )
        assert res.iterations >= 1


class TestRegistry:
    def test_unknown_algorithm(self, mmdata):
        with pytest.raises(ConfigError):
            make_mm_algorithm("spectral", mmdata, 3)

    def test_semisupervised_requires_labels(self, mmdata):
        with pytest.raises(ConfigError):
            make_mm_algorithm("semisupervised", mmdata, 3)

    def test_labels_rejected_elsewhere(self, mmdata, mmlabels):
        with pytest.raises(ConfigError):
            make_mm_algorithm("gmm", mmdata, 3, labels=mmlabels)

    def test_unknown_backend(self, mmdata):
        with pytest.raises(ConfigError):
            run_algorithm("gmm", mmdata, 3, backend="quantum")

    def test_run_algorithm_dispatch(self, mmdata):
        res = run_algorithm(
            "spherical", mmdata, K, backend="distributed",
            algorithm_kwargs={"seed": SEED, "criteria": CRIT},
            n_machines=3,
        )
        ref = spherical_kmeans(mmdata, K, seed=SEED, criteria=CRIT)
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        assert res.params["backend"] == "distributed"


class TestMMCheckpointFormat:
    """Any MM algorithm's state in the one on-disk format."""

    def _state(self):
        from repro.sem.checkpoint import CheckpointState

        return CheckpointState(
            iteration=4,
            algorithm="gmm",
            arrays={
                "means": np.arange(6.0).reshape(2, 3),
                "weights": np.array([0.25, 0.75]),
            },
            scalars={"tol": 1e-6},
            n_changed=11,
            params={"k": 2},
        )

    def test_roundtrip(self, tmp_path):
        from repro.sem.checkpoint import load_checkpoint, save_checkpoint

        save_checkpoint(tmp_path, self._state())
        ckpt = load_checkpoint(tmp_path)
        assert ckpt.iteration == 4
        assert ckpt.algorithm == "gmm"
        assert ckpt.scalars == {"tol": 1e-6}
        np.testing.assert_array_equal(
            ckpt.arrays["means"], np.arange(6.0).reshape(2, 3)
        )

    def test_corruption_detected(self, tmp_path):
        from repro.sem.checkpoint import (
            corrupt_checkpoint,
            load_checkpoint,
            save_checkpoint,
        )

        save_checkpoint(tmp_path, self._state())
        corrupt_checkpoint(tmp_path)
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path)

    def test_gmm_checkpoint_rejected_by_knors_resume(self, mmdata, tmp_path):
        """One format, but the owning algorithm still gates a resume:
        knors refuses a GMM checkpoint typed, naming both."""
        run_mm_sem(
            GmmMM(mmdata, K, seed=SEED, max_iters=4),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=2,
        )
        with pytest.raises(IoSubsystemError, match="'gmm'.*'kmeans'"):
            knors(
                mmdata, K, seed=SEED,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_rejects_bad_array_names(self, tmp_path):
        from repro.sem.checkpoint import CheckpointState, save_checkpoint

        bad = CheckpointState(
            iteration=0, algorithm="x",
            arrays={"a/b": np.zeros(2)}, scalars={}, n_changed=0,
            params={},
        )
        with pytest.raises(IoSubsystemError):
            save_checkpoint(tmp_path, bad)
        empty = CheckpointState(
            iteration=0, algorithm="x", arrays={}, scalars={},
            n_changed=0, params={},
        )
        with pytest.raises(IoSubsystemError):
            save_checkpoint(tmp_path, empty)


class TestSemResume:
    def test_gmm_resume_from_checkpoint(self, mmdata, tmp_path):
        """Kill a SEM GMM run mid-way (iteration cap), resume from its
        checkpoint: the completed run is bit-identical to an
        uninterrupted one."""
        full = run_mm_sem(
            GmmMM(mmdata, K, seed=SEED, max_iters=12),
        )
        run_mm_sem(
            GmmMM(mmdata, K, seed=SEED, max_iters=6),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=3,
        )
        resumed = run_mm_sem(
            GmmMM(mmdata, K, seed=SEED, max_iters=12),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=3,
            resume=True,
        )
        np.testing.assert_array_equal(
            resumed.centroids, full.centroids
        )
        np.testing.assert_array_equal(
            resumed.assignment, full.assignment
        )
        assert resumed.iterations < full.iterations

    def test_algorithm_mismatch_rejected(self, mmdata, tmp_path):
        run_mm_sem(
            GmmMM(mmdata, K, seed=SEED, max_iters=4),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=2,
        )
        with pytest.raises(IoSubsystemError, match="gmm"):
            run_mm_sem(
                make_mm_algorithm(
                    "spherical", mmdata, K, seed=SEED, criteria=CRIT
                ),
                checkpoint_dir=tmp_path / "ck", resume=True,
            )
