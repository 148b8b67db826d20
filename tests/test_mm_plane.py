"""The MM algorithm plane: cross-backend bit-identity and legacy pins.

The clusterNOR generalization's acceptance contract, in three parts:

* every registered MM algorithm yields **bit-identical** models,
  assignments and iteration counts across the InMemory / Sem /
  Distributed backends for the same seed;
* ``KmeansMM`` replays classic ``knori`` (the extensions' standalone
  entry points *are* their MM classes run in memory; their results
  are pinned by ``tests/test_driver_golden.py``);
* the satellite edges ride along: the yinyang k<10 single-group clamp
  and empty-group drop both stay exact vs plain Lloyd's, and every
  algorithm rejects bad input with the loader's typed errors.

The generic contract itself is pinned too: a hand-written
:class:`MMAlgorithm` is priced by the work it reports, stops at its
iteration cap, and has malformed per-row statistics rejected typed on
every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConvergenceCriteria, knord, knori, knors, lloyd
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
    spherical_kmeans,
    yinyang_init,
    yinyang_kmeans,
)
from repro.extensions.gmm import GmmMM
from repro.runtime.mm import (
    KmeansMM,
    MMAlgorithm,
    MMStep,
    run_mm,
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
        """Unpruned partial sums are partition-order sensitive: with one
        partial per thread (``n_partitions=T``) MM k-means is knori-
        bit for bit; the default single partition agrees to rounding
        with identical assignments."""
        ref = knori(mmdata, K, pruning=None, seed=SEED, criteria=CRIT)
        res = run_mm_inmemory(
            KmeansMM(mmdata, K, pruning=None, seed=SEED, criteria=CRIT,
                     n_partitions=ref.params["T"])
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.inertia == ref.inertia
        assert res.records == ref.records
        assert res.memory_breakdown == ref.memory_breakdown
        one = run_mm_inmemory(
            KmeansMM(mmdata, K, pruning=None, seed=SEED, criteria=CRIT)
        )
        np.testing.assert_array_equal(one.assignment, ref.assignment)
        np.testing.assert_allclose(
            one.centroids, ref.centroids, rtol=0, atol=1e-10
        )
        assert one.iterations == ref.iterations
        assert one.sim_seconds == ref.sim_seconds

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
            KmeansMM(mmdata, 5, init=c0, pruning=pruning,
                     n_partitions=ref.params["T"]),
            **caches,
        )
        np.testing.assert_array_equal(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.memory_breakdown == ref.memory_breakdown
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


KMEANS_ENTRY_POINTS = {
    "knori": lambda x, k: knori(x, k, criteria=CRIT),
    "knors": lambda x, k: knors(x, k, criteria=CRIT),
    "knord": lambda x, k: knord(x, k, criteria=CRIT, n_machines=2),
    "run_algorithm": lambda x, k: run_algorithm(
        "kmeans", x, k, algorithm_kwargs={"criteria": CRIT}
    ),
}


class TestKmeansMMGuards:
    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, True])
    @pytest.mark.parametrize("entry", sorted(KMEANS_ENTRY_POINTS))
    def test_non_integer_k_is_config_error(self, mmdata, entry, k):
        with pytest.raises(ConfigError, match=r"k=") as info:
            KMEANS_ENTRY_POINTS[entry](mmdata, k)
        assert repr(k) in str(info.value)

    @pytest.mark.parametrize("entry", sorted(KMEANS_ENTRY_POINTS))
    def test_numpy_integer_k_accepted(self, mmdata, entry):
        run = KMEANS_ENTRY_POINTS[entry]
        ref = run(mmdata, 3)
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            res = run(mmdata, k)
            assert res.params["k"] == 3
            np.testing.assert_array_equal(res.centroids, ref.centroids)

    @pytest.mark.parametrize("entry", ["knori", "knors", "mm"])
    def test_unpruned_run_makes_no_extra_pass_over_x(
        self, mmdata, monkeypatch, entry
    ):
        """The unpruned MM payload is the iteration's own funnel-merged
        sums: no per-iteration ``cluster_sums`` bincount over x."""
        import repro.core.centroids as centroids

        calls = []
        real = centroids.cluster_sums

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(centroids, "cluster_sums", counting)
        if entry == "knori":
            knori(mmdata, K, pruning=None, criteria=CRIT)
        elif entry == "knors":
            knors(mmdata, K, pruning=None, criteria=CRIT)
        else:
            run_mm_inmemory(KmeansMM(mmdata, K, pruning=None,
                                     criteria=CRIT))
        assert calls == []

    def test_knors_keeps_float32_file_view(
        self, mmdata, tmp_path, monkeypatch
    ):
        """knors hands KmeansMM the memmap row view as-is: no float64
        copy of the matrix lives for the run."""
        import importlib

        # The package re-exports the function under the module's name.
        knors_mod = importlib.import_module("repro.drivers.knors")
        path = tmp_path / "f32.knor"
        write_matrix(path, mmdata.astype(np.float32))
        views, algs = [], []
        real_resolve = knors_mod.resolve_row_data
        real_init = KmeansMM.__init__

        def resolve(data):
            out = real_resolve(data)
            views.append(out[0])
            return out

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            algs.append(self)

        monkeypatch.setattr(knors_mod, "resolve_row_data", resolve)
        monkeypatch.setattr(KmeansMM, "__init__", init)
        knors(path, K, criteria=ConvergenceCriteria(max_iters=2))
        (view,), (alg,) = views, algs
        assert view.dtype == np.float32
        assert alg.x.dtype == np.float32
        assert np.shares_memory(alg.x, view)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestKmeansNonFiniteRows:
    """knori, knors and knord reject NaN/inf rows typed, naming the
    rows, from the iteration-0 distances (no pass of its own over the
    data); so do the kmeans++ and kmeans|| seedings."""

    @staticmethod
    def run(entry, x, tmp_path, **kwargs):
        if entry == "knori":
            return knori(x, K, criteria=CRIT, **kwargs)
        if entry == "knors":
            return knors(x, K, criteria=CRIT, **kwargs)
        path = write_matrix(tmp_path / "bad.knor", x.astype(np.float32))
        return knors(path, K, criteria=CRIT, **kwargs)

    @pytest.mark.parametrize("pruning", ["mti", "elkan", None])
    @pytest.mark.parametrize("entry", ["knori", "knors", "knors-file"])
    def test_rows_named(self, mmdata, tmp_path, entry, pruning):
        x = mmdata.copy()
        x[5, 0] = np.nan
        x[11, 2] = np.inf
        with pytest.raises(DatasetError, match=r"2 rows .* \(rows \[5, 11\]\)"):
            self.run(entry, x, tmp_path, pruning=pruning)

    @pytest.mark.parametrize("kernel", ["blocked", "gemm"])
    def test_negative_inf_and_many_rows(self, mmdata, kernel):
        x = mmdata.copy()
        x[:10, 1] = -np.inf
        with pytest.raises(DatasetError, match=r"10 rows .*\(\+2 more\)"):
            knori(x, K, criteria=CRIT, kernel=kernel)

    def test_bad_initial_centroid_names_only_bad_rows(self, mmdata):
        """With k = n the random init takes every row, so one centroid
        is the NaN row and every row's distance is NaN; the re-read
        names the one bad row only."""
        x = mmdata[:K].copy()
        x[3, 1] = np.nan
        with pytest.raises(DatasetError, match=r"1 rows .*\(rows \[3\]\)"):
            knori(x, K, criteria=CRIT)

    def test_non_finite_init_is_config_error(self, mmdata):
        c0 = mmdata[:K].copy()
        c0[[1, 4], 0] = np.inf
        with pytest.raises(ConfigError, match=r"init centroids \[1, 4\]"):
            knori(mmdata, K, init=c0, criteria=CRIT)

    @pytest.mark.parametrize("pruning", ["mti", None])
    def test_knord_names_global_rows(self, mmdata, pruning):
        """knord checks each shard's iteration-0 distances and names
        the bad row by its global id, here one in the second shard."""
        x = mmdata.copy()
        bad = x.shape[0] - 3
        x[bad, 1] = np.nan
        with pytest.raises(DatasetError, match=rf"1 rows .*\(rows \[{bad}\]\)"):
            knord(x, K, n_machines=2, criteria=CRIT, pruning=pruning)

    @pytest.mark.parametrize("pruning", ["mti", None])
    @pytest.mark.parametrize("entry", ["knord", "mpi_lloyd"])
    def test_distributed_names_every_shards_rows(self, entry, pruning):
        """A NaN row in the first shard and an overflowing row in the
        second: the iteration-0 check runs once every shard has
        stepped, so both are named, in knori's words."""
        from repro.baselines import mpi_lloyd

        x = np.random.default_rng(0).normal(size=(400, 4))
        x[3, 1] = np.nan
        x[390] = 1e200
        with pytest.raises(DatasetError) as want:
            knori(x, K, criteria=CRIT, pruning=pruning)
        assert "(rows [3])" in str(want.value)
        assert "(rows [390])" in str(want.value)
        driver = knord if entry == "knord" else mpi_lloyd
        with pytest.raises(DatasetError) as got:
            driver(x, K, n_machines=2, criteria=CRIT, pruning=pruning)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("init", ["kmeans++", "kmeans||"])
    def test_seeding_names_rows(self, mmdata, init):
        """Both seedings fail typed on a NaN/inf row, before the D^2
        draw can turn it into numpy's untyped ValueError."""
        x = mmdata.copy()
        x[5, 0] = np.nan
        x[11, 2] = np.inf
        with pytest.raises(DatasetError, match=r"2 rows .* \(rows \[5, 11\]\)"):
            knori(x, K, criteria=CRIT, init=init)

    @pytest.mark.parametrize("entry,pruning", [
        ("knori", "mti"), ("knori", "elkan"), ("knori", None),
        ("knors", "mti"), ("knors", None),
        ("knord", "mti"), ("knord", None),
    ])
    def test_overflowing_rows_named(self, mmdata, tmp_path, entry,
                                    pruning):
        """A row of finite cells whose squared norm overflows float64
        has an infinite distance, and once gave a NaN inertia with
        only RuntimeWarnings. It is named in the same error as a NaN
        row, by its global id (for knord, in the second shard)."""
        x = mmdata.copy()
        nan, big = x.shape[0] - 9, x.shape[0] - 5
        x[nan, 2] = np.nan
        x[big] = 1e200
        want = (rf"1 rows contain NaN/inf \(rows \[{nan}\]\); 1 rows have "
                rf"a squared norm that overflows float64 \(rows \[{big}\]\)")
        with pytest.raises(DatasetError, match=want):
            if entry == "knord":
                knord(x, K, n_machines=2, criteria=CRIT, pruning=pruning)
            else:
                self.run(entry, x, tmp_path, pruning=pruning)

    def test_overflowing_finite_row_is_named(self):
        """The re-read names a finite row whose squared norm overflows
        apart from a NaN/inf row, and clears a row that only looks bad
        (finite cells, finite norm)."""
        from repro.drivers.common import check_row_dist_finite

        x = np.array([[1.0, 2.0], [1e200, 0.0], [np.nan, 0.0]])
        with pytest.raises(DatasetError, match=(
            r"^t: 1 rows contain NaN/inf \(rows \[2\]\); 1 rows have a "
            r"squared norm that overflows float64 \(rows \[1\]\); clean"
        )):
            check_row_dist_finite(x, np.array([1.0, np.inf, np.nan]), "t")
        with pytest.raises(DatasetError, match=(
            r"^t: 1 rows have a squared norm that overflows float64 "
            r"\(rows \[1\]\); clean the data before fitting$"
        )):
            check_row_dist_finite(x[:2], np.array([1.0, np.inf]), "t")
        check_row_dist_finite(x[:1], np.array([np.inf]), "t")


class TestGmmPort:
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


def _short_kwargs(name):
    """Three-iteration constructor arguments for ``name``."""
    if name == "gmm":
        return {"seed": SEED, "max_iters": 3}
    return {"seed": SEED, "criteria": ConvergenceCriteria(max_iters=3)}


#: ``(x, k)`` inputs -> the error every registered algorithm raises
#: (``None``: the run succeeds with ``k == 3``).
XK_CASES = {
    "float-k": (lambda x: (x, 2.5), ConfigError),
    "bool-k": (lambda x: (x, True), ConfigError),
    "str-k": (lambda x: (x, "3"), ConfigError),
    "uint8-k": (lambda x: (x, np.uint8(3)), None),
    "int64-k": (lambda x: (x, np.int64(3)), None),
    "zero-k": (lambda x: (x, 0), ConvergenceError),
    "negative-k": (lambda x: (x, -2), ConvergenceError),
    "k-over-n": (lambda x: (x[:4], 5), DatasetError),
    "1-d-x": (lambda x: (x[:, 0], 2), DatasetError),
}


class TestInputContract:
    """One ``(x, k)`` contract and typed rejection of bad input, for
    every registered algorithm."""

    @pytest.mark.parametrize("case", sorted(XK_CASES))
    @pytest.mark.parametrize("name", sorted(MM_ALGORITHMS))
    def test_x_k_contract(self, mmdata, mmlabels, name, case):
        make, error = XK_CASES[case]
        x, k = make(mmdata)
        labels = None
        if name == "semisupervised":  # classes {0, 1}: valid for k >= 2
            labels = np.where(mmlabels >= 0, mmlabels % 2, -1)
            labels = labels[: x.shape[0]]

        def run():
            return run_algorithm(name, x, k, labels=labels,
                                 algorithm_kwargs=_short_kwargs(name))

        if error is None:
            assert run().params["k"] == 3
        else:
            with pytest.raises(error):
                run()

    @pytest.mark.parametrize("t", [2.5, True, "2"])
    def test_non_integer_t_is_config_error(self, mmdata, t):
        with pytest.raises(ConfigError, match=r"t="):
            yinyang_kmeans(mmdata, K, t=t)

    @pytest.mark.parametrize("name",
                             ["spherical", "semisupervised", "yinyang",
                              "minibatch"])
    def test_non_finite_rows_rejected_naming_rows(
        self, mmdata, mmlabels, name
    ):
        x = mmdata.copy()
        x[5, 0] = np.nan
        x[11, 2] = np.inf
        labels = mmlabels if name == "semisupervised" else None
        with pytest.raises(DatasetError, match=r"rows \[5, 11\]"):
            make_mm_algorithm(name, x, K, labels=labels)

    @pytest.mark.parametrize("bad", [-2, 0.5, np.nan, np.inf])
    def test_bad_labels_rejected_naming_rows(self, mmdata, mmlabels,
                                             bad):
        labels = mmlabels.astype(np.float64)
        labels[[7, 13]] = bad
        with pytest.raises(DatasetError, match=r"rows \[7, 13\]"):
            make_mm_algorithm("semisupervised", mmdata, K,
                              labels=labels)

    def test_integral_float_labels_accepted(self, mmdata, mmlabels):
        as_int = run_algorithm(
            "semisupervised", mmdata, K, labels=mmlabels,
            algorithm_kwargs=_short_kwargs("semisupervised"),
        )
        as_float = run_algorithm(
            "semisupervised", mmdata, K,
            labels=mmlabels.astype(np.float64),
            algorithm_kwargs=_short_kwargs("semisupervised"),
        )
        np.testing.assert_array_equal(as_int.centroids,
                                      as_float.centroids)

    @pytest.mark.parametrize("var_floor", [0.0, -1.0, np.nan])
    def test_gmm_var_floor_must_be_positive(self, var_floor):
        # A cluster of duplicate points: its variance collapses to the
        # floor, so a non-positive floor would divide by zero.
        rng = np.random.default_rng(0)
        x = np.vstack([np.zeros((50, 2)),
                       rng.normal(loc=5.0, size=(50, 2))])
        with pytest.raises(ConfigError, match="var_floor"):
            gmm_em(x, 2, seed=0, var_floor=var_floor)

    def test_spherical_init_shape_is_dataset_error(self, mmdata):
        with pytest.raises(DatasetError, match="init centroids shape"):
            spherical_kmeans(mmdata, K, init=np.ones((K + 1, 5)))


class TestSphericalPort:
    def test_rejects_zero_vectors(self):
        x = np.vstack([np.eye(3), np.zeros((1, 3))])
        with pytest.raises(DatasetError):
            make_mm_algorithm("spherical", x, 2)


class TestSemisupervisedPort:
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
    def test_pruning_counters_survive_the_port(self, mmdata):
        """The seeding pass computes every distance; the pruned passes
        report fewer, and their global-filter skips as clause 1."""
        res = run_mm_inmemory(
            make_mm_algorithm(
                "yinyang", mmdata, K, t=2, seed=SEED, criteria=CRIT
            )
        )
        full = mmdata.shape[0] * K
        assert res.records[0].dist_computations == full
        assert all(r.dist_computations < full for r in res.records[1:])
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

    @pytest.mark.parametrize("keyword", ["retry_policy", "autoscaler"])
    def test_dispatch_keeps_each_backends_keywords(self, mmdata, keyword):
        # The in-memory runner takes no retry policy or autoscaler;
        # dispatch by name must not drop one silently.
        with pytest.raises(TypeError, match=keyword):
            run_algorithm("gmm", mmdata, 3, **{keyword: object()})
        with pytest.raises(TypeError, match=keyword):
            run_mm(KmeansMM(mmdata, 3), "inmemory", **{keyword: object()})


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
