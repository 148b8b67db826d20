"""The serving plane's correctness/latency contract.

Four pinned properties:

* **Streaming == batch.** ``MiniBatchMM`` is bit-identical across
  backends (the ``minibatch_kmeans`` baseline is ``MiniBatchMM`` run in
  memory, pinned by ``tests/test_driver_golden.py``), and the
  vectorized ``minibatch_update`` is bit-identical to the frozen
  legacy per-row loop (same per-bucket summation order).
* **Serve == batch.** With no ingest traffic, serve-path assignments
  equal a batch ``nearest_centroid`` over the same rows -- across
  seeds, dtypes, and the k=1 / d=1 edges.
* **Latency is a pure function of the arrival seed.** Same seed =>
  byte-identical JSON rollup (p50/p99/p999 included); the percentile
  estimator is nearest-rank, no interpolation.
* **Caches shape time, never answers.** With the page cache off, cold
  queries charge SSD simulated time, and cache-on vs cache-off results
  are identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConvergenceCriteria
from repro.baselines.minibatch import minibatch_update
from repro.core.distance import nearest_centroid
from repro.errors import ConfigError, DatasetError
from repro.metrics import latency_percentiles
from tests import oracles as legacy
from repro.runtime import (
    RecordingObserver,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)
from repro.serve import MiniBatchMM, ServePlane
from repro.simhw import ArrivalProcess, ArrivalTrace, OpenLoopBatcher

K = 6
SEED = 3


@pytest.fixture(scope="module")
def served(blobs):
    """A fitted model over the shared blobs dataset, serving-ready."""
    x = np.ascontiguousarray(blobs)
    algo = MiniBatchMM(x, 4, batch_size=256, n_steps=12, seed=SEED)
    fit = run_mm_inmemory(algo)
    return x, fit, algo


class TestMinibatchUpdate:
    """Satellite: the vectorized Sculley fold vs the frozen loop."""

    @staticmethod
    def _fold_inputs(case):
        """``(k, d, assign, counts)`` of one fold: a seed draws a random
        batch (whose centers almost always repeat); a named case pins
        a shape the random draw rarely gives."""
        if isinstance(case, int):
            rng = np.random.default_rng(case)
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 6))
            m = int(rng.integers(1, 400))
            assign = rng.integers(0, k, size=m)
            counts = rng.integers(0, 7, size=k)
            return k, d, assign, counts, rng
        rng = np.random.default_rng(99)
        k, d = 8, 3
        counts = rng.integers(1, 7, size=k)
        assign = {
            "m1": [5],
            "distinct": rng.permutation(k)[:6],
            "all-distinct-m-eq-k": rng.permutation(k),
            "zero-counts": [7, 0, 3],
            "one-repeat": [1, 4, 6, 4, 0],
        }[case]
        if case == "zero-counts":
            counts = np.zeros(k)
        return k, d, np.asarray(assign), counts, rng

    @pytest.mark.parametrize(
        "case",
        [*range(6), "m1", "distinct", "all-distinct-m-eq-k",
         "zero-counts", "one-repeat"],
    )
    def test_bit_identical_to_legacy(self, case):
        k, d, assign, counts, rng = self._fold_inputs(case)
        batch = rng.normal(size=(assign.size, d))
        assign = assign.astype(np.int32)
        centroids = rng.normal(size=(k, d))
        counts = counts.astype(np.int64)
        c_new, n_new = centroids.copy(), counts.copy()
        c_old, n_old = centroids.copy(), counts.copy()
        minibatch_update(c_new, n_new, batch, assign)
        legacy.minibatch_update(c_old, n_old, batch, assign)
        np.testing.assert_array_equal(c_new, c_old)
        np.testing.assert_array_equal(n_new, n_old)

    def test_empty_batch_is_noop(self):
        c = np.ones((3, 2))
        n = np.zeros(3, dtype=np.int64)
        minibatch_update(
            c, n, np.empty((0, 2)), np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(c, np.ones((3, 2)))
        assert n.sum() == 0

    def test_single_center_takes_whole_batch(self):
        """k=1: every row folds into the one centroid, in order."""
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(50, 3))
        c_new = np.zeros((1, 3))
        c_old = np.zeros((1, 3))
        n_new = np.zeros(1, dtype=np.int64)
        n_old = np.zeros(1, dtype=np.int64)
        assign = np.zeros(50, dtype=np.int64)
        minibatch_update(c_new, n_new, batch, assign)
        legacy.minibatch_update(c_old, n_old, batch, assign)
        np.testing.assert_array_equal(c_new, c_old)
        assert n_new[0] == 50


class TestMiniBatchMM:
    """The streaming driver across backends."""

    def test_bit_identical_across_backends(self, blobs):
        def build():
            return MiniBatchMM(
                blobs, K, batch_size=200, n_steps=8, seed=SEED
            )

        ri = run_mm_inmemory(build())
        rs = run_mm_sem(build())
        rd = run_mm_distributed(build(), n_machines=4)
        for other in (rs, rd):
            np.testing.assert_array_equal(
                ri.centroids, other.centroids
            )
            np.testing.assert_array_equal(
                ri.assignment, other.assignment
            )
            assert other.iterations == ri.iterations
        assert rs.records[0].bytes_read > 0

    def test_sem_fetches_only_the_batch(self, blobs):
        """The streaming I/O shape: each step requests at most the
        sampled batch, not the dataset."""
        res = run_mm_sem(
            MiniBatchMM(blobs, K, batch_size=64, n_steps=6, seed=SEED),
            row_cache_bytes=0, page_cache_bytes=0,
        )
        row_bytes = blobs.shape[1] * 8
        for r in res.records:
            assert 0 < r.rows_active <= 64
            assert 0 < r.bytes_requested <= 64 * row_bytes

    def test_checkpoint_resume_bit_identical(self, blobs, tmp_path):
        """Acceptance: v4 checkpoint restore (RNG state included)
        resumes the sample stream mid-sequence, bit-identically."""
        def build(n_steps):
            return MiniBatchMM(
                blobs, K, batch_size=200, n_steps=n_steps, seed=SEED
            )

        full = run_mm_sem(build(12))
        ck = tmp_path / "ck"
        run_mm_sem(build(6), checkpoint_dir=ck, checkpoint_interval=3)
        resumed = run_mm_sem(
            build(12), checkpoint_dir=ck, checkpoint_interval=3,
            resume=True,
        )
        np.testing.assert_array_equal(
            full.centroids, resumed.centroids
        )
        np.testing.assert_array_equal(
            full.assignment, resumed.assignment
        )
        assert full.inertia == resumed.inertia

    def test_criteria_budget_matches_n_steps(self, blobs):
        """The generic CLI path (criteria=...) and the explicit
        n_steps spelling produce the same run."""
        a = run_mm_inmemory(
            MiniBatchMM(blobs, K, batch_size=200, n_steps=9, seed=SEED)
        )
        b = run_mm_inmemory(
            MiniBatchMM(
                blobs, K, batch_size=200, seed=SEED,
                criteria=ConvergenceCriteria(max_iters=9),
            )
        )
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.iterations == b.iterations == 9

    def test_reset_restores_the_sample_stream(self, blobs):
        algo = MiniBatchMM(
            blobs, K, batch_size=100, n_steps=5, seed=SEED
        )
        first = run_mm_inmemory(algo)
        algo.reset()
        second = run_mm_inmemory(algo)
        np.testing.assert_array_equal(
            first.centroids, second.centroids
        )

    def test_rejects_bad_config(self, blobs):
        with pytest.raises(DatasetError):
            MiniBatchMM(np.zeros(5), 2)
        with pytest.raises(DatasetError):
            MiniBatchMM(blobs[:3], 5)
        with pytest.raises(ConfigError):
            MiniBatchMM(blobs, K, batch_size=0)
        with pytest.raises(ConfigError):
            MiniBatchMM(blobs, K, n_steps=0)


class TestArrivalProcess:
    def test_same_seed_same_trace(self):
        a = ArrivalProcess(n_arrivals=500, seed=7).generate(100)
        b = ArrivalProcess(n_arrivals=500, seed=7).generate(100)
        np.testing.assert_array_equal(a.time_ns, b.time_ns)
        np.testing.assert_array_equal(a.row, b.row)
        np.testing.assert_array_equal(a.is_ingest, b.is_ingest)

    def test_ingest_fraction_leaves_times_and_rows_alone(self):
        """Flipping query traffic to mixed traffic must not perturb
        when arrivals land or which rows they touch."""
        q = ArrivalProcess(n_arrivals=500, seed=7).generate(100)
        m = ArrivalProcess(
            n_arrivals=500, seed=7, ingest_fraction=0.4
        ).generate(100)
        np.testing.assert_array_equal(q.time_ns, m.time_ns)
        np.testing.assert_array_equal(q.row, m.row)
        assert not q.is_ingest.any()
        assert 0 < m.is_ingest.sum() < 500

    def test_skew_concentrates_on_low_rows(self):
        flat = ArrivalProcess(
            n_arrivals=4000, seed=1, skew=1.0
        ).generate(1000)
        hot = ArrivalProcess(
            n_arrivals=4000, seed=1, skew=4.0
        ).generate(1000)
        assert hot.row.mean() < flat.row.mean()
        assert np.unique(hot.row).size < np.unique(flat.row).size

    def test_rows_in_range(self):
        t = ArrivalProcess(n_arrivals=2000, seed=2).generate(7)
        assert t.row.min() >= 0 and t.row.max() < 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArrivalProcess(n_arrivals=0)
        with pytest.raises(ConfigError):
            ArrivalProcess(n_arrivals=10, rate_qps=0)
        with pytest.raises(ConfigError):
            ArrivalProcess(n_arrivals=10, ingest_fraction=1.5)
        with pytest.raises(ConfigError):
            ArrivalProcess(n_arrivals=10, skew=0.0)


class TestOpenLoopBatcher:
    def test_single_arrival_latency(self):
        b = OpenLoopBatcher(
            np.array([100.0]), max_batch=8, window_ns=50.0
        )
        lo, hi, dispatch = b.next_batch()
        assert (lo, hi) == (0, 1)
        assert dispatch == 150.0
        done = b.complete(25.0)
        assert done == 175.0
        assert b.latency_ns[0] == 75.0  # window + service
        assert b.next_batch() is None

    def test_window_coalesces_concurrent_arrivals(self):
        times = np.array([0.0, 10.0, 20.0, 500.0])
        b = OpenLoopBatcher(times, max_batch=8, window_ns=50.0)
        lo, hi, _ = b.next_batch()
        assert (lo, hi) == (0, 3)  # 500 is past the window
        b.complete(5.0)
        lo, hi, _ = b.next_batch()
        assert (lo, hi) == (3, 4)

    def test_max_batch_caps_a_burst(self):
        times = np.zeros(10)
        b = OpenLoopBatcher(times, max_batch=4, window_ns=100.0)
        sizes = []
        while (batch := b.next_batch()) is not None:
            sizes.append(batch[1] - batch[0])
            b.complete(1.0)
        assert sizes == [4, 4, 2]

    def test_queueing_delay_carries_forward(self):
        """A slow batch delays the next arrival's start (open loop:
        the arrivals keep coming regardless)."""
        times = np.array([0.0, 10.0])
        b = OpenLoopBatcher(times, max_batch=1, window_ns=0.0)
        b.next_batch()
        b.complete(1000.0)  # finishes at t=1000
        _, _, dispatch = b.next_batch()
        assert dispatch == 1000.0  # not 10.0
        b.complete(10.0)
        assert b.latency_ns[1] == 1000.0

    def test_protocol_misuse_raises(self):
        b = OpenLoopBatcher(np.array([0.0]))
        with pytest.raises(ConfigError):
            b.complete(1.0)
        b.next_batch()
        with pytest.raises(ConfigError):
            b.next_batch()

    def test_validation(self):
        with pytest.raises(ConfigError):
            OpenLoopBatcher(np.array([2.0, 1.0]))
        with pytest.raises(ConfigError):
            OpenLoopBatcher(np.empty(0))
        for cap in (0, -1, np.nan, np.inf, 2.5, np.float64(3.5)):
            with pytest.raises(ConfigError, match="max_batch"):
                OpenLoopBatcher(np.array([0.0]), max_batch=cap)
        assert OpenLoopBatcher(
            np.array([0.0]), max_batch=np.int64(3)).max_batch == 3
        with pytest.raises(ConfigError, match="finite"):
            OpenLoopBatcher(np.array([0.0, np.nan, 2.0]))
        for window in (np.nan, np.inf, -1.0):
            with pytest.raises(ConfigError, match="window_ns"):
                OpenLoopBatcher(np.array([0.0]), window_ns=window)


class TestLatencyPercentiles:
    def test_nearest_rank_known_values(self):
        lat = np.arange(1, 1001, dtype=np.float64)
        p = latency_percentiles(lat)
        assert p == {"p50": 500.0, "p99": 990.0, "p999": 999.0}

    def test_every_value_is_observed(self):
        rng = np.random.default_rng(0)
        lat = rng.exponential(size=137)
        p = latency_percentiles(lat)
        assert set(p) == {"p50", "p99", "p999"}
        assert all(v in lat for v in p.values())

    def test_rejects_empty_and_bad_quantiles(self):
        with pytest.raises(ConfigError):
            latency_percentiles(np.empty(0))
        with pytest.raises(ConfigError):
            latency_percentiles(np.array([1.0]), quantiles=(0.0,))


class TestServeMatchesBatch:
    """Property sweep: the serve path is just nearest_centroid."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "k,d", [(1, 3), (5, 1), (7, 4)],
        ids=["k1", "d1", "k7d4"],
    )
    def test_assignments_equal_batch_path(self, seed, k, d):
        rng = np.random.default_rng(seed)
        x = np.ascontiguousarray(rng.normal(size=(300, d)))
        centroids = rng.normal(size=(k, d))
        plane = ServePlane(x, centroids)
        res = plane.serve(ArrivalProcess(
            n_arrivals=1200, rate_qps=300_000.0, seed=seed,
        ))
        batch_assign, _ = nearest_centroid(x, centroids)
        np.testing.assert_array_equal(
            res.assignments, batch_assign[res.rows]
        )
        assert res.n_ingested == 0
        assert res.n_queries == 1200

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_insensitive(self, dtype):
        """Both paths promote to float64; float32 input agrees."""
        rng = np.random.default_rng(5)
        x64 = rng.normal(size=(200, 3))
        x = np.ascontiguousarray(x64.astype(dtype))
        centroids = rng.normal(size=(4, 3))
        res = ServePlane(x, centroids).serve(
            ArrivalProcess(n_arrivals=600, rate_qps=300_000.0, seed=9)
        )
        expect, _ = nearest_centroid(
            np.asarray(x, dtype=np.float64), centroids
        )
        np.testing.assert_array_equal(
            res.assignments, expect[res.rows]
        )

    def test_ingest_continues_the_sculley_schedule(self, served):
        """Serving a mixed stream folds ingests with the same update
        the training driver uses: replaying the ingest arrivals
        through minibatch_update reproduces the served centroids."""
        x, fit, algo = served
        proc = ArrivalProcess(
            n_arrivals=800, rate_qps=300_000.0, seed=4,
            ingest_fraction=0.5,
        )
        plane = ServePlane(
            x, fit.centroids, counts=algo.counts.copy()
        )
        res = plane.serve(proc)
        assert res.n_ingested > 0

        # Replay: same batches, same fold, by hand.
        trace = proc.generate(x.shape[0])
        batcher = OpenLoopBatcher(
            trace.time_ns, max_batch=256, window_ns=50_000.0
        )
        centroids = fit.centroids.copy()
        counts = algo.counts.copy()
        while (b := batcher.next_batch()) is not None:
            lo, hi, _ = b
            rows = trace.row[lo:hi]
            ing = trace.is_ingest[lo:hi]
            assign, _ = nearest_centroid(x[rows], centroids)
            if ing.any():
                folded = centroids.copy()
                minibatch_update(
                    folded, counts, x[rows[ing]], assign[ing]
                )
                centroids = folded
            batcher.complete(0.0)
        np.testing.assert_array_equal(res.centroids, centroids)
        np.testing.assert_array_equal(res.counts, counts)


class TestLatencyDeterminism:
    """p50/p99/p999 are a pure function of the arrival seed."""

    def test_run_twice_identical_json(self, served):
        x, fit, _ = served
        proc = ArrivalProcess(
            n_arrivals=1500, rate_qps=200_000.0, seed=21, skew=2.5,
        )
        r1 = ServePlane(x, fit.centroids).serve(proc)
        r2 = ServePlane(x, fit.centroids).serve(proc)
        assert r1.to_dict() == r2.to_dict()
        np.testing.assert_array_equal(r1.latency_ns, r2.latency_ns)

    def test_percentiles_are_simulated_time(self, served):
        x, fit, _ = served
        res = ServePlane(x, fit.centroids).serve(
            ArrivalProcess(n_arrivals=1000, rate_qps=200_000.0, seed=1)
        )
        p = res.percentiles
        assert 0 < p["p50"] <= p["p99"] <= p["p999"]
        assert res.sim_seconds > 0

    def test_observer_sees_query_and_ingest_events(self, served):
        x, fit, algo = served
        rec = RecordingObserver()
        plane = ServePlane(
            x, fit.centroids, counts=algo.counts.copy(),
            observers=(rec,),
        )
        res = plane.serve(ArrivalProcess(
            n_arrivals=600, rate_qps=200_000.0, seed=2,
            ingest_fraction=0.3,
        ))
        names = rec.names()
        assert "query" in names and "ingest" in names
        queries = [e for e in rec.events if e.name == "query"]
        assert sum(e.payload["queries"] for e in queries) == (
            res.n_queries
        )
        ingests = [e for e in rec.events if e.name == "ingest"]
        assert sum(e.payload["rows"] for e in ingests) == (
            res.n_ingested
        )


class TestCacheBehavior:
    """Satellite: caches shape simulated time, never answers."""

    def _hot_proc(self, seed=13):
        # skew=6 hammers a handful of head rows.
        return ArrivalProcess(
            n_arrivals=2000, rate_qps=300_000.0, seed=seed, skew=6.0,
        )

    def test_cold_queries_charge_ssd_time(self, served):
        x, fit, _ = served
        cold = ServePlane(x, fit.centroids, page_cache_bytes=0)
        res = cold.serve(self._hot_proc())
        assert res.pages_from_ssd > 0
        assert res.io_service_ns > 0

    def test_cache_on_off_identical_answers(self, served):
        x, fit, _ = served
        proc = self._hot_proc()
        warm = ServePlane(x, fit.centroids).serve(proc)
        cold = ServePlane(x, fit.centroids, page_cache_bytes=0).serve(proc)
        np.testing.assert_array_equal(
            warm.assignments, cold.assignments
        )
        np.testing.assert_array_equal(warm.rows, cold.rows)
        # ... and the cold plane pays for it in simulated time.
        assert cold.io_service_ns >= warm.io_service_ns


class TestServeValidation:
    def test_rejects_shape_mismatch(self, served):
        x, fit, _ = served
        with pytest.raises(DatasetError):
            ServePlane(x, fit.centroids[:, :2])
        with pytest.raises(ConfigError):
            ServePlane(x, fit.centroids, counts=np.zeros(3))
        for cap in (0, -1, np.nan, np.inf, 2.5, np.float64(3.5)):
            with pytest.raises(ConfigError, match="max_batch"):
                ServePlane(x, fit.centroids, max_batch=cap)
        assert ServePlane(
            x, fit.centroids, max_batch=np.int32(40)).max_batch == 40

    @pytest.mark.parametrize("window", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_batch_window(self, served, window):
        x, fit, _ = served
        with pytest.raises(ConfigError, match="batch_window_ns"):
            ServePlane(x, fit.centroids, batch_window_ns=window)

    @pytest.mark.parametrize(
        "counts,match",
        [
            ([-1, 2, 3, 4], r"counts must be >= 0; entries \[0\]"),
            ([5, 2, -3, -4], r"entries \[2, 3\] are \[-3, -4\]"),
            ([1.5, 2.0, 3.0, 4.0], r"must be integers; entries \[0\]"),
            ([1.0, np.nan, 3.0, 4.0], r"must be integers; entries \[1\]"),
        ],
        ids=["negative", "two-negative", "fractional", "nan"],
    )
    def test_rejects_bad_counts(self, served, counts, match):
        """A negative count makes the first fold divide by zero; a
        fractional one would be truncated silently."""
        x, fit, _ = served
        with pytest.raises(ConfigError, match=match):
            ServePlane(x, fit.centroids, counts=np.array(counts))

    def test_accepts_integral_float_counts(self, served):
        x, fit, _ = served
        plane = ServePlane(x, fit.centroids, counts=[3.0, 0.0, 1.0, 2.0])
        assert plane.counts.dtype == np.int64
        assert plane.counts.tolist() == [3, 0, 1, 2]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_centroid(self, served, bad):
        x, fit, _ = served
        c = fit.centroids.copy()
        c[2, 1] = bad
        with pytest.raises(DatasetError, match=r"centroids: 1 rows .*\[2\]"):
            ServePlane(x, c)

    @staticmethod
    def _one_batch(rows, ingest):
        rows = np.asarray(rows)
        return ArrivalTrace(
            time_ns=np.zeros(rows.size), row=rows,
            is_ingest=np.asarray(ingest, dtype=bool),
        )

    @pytest.mark.parametrize("ingest", [False, True],
                             ids=["query", "ingest"])
    def test_rejects_nan_row(self, served, ingest):
        """A NaN row once answered cluster 0, and its ingest turned
        every centroid NaN; now the batch fails typed, naming the
        global row, before any fold."""
        x, fit, _ = served
        x = x.copy()
        x[37, 1] = np.nan
        plane = ServePlane(x, fit.centroids, counts=np.ones(4))
        before = plane.centroids.copy()
        trace = self._one_batch([3, 37, 8, 37], [ingest] * 4)
        with pytest.raises(DatasetError,
                           match=r"served rows: 1 rows .*\[37\]"):
            plane.serve(trace)
        np.testing.assert_array_equal(plane.centroids, before)
        assert plane.counts.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("ingest", [False, True],
                             ids=["query", "ingest"])
    def test_overflowing_finite_row_is_named(self, served, ingest):
        """A huge but finite row has an infinite distance (its squared
        norm overflows): the batch fails typed, naming the global row
        and why, before any fold."""
        x, fit, _ = served
        x = x.copy()
        x[11] = 1e200
        plane = ServePlane(x, fit.centroids, counts=np.ones(4))
        before = plane.centroids.copy()
        with pytest.raises(DatasetError, match=(
            r"served rows: 1 rows have a squared norm that overflows "
            r"float64 \(rows \[11\]\)"
        )), np.errstate(over="ignore", invalid="ignore"):
            plane.serve(self._one_batch([4, 11, 11], [ingest] * 3))
        np.testing.assert_array_equal(plane.centroids, before)
        assert plane.counts.tolist() == [1, 1, 1, 1]

    def test_rejects_out_of_range_rows(self, served):
        x, fit, _ = served
        plane = ServePlane(x, fit.centroids)
        bad = ArrivalTrace(
            time_ns=np.array([0.0]),
            row=np.array([len(x) + 5]),
            is_ingest=np.array([False]),
        )
        with pytest.raises(DatasetError):
            plane.serve(bad)

    @pytest.mark.parametrize(
        "field,kw",
        [
            ("row", {"row": np.array([1, 2])}),
            ("is_ingest", {"is_ingest": np.array([False])}),
            ("row", {"row": np.array([1.0, 2.0, 3.0])}),
            ("time_ns", {"time_ns": np.array([0.0, np.nan, 2.0])}),
        ],
        ids=["short-row", "short-is_ingest", "float-row", "nan-time"],
    )
    def test_malformed_trace_fails_typed(self, served, field, kw):
        x, fit, _ = served
        plane = ServePlane(x, fit.centroids)
        good = {
            "time_ns": np.array([0.0, 1.0, 2.0]),
            "row": np.array([1, 2, 3]),
            "is_ingest": np.array([False, True, False]),
        }
        plane.serve(ArrivalTrace(**good))
        with pytest.raises(ConfigError, match=f"ArrivalTrace.{field}"):
            plane.serve(ArrivalTrace(**{**good, **kw}))


def _fresh_price(plane, scheduler, m):
    """One batch's compute price from scratch: fresh task blocks and a
    fresh scheduler through the plane's engine, no memo."""
    from repro.drivers.common import make_scheduler
    from repro.sched.blocks import auto_task_rows, build_task_blocks

    tasks = build_task_blocks(
        m, plane.d, plane.machine,
        dist_per_row=np.full(m, plane.k, dtype=np.int64),
        needs_data=np.ones(m, dtype=bool),
        task_rows=auto_task_rows(m, plane.machine.n_threads),
        state_bytes_per_row=4,
    )
    trace = plane.machine.engine.run(
        make_scheduler(scheduler), tasks, plane.machine.threads,
        d=plane.d, k=plane.k, reduction=False,
    )
    return float(trace.total_ns)


class TestComputePriceMemo:
    """Each batch size is priced once; the memo changes no figure."""

    @pytest.mark.parametrize("scheduler", ["numa_aware", "fifo", "static"])
    def test_memo_equals_fresh_price(self, served, scheduler):
        x, fit, _ = served
        plane = ServePlane(
            x, fit.centroids, scheduler=scheduler, n_threads=7,
            max_batch=40,
        )
        assert plane._compute_ns == {}
        sizes = np.random.default_rng(0).permutation(
            np.arange(1, plane.max_batch + 1)
        )
        for m in [*sizes.tolist(), *sizes.tolist()]:
            assert plane._price_compute(m) == _fresh_price(
                plane, scheduler, m
            )
        assert sorted(plane._compute_ns) == list(
            range(1, plane.max_batch + 1)
        )

    def test_memo_empty_after_init(self, served):
        x, fit, _ = served
        assert ServePlane(x, fit.centroids)._compute_ns == {}

    def test_serve_identical_without_memo(self, served):
        x, fit, algo = served

        class Unmemoised(ServePlane):
            def _price_compute(self, m):
                return _fresh_price(self, "fifo", m)

        proc = ArrivalProcess(
            n_arrivals=1200, rate_qps=300_000.0, seed=9,
            ingest_fraction=0.25,
        )
        kw = dict(counts=algo.counts.copy(), scheduler="fifo", n_threads=6)
        memo = ServePlane(x, fit.centroids, **kw)
        res = memo.serve(proc)
        ref = Unmemoised(x, fit.centroids, **kw).serve(proc)
        assert 1 < len(memo._compute_ns) < res.n_batches
        np.testing.assert_array_equal(res.latency_ns, ref.latency_ns)
        assert res.compute_ns == ref.compute_ns
        assert res.sim_seconds == ref.sim_seconds
        np.testing.assert_array_equal(res.assignments, ref.assignments)
