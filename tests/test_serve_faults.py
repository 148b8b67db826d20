"""Crash matrix for the serving plane.

Extends the MM crash-matrix pattern to the two serving paths:

* **Ingest** -- ``MiniBatchMM`` is SGD with a live RNG stream, the
  hardest state to recover: a worker crash mid-ingest must land on the
  bit-identical trajectory whether recovery replays from scratch or
  restores a v4 checkpoint (whose manifest carries the PCG64 state).
* **Query** -- an in-flight query batch hit by SSD read errors or a
  detected page corruption must re-fetch clean bytes and answer every
  query identically to the fault-free run; faults may only cost
  simulated time. Serving keeps no row cache, so the cache-line
  corruption site is covered through knors.

Run with ``pytest -m faults``.
"""

import numpy as np
import pytest

from repro import FaultPlan
from repro.faults import FaultEvent
from repro.runtime import (
    RecordingObserver,
    run_mm_inmemory,
    run_mm_sem,
)
from repro.serve import MiniBatchMM, ServePlane
from repro.simhw import ArrivalProcess

pytestmark = pytest.mark.faults

K = 5
SEED = 3
N_STEPS = 12
CRASH_ITERATIONS = (0, 2, 5)
KW = dict(row_cache_bytes=0, page_cache_bytes=0)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(23)
    centers = rng.normal(scale=3.0, size=(K, 4))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.4, size=(160, 4)) for c in centers]
    )
    rng.shuffle(x)
    return np.ascontiguousarray(x)


def ingest(dataset):
    """A fresh streaming driver -- MM algorithms carry state."""
    return MiniBatchMM(
        dataset, K, batch_size=128, n_steps=N_STEPS, seed=SEED
    )


def assert_matches(baseline, faulty, events):
    np.testing.assert_array_equal(baseline.centroids, faulty.centroids)
    np.testing.assert_array_equal(
        baseline.assignment, faulty.assignment
    )
    assert faulty.iterations == baseline.iterations
    assert faulty.inertia == baseline.inertia
    assert any(ev.name == "fault" for ev in events)
    assert any(ev.name == "recovery" for ev in events)


class TestIngestInMemory:
    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        return run_mm_inmemory(ingest(dataset))

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_worker_crash_mid_ingest(self, dataset, baseline, crash_it):
        """The crash discards a partially-applied sample stream;
        recovery resets RNG + counts + centroids together."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it,
                        kind="crash")]
        )
        rec = RecordingObserver()
        faulty = run_mm_inmemory(
            ingest(dataset), faults=plan, observers=(rec,)
        )
        assert_matches(baseline, faulty, rec.fault_events())


class TestIngestSem:
    @pytest.fixture(scope="class")
    def baseline(self, dataset):
        return run_mm_sem(ingest(dataset), **KW)

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_worker_crash_mid_ingest(
        self, dataset, baseline, tmp_path, crash_it, checkpointed
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it,
                        kind="crash")]
        )
        rec = RecordingObserver()
        kw = dict(KW)
        if checkpointed:
            kw.update(checkpoint_dir=tmp_path / "ck",
                      checkpoint_interval=2)
        faulty = run_mm_sem(
            ingest(dataset), faults=plan, observers=(rec,), **kw
        )
        assert_matches(baseline, faulty, rec.fault_events())
        if checkpointed and crash_it >= 2:
            # The v4 checkpoint (PCG64 state included) was restored
            # instead of replaying the sample stream from step 0.
            recoveries = [
                e for e in rec.fault_events()
                if e.name == "recovery"
                and e.payload["site"] == "worker"
            ]
            assert recoveries[0].payload["detail"]["resume_at"] > 0

    @pytest.mark.parametrize("kind", ["read_error", "slow"])
    def test_ssd_fault_during_ingest(self, dataset, baseline, kind):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="ssd", iteration=2, kind=kind)]
        )
        rec = RecordingObserver()
        faulty = run_mm_sem(
            ingest(dataset), faults=plan, observers=(rec,), **KW
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base_ns = {r.iteration: r.sim_ns for r in baseline.records}
        faulty_ns = {r.iteration: r.sim_ns for r in faulty.records}
        assert faulty_ns[2] >= base_ns[2]

    @pytest.mark.parametrize(
        "crash_point",
        ["arrays-written", "manifest-tmp-written", "committed-no-gc"],
    )
    def test_mid_checkpoint_crash(
        self, dataset, baseline, tmp_path, crash_point
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="checkpoint", iteration=3,
                        kind=crash_point)]
        )
        rec = RecordingObserver()
        faulty = run_mm_sem(
            ingest(dataset), faults=plan, observers=(rec,),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=2,
            **KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())

    def test_checkpoint_corruption(self, dataset, baseline, tmp_path):
        """A corrupt checkpoint must CRC-fail, be quarantined, and
        recovery replays the sample stream from scratch."""
        plan = FaultPlan.from_schedule([
            FaultEvent(site="corruption", iteration=3,
                       kind="checkpoint"),
            FaultEvent(site="worker", iteration=4, kind="crash"),
        ])
        rec = RecordingObserver()
        faulty = run_mm_sem(
            ingest(dataset), faults=plan, observers=(rec,),
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=2,
            **KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        quarantined = [
            e for e in rec.fault_events() if e.name == "quarantine"
        ]
        assert any(
            e.payload["where"] == "checkpoint" for e in quarantined
        )


class TestQueryPath:
    """Faults hitting in-flight query batches (the batch index plays
    the iteration's role at every existing fault site)."""

    TRAFFIC = dict(
        n_arrivals=1500, rate_qps=300_000.0, seed=17, skew=6.0,
    )

    @pytest.fixture(scope="class")
    def fitted(self, dataset):
        fit = run_mm_inmemory(ingest(dataset))
        return dataset, fit.centroids

    @pytest.fixture(scope="class")
    def fault_free(self, fitted):
        x, centroids = fitted
        return ServePlane(x, centroids).serve(
            ArrivalProcess(**self.TRAFFIC)
        )

    def _serve_with(self, fitted, plan, **plane_kw):
        x, centroids = fitted
        rec = RecordingObserver()
        res = ServePlane(
            x, centroids, faults=plan, observers=(rec,), **plane_kw
        ).serve(ArrivalProcess(**self.TRAFFIC))
        return res, rec

    def test_ssd_read_error_in_flight(self, fitted, fault_free):
        """A failed read under a query batch retries and answers."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="ssd", iteration=0, kind="read_error")]
        )
        res, rec = self._serve_with(fitted, plan)
        np.testing.assert_array_equal(
            res.assignments, fault_free.assignments
        )
        events = rec.fault_events()
        assert any(e.name == "fault" for e in events)
        assert any(e.name == "retry" for e in events)
        assert res.io_service_ns >= fault_free.io_service_ns

    def test_page_corruption_in_flight(self, fitted, fault_free):
        """A corrupt SSD page under a cold query batch is detected;
        the clean re-read answers identically."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="corruption", iteration=0, kind="page")]
        )
        res, rec = self._serve_with(fitted, plan)
        np.testing.assert_array_equal(
            res.assignments, fault_free.assignments
        )
        events = rec.fault_events()
        assert any(e.name == "corruption" for e in events)
        assert any(e.name == "recovery" for e in events)

    def test_fault_trace_is_reproducible(self, fitted):
        """Same fault plan + same arrival seed => identical fault
        event stream and identical latency JSON."""
        plan_events = [
            FaultEvent(site="ssd", iteration=0, kind="read_error")
        ]
        res1, rec1 = self._serve_with(
            fitted, FaultPlan.from_schedule(plan_events)
        )
        res2, rec2 = self._serve_with(
            fitted, FaultPlan.from_schedule(plan_events)
        )
        assert rec1.fault_events() == rec2.fault_events()
        assert res1.to_dict() == res2.to_dict()
