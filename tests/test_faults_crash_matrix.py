"""Crash-matrix: {fault site x iteration x backend} recovery tests.

Every cell injects a scheduled fault into one backend at one iteration
and asserts the recovered run reproduces the fault-free run's final
centroids and assignment *bit-for-bit*, with a well-ordered observer
event stream (every recoverable fault is eventually answered by a
recovery at the expected site).

Run with ``pytest -m faults`` (CI runs this file with ``-p
no:randomly`` so cell ordering is stable).
"""

import numpy as np
import pytest

from repro import FaultPlan, RetryPolicy, knord, knori, knors
from repro.baselines.mpi_pure import mpi_lloyd
from repro.core import init_centroids
from repro.data import write_matrix
from repro.errors import NodeFailureError
from repro.faults import FaultEvent
from repro.runtime import RecordingObserver

pytestmark = pytest.mark.faults

CRASH_ITERATIONS = (0, 2, 5)

#: fault site -> the site(s) whose on_recovery answers it. A mid-save
#: checkpoint crash surfaces as a worker crash, so the worker site
#: recovers it; a corrupted *checkpoint* is likewise only discovered
#: (and quarantined) during worker-crash recovery.
RECOVERY_SITE = {
    "ssd": "ssd",
    "worker": "worker",
    "checkpoint": "worker",
    "node": "node",
    "net": "net",
    "corruption": ("corruption", "worker"),
    "straggler": "straggler",
}


@pytest.fixture(scope="module")
def dataset():
    """Overlapping clusters: enough iterations for late crash cells."""
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=2.5, size=(6, 5))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.6, size=(150, 5)) for c in centers]
    )
    rng.shuffle(x)
    return x


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("faultmat") / "data.knor"
    write_matrix(path, dataset)
    return path


@pytest.fixture(scope="module")
def centroids0(dataset):
    return init_centroids(dataset, 6, "random", seed=3)


def assert_well_ordered(events):
    """Every recoverable fault is followed by its site's recovery."""
    assert events, "expected a non-empty fault trace"
    for i, ev in enumerate(events):
        if ev.name != "fault":
            continue
        want = RECOVERY_SITE[ev.payload["site"]]
        if isinstance(want, str):
            want = (want,)
        assert any(
            later.name == "recovery" and later.payload["site"] in want
            for later in events[i + 1:]
        ), f"fault at {ev.payload['site']} never recovered"


def assert_matches(baseline, faulty, events):
    np.testing.assert_array_equal(baseline.centroids, faulty.centroids)
    np.testing.assert_array_equal(
        baseline.assignment, faulty.assignment
    )
    assert faulty.iterations == baseline.iterations
    assert faulty.converged == baseline.converged
    assert_well_ordered(events)


# -- knori ---------------------------------------------------------------


class TestKnoriMatrix:
    @pytest.fixture(scope="class")
    def baseline(self, dataset, centroids0):
        return knori(dataset, 6, init=centroids0, seed=3)

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_worker_crash(self, dataset, centroids0, baseline, crash_it):
        assert baseline.iterations > max(CRASH_ITERATIONS)
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        faulty = knori(
            dataset, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())

    def test_thread_straggler(self, dataset, centroids0, baseline):
        """A slowed thread is EWMA-flagged and its queue drains to
        healthy threads; numerics never notice."""
        from repro.faults import FaultSpec

        plan = FaultPlan(FaultSpec(), schedule=[
            FaultEvent(site="straggler", iteration=1, kind="slow",
                       machine=2),
        ])
        rec = RecordingObserver()
        faulty = knori(
            dataset, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        assert any(
            e.name == "straggler" for e in rec.fault_events()
        )


# -- knors ---------------------------------------------------------------


class TestKnorsMatrix:
    KW = dict(row_cache_bytes=0, page_cache_bytes=0)

    @pytest.fixture(scope="class")
    def baseline(self, dataset_path, centroids0):
        return knors(dataset_path, 6, init=centroids0, seed=3, **self.KW)

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_worker_crash(
        self, dataset_path, centroids0, baseline, tmp_path,
        crash_it, checkpointed,
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        kw = dict(self.KW)
        if checkpointed:
            kw.update(checkpoint_dir=tmp_path / "ck",
                      checkpoint_interval=2)
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), **kw,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        if checkpointed and crash_it >= 2:
            # Recovery restored the checkpoint instead of rerunning
            # from scratch: resume_at is the checkpoint's iteration.
            recoveries = [
                e for e in rec.fault_events()
                if e.name == "recovery" and e.payload["site"] == "worker"
            ]
            assert recoveries[0].payload["detail"]["resume_at"] > 0

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    @pytest.mark.parametrize("kind", ["read_error", "slow"])
    def test_ssd_fault(
        self, dataset_path, centroids0, baseline, crash_it, kind
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="ssd", iteration=crash_it, kind=kind)]
        )
        rec = RecordingObserver()
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        # The fault costs simulated time but never changes numerics.
        base_ns = {r.iteration: r.sim_ns for r in baseline.records}
        faulty_ns = {r.iteration: r.sim_ns for r in faulty.records}
        assert faulty_ns[crash_it] >= base_ns[crash_it]

    @pytest.mark.parametrize(
        "crash_point",
        ["arrays-written", "manifest-tmp-written", "committed-no-gc"],
    )
    def test_mid_checkpoint_crash(
        self, dataset_path, centroids0, baseline, tmp_path, crash_point
    ):
        """Kill save_checkpoint at each protocol stage; the run still
        recovers onto the bit-identical trajectory."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="checkpoint", iteration=3,
                        kind=crash_point)]
        )
        rec = RecordingObserver()
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), checkpoint_dir=tmp_path / "ck",
            checkpoint_interval=2, **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_page_corruption(
        self, dataset_path, centroids0, baseline, crash_it
    ):
        """A corrupted device page is CRC-caught, quarantined, and
        re-read: time moves, numbers do not."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="corruption", iteration=crash_it,
                        kind="page")]
        )
        rec = RecordingObserver()
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        assert any(
            e.name == "quarantine" for e in rec.fault_events()
        )

    @pytest.mark.parametrize("crash_it", (6, 7))
    def test_cache_line_corruption(
        self, dataset_path, centroids0, crash_it
    ):
        """A corrupted DRAM-cached row is evicted and re-fetched
        through the clean SSD path. Cache *hits* first appear at
        iteration 6 here (the refresh admits the active set at 5), so
        earlier cells have no resident line to corrupt."""
        kw = dict(row_cache_bytes=1 << 20, page_cache_bytes=1 << 20)
        baseline = knors(
            dataset_path, 6, init=centroids0, seed=3, **kw
        )
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="corruption", iteration=crash_it,
                        kind="cache")]
        )
        rec = RecordingObserver()
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), **kw,
        )
        assert_matches(baseline, faulty, rec.fault_events())

    def test_checkpoint_corruption(
        self, dataset_path, centroids0, baseline, tmp_path
    ):
        """Corrupt the saved checkpoint, then crash: recovery must
        CRC-fail the load, quarantine it, and replay from scratch."""
        plan = FaultPlan.from_schedule([
            FaultEvent(site="corruption", iteration=3,
                       kind="checkpoint"),
            FaultEvent(site="worker", iteration=4, kind="crash"),
        ])
        rec = RecordingObserver()
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), checkpoint_dir=tmp_path / "ck",
            checkpoint_interval=2, **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        quarantined = [
            e for e in rec.fault_events() if e.name == "quarantine"
        ]
        assert any(
            e.payload["where"] == "checkpoint" for e in quarantined
        )


# -- knord ---------------------------------------------------------------


class TestKnordMatrix:
    N_MACHINES = 4

    @pytest.fixture(scope="class")
    def baseline(self, dataset, centroids0):
        return knord(
            dataset, 6, init=centroids0, seed=3,
            n_machines=self.N_MACHINES,
        )

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_worker_crash(self, dataset, centroids0, baseline, crash_it):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        faulty = knord(
            dataset, 6, init=centroids0, seed=3,
            n_machines=self.N_MACHINES, faults=plan, observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_node_failure_degraded(
        self, dataset, centroids0, baseline, crash_it
    ):
        """Losing a machine reshards its work onto survivors; the
        surviving fleet is slower but numerically identical."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="node", iteration=crash_it, kind="fail",
                        machine=1)]
        )
        rec = RecordingObserver()
        faulty = knord(
            dataset, 6, init=centroids0, seed=3,
            n_machines=self.N_MACHINES, faults=plan, observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base_ns = {r.iteration: r.sim_ns for r in baseline.records}
        faulty_ns = {r.iteration: r.sim_ns for r in faulty.records}
        assert faulty_ns[crash_it] > base_ns[crash_it]

    def test_node_failure_abort(self, dataset, centroids0):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="node", iteration=1, kind="fail")]
        )
        with pytest.raises(NodeFailureError):
            knord(
                dataset, 6, init=centroids0, seed=3,
                n_machines=self.N_MACHINES, faults=plan,
                retry_policy=RetryPolicy(node_failure_mode="abort"),
            )

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_dropped_allreduce(
        self, dataset, centroids0, baseline, crash_it
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="net", iteration=crash_it, kind="drop")]
        )
        rec = RecordingObserver()
        faulty = knord(
            dataset, 6, init=centroids0, seed=3,
            n_machines=self.N_MACHINES, faults=plan, observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base = {r.iteration: r.allreduce_ns for r in baseline.records}
        fl = {r.iteration: r.allreduce_ns for r in faulty.records}
        assert fl[crash_it] > base[crash_it]

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_message_corruption(
        self, dataset, centroids0, baseline, crash_it
    ):
        """A bit-flipped allreduce payload is CRC-caught and
        retransmitted; the merged sums stay exact."""
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="corruption", iteration=crash_it,
                        kind="message")]
        )
        rec = RecordingObserver()
        faulty = knord(
            dataset, 6, init=centroids0, seed=3,
            n_machines=self.N_MACHINES, faults=plan, observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        base = {r.iteration: r.allreduce_ns for r in baseline.records}
        fl = {r.iteration: r.allreduce_ns for r in faulty.records}
        assert fl[crash_it] > base[crash_it]

    def test_machine_straggler_resharded(
        self, dataset, centroids0, baseline
    ):
        """A machine slowed 8x is flagged against the fleet median and
        its shard moves to a healthy machine (factor 4 hides inside
        the fixed reduction overhead, so the matrix pins 8)."""
        from repro.faults import FaultSpec

        plan = FaultPlan(
            FaultSpec(straggler_factor=8.0),
            schedule=[FaultEvent(site="straggler", iteration=1,
                                 kind="slow", machine=1)],
        )
        rec = RecordingObserver()
        faulty = knord(
            dataset, 6, init=centroids0, seed=3,
            n_machines=self.N_MACHINES, faults=plan, observers=(rec,),
        )
        assert_matches(baseline, faulty, rec.fault_events())
        rebalances = [
            e for e in rec.fault_events()
            if e.name == "rebalance"
            and e.payload.get("scope") == "machine"
        ]
        assert rebalances
        moves = rebalances[0].payload["detail"]["moves"]
        assert all(src == 1 and dst != 1 for _, src, dst in moves)


# -- async I/O checkpoint restore (satellite d) ---------------------------


class TestAsyncCheckpointRestore:
    """Worker crashes under ``io_mode="async"``: recovery must reset
    the prefetch-credit ledger so the resumed run cannot hide I/O
    behind credit earned before the crash."""

    KW = dict(
        row_cache_bytes=1 << 20, page_cache_bytes=1 << 20,
        io_mode="async",
    )

    @pytest.fixture(scope="class")
    def baseline(self, dataset_path, centroids0):
        return knors(dataset_path, 6, init=centroids0, seed=3, **self.KW)

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_crash_restore_resets_prefetch_credit(
        self, dataset_path, centroids0, baseline, tmp_path, crash_it
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        faulty = knors(
            dataset_path, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), checkpoint_dir=tmp_path / "ck",
            checkpoint_interval=2, **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())
        # The first I/O after recovery starts with an empty credit
        # ledger: nothing can be hidden behind pre-crash prefetches.
        events = rec.events
        rec_idx = next(
            i for i, e in enumerate(events)
            if e.name == "recovery" and e.payload["site"] == "worker"
        )
        first_io = next(
            (e for e in events[rec_idx + 1:] if e.name == "io_complete"),
            None,
        )
        assert first_io is not None
        assert first_io.payload["hidden_ns"] == 0.0


# -- pure MPI baseline ---------------------------------------------------


class TestPureMpiMatrix:
    KW = dict(n_machines=2, ranks_per_machine=4)

    @pytest.fixture(scope="class")
    def baseline(self, dataset, centroids0):
        return mpi_lloyd(dataset, 6, init=centroids0, seed=3, **self.KW)

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_worker_crash(self, dataset, centroids0, baseline, crash_it):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="worker", iteration=crash_it, kind="crash")]
        )
        rec = RecordingObserver()
        faulty = mpi_lloyd(
            dataset, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())

    @pytest.mark.parametrize("crash_it", CRASH_ITERATIONS)
    def test_dropped_allreduce(
        self, dataset, centroids0, baseline, crash_it
    ):
        plan = FaultPlan.from_schedule(
            [FaultEvent(site="net", iteration=crash_it, kind="drop")]
        )
        rec = RecordingObserver()
        faulty = mpi_lloyd(
            dataset, 6, init=centroids0, seed=3, faults=plan,
            observers=(rec,), **self.KW,
        )
        assert_matches(baseline, faulty, rec.fault_events())


# -- cross-backend determinism -------------------------------------------


class TestFaultTraceReproducibility:
    """Same fault seed => byte-for-byte identical fault trace."""

    SPEC_KW = dict(
        ssd_error_rate=0.15, ssd_slow_rate=0.15, worker_crash_rate=0.1,
        max_worker_crashes=2,
    )

    def _run(self, dataset_path, centroids0, seed):
        from repro.faults import FaultSpec

        rec = RecordingObserver()
        knors(
            dataset_path, 6, init=centroids0, seed=3,
            faults=FaultPlan(FaultSpec(**self.SPEC_KW), seed=seed),
            observers=(rec,), row_cache_bytes=0, page_cache_bytes=0,
        )
        return rec.fault_events()

    def test_same_seed_identical_trace(self, dataset_path, centroids0):
        a = self._run(dataset_path, centroids0, seed=99)
        b = self._run(dataset_path, centroids0, seed=99)
        assert a == b
        assert a, "expected faults to fire at these rates"

    def test_different_seed_different_trace(
        self, dataset_path, centroids0
    ):
        a = self._run(dataset_path, centroids0, seed=99)
        b = self._run(dataset_path, centroids0, seed=100)
        assert a != b
