"""Resilience layer: integrity primitives, straggler detection, and
the end-to-end corruption / degraded-mode guarantees.

The contract under test is the tentpole's: injected corruption is
*always detected* (CRC32 catches every single-byte flip), repaired
runs are bit-identical to fault-free ones, unrecoverable corruption
aborts with a typed error, stragglers are flagged and work moves to
healthy workers -- and a fault plan with nothing to inject adds zero
simulated-time drift.
"""

import numpy as np
import pytest

from repro import knord, knori, knors
from repro.core import init_centroids
from repro.data import write_matrix
from repro.errors import ConfigError, CorruptionError
from repro.faults import FaultEvent, FaultPlan, FaultSpec
from repro.metrics import ResilienceObserver
from repro.resilience import (
    PageIntegrity,
    StragglerDetector,
    array_crc32,
    crc32_bytes,
    flip_byte,
)
from repro.resilience.integrity import page_token, row_token
from repro.runtime import RecordingObserver
from repro.sem.checkpoint import (
    CheckpointState,
    corrupt_checkpoint,
    discard_checkpoint,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.simhw import AsyncIoTimeline


# ---------------------------------------------------------------------------
# Shared workload


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=2.5, size=(6, 5))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.6, size=(150, 5)) for c in centers]
    )
    rng.shuffle(x)
    return x


@pytest.fixture(scope="module")
def dataset_path(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("resilience") / "matrix.knor"
    return str(write_matrix(path, dataset))


@pytest.fixture(scope="module")
def centroids0(dataset):
    return init_centroids(dataset, 6, "random", seed=3)


SEM_KW = dict(row_cache_bytes=1 << 20, page_cache_bytes=1 << 20)


def run_pair(run_fn, plan):
    """Run fault-free and faulted; return (base, faulted, rec, res)."""
    base = run_fn(None, ())
    rec, res = RecordingObserver(), ResilienceObserver()
    faulted = run_fn(plan, (rec, res))
    return base, faulted, rec, res


def assert_identical(base, faulted):
    assert np.array_equal(faulted.assignment, base.assignment)
    assert np.array_equal(faulted.centroids, base.centroids)
    assert faulted.iterations == base.iterations
    assert faulted.inertia == base.inertia


# ---------------------------------------------------------------------------
# CRC primitives


class TestCrcPrimitives:
    def test_crc_is_deterministic(self):
        blob = b"knor pages never lie"
        assert crc32_bytes(blob) == crc32_bytes(blob)

    def test_every_single_byte_flip_is_detected(self):
        blob = bytes(range(64))
        want = crc32_bytes(blob)
        for off in range(64):
            assert crc32_bytes(flip_byte(blob, off)) != want

    def test_flip_byte_changes_exactly_one_byte(self):
        blob = bytes(range(16))
        flipped = flip_byte(blob, 5)
        diff = [i for i in range(16) if blob[i] != flipped[i]]
        assert diff == [5]
        assert flipped[5] == blob[5] ^ 0xFF

    def test_flip_byte_wraps_offset(self):
        blob = bytes(8)
        assert flip_byte(blob, 13) == flip_byte(blob, 5)

    def test_array_crc_tracks_contents(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        b = a.copy()
        assert array_crc32(a) == array_crc32(b)
        b[1, 2] += 1e-9
        assert array_crc32(a) != array_crc32(b)

    def test_array_crc_ignores_layout(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert array_crc32(a) == array_crc32(
            np.asfortranarray(a)
        )

    def test_tokens_are_distinct(self):
        toks = {page_token(p) for p in range(256)}
        toks |= {row_token(r) for r in range(256)}
        assert len(toks) == 512


class TestPageIntegrity:
    def test_clean_batch_verifies(self):
        pi = PageIntegrity()
        assert pi.verify_pages(np.arange(10)) is True
        assert pi.pages_verified == 10
        assert pi.corruptions_detected == 0

    def test_corrupt_page_always_detected(self):
        pi = PageIntegrity()
        pages = np.arange(20)
        for victim in pages.tolist():
            assert pi.verify_pages(pages, corrupt_page=victim) is False
        assert pi.corruptions_detected == 20

    def test_corrupt_row_always_detected(self):
        pi = PageIntegrity()
        assert pi.verify_row(7, corrupted=False) is True
        assert pi.verify_row(7, corrupted=True) is False
        assert pi.rows_verified == 2
        assert pi.corruptions_detected == 1


# ---------------------------------------------------------------------------
# Straggler detector (pure unit)


class TestStragglerDetector:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"n_workers": 4, "alpha": 0.0},
            {"n_workers": 4, "alpha": 1.5},
            {"n_workers": 4, "threshold": 1.0},
            {"n_workers": 4, "warmup": -1},
            {"n_workers": 4, "mode": "psychic"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            StragglerDetector(**kwargs)

    def test_uniform_times_never_flag(self):
        det = StragglerDetector(4)
        for _ in range(10):
            assert det.observe([100.0, 100.0, 100.0, 100.0]) == []
        assert det.flagged == set()

    def test_flags_persistently_slow_worker(self):
        det = StragglerDetector(4)
        flagged_at = None
        for rnd in range(8):
            fresh = det.observe([100.0, 100.0, 420.0, 100.0])
            if fresh:
                flagged_at = rnd
                assert fresh == [2]
                break
        assert flagged_at is not None
        assert det.flagged == {2}

    def test_warmup_suppresses_flags(self):
        det = StragglerDetector(3, warmup=5)
        for _ in range(5):
            assert det.observe([1.0, 1.0, 50.0]) == []
        assert det.observe([1.0, 1.0, 50.0]) == [2]

    def test_flagged_stay_flagged(self):
        det = StragglerDetector(3, warmup=0)
        while not det.flagged:
            det.observe([1.0, 1.0, 50.0])
        # Back to healthy speed: no *fresh* flag, set unchanged.
        for _ in range(5):
            assert det.observe([1.0, 1.0, 1.0]) == []
        assert det.flagged == {2}

    def test_needs_two_healthy_workers(self):
        det = StragglerDetector(2, warmup=0)
        det.flagged.add(0)
        assert det.observe([1.0, 99.0]) == []

    def test_zero_sample_is_no_observation(self):
        det = StragglerDetector(3, warmup=0, mode="self")
        det.observe([10.0, 10.0, 10.0])
        # Worker 2 idles for a while: its EWMA must not decay toward
        # zero and later misread a normal round as a 2x jump.
        for _ in range(6):
            det.observe([10.0, 10.0, 0.0])
        assert det.ewma[2] == 10.0
        assert det.observe([10.0, 10.0, 10.0]) == []

    def test_self_mode_ignores_cluster_skew(self):
        # Worker 2 is legitimately 10x slower (remote NUMA bank):
        # self-relative detection must not flag steady-state skew...
        det = StragglerDetector(3, mode="self")
        for _ in range(6):
            assert det.observe([10.0, 10.0, 100.0]) == []
        # ...but must flag the same worker drifting above its own
        # demonstrated speed.
        for _ in range(8):
            if det.observe([10.0, 10.0, 400.0]):
                break
        assert det.flagged == {2}

    def test_cluster_mode_flags_relative_to_median(self):
        det = StragglerDetector(4, mode="cluster")
        for _ in range(4):
            det.observe([100.0, 100.0, 100.0, 300.0])
        assert det.flagged == {3}

    def test_reset_forgets_history(self):
        det = StragglerDetector(3, warmup=0)
        while not det.flagged:
            det.observe([1.0, 1.0, 50.0])
        det.reset()
        assert det.flagged == set()
        assert det.rounds == 0
        assert np.all(det.ewma == 0.0)
        assert np.all(np.isinf(det.best))


# ---------------------------------------------------------------------------
# Async I/O ledger reset (crash recovery restarts the pipeline cold)


class TestAsyncIoTimelineReset:
    def test_reset_clears_banked_credit(self):
        tl = AsyncIoTimeline()
        tl.credit_ns = 5000.0
        hidden = tl.plan(3000.0, prefetchable=True)
        assert hidden.hidden_ns == 3000.0
        tl.reset()
        assert tl.credit_ns == 0.0
        cold = tl.plan(3000.0, prefetchable=True)
        assert cold.hidden_ns == 0.0
        assert cold.blocked_ns == 3000.0


# ---------------------------------------------------------------------------
# Corruption recall matrix: every site, always detected, bit-identical


@pytest.mark.faults
class TestCorruptionRecall:
    def test_ssd_page_corruption(self, dataset_path, centroids0):
        def run(plan, obs):
            return knors(
                dataset_path, 6, init=centroids0, seed=3,
                faults=plan, observers=obs, **SEM_KW,
            )

        plan = FaultPlan(FaultSpec(corruption_page_rate=0.3), seed=5)
        base, faulted, rec, res = run_pair(run, plan)
        assert_identical(base, faulted)
        assert res.counters.corruptions_injected >= 1
        assert res.counters.detection_recall == 1.0
        assert res.counters.detected_by_where["ssd-page"] >= 1
        assert res.counters.quarantines >= 1
        assert faulted.sim_seconds > base.sim_seconds

    def test_dram_cache_corruption(self, dataset_path, centroids0):
        def run(plan, obs):
            return knors(
                dataset_path, 6, init=centroids0, seed=3,
                faults=plan, observers=obs, **SEM_KW,
            )

        plan = FaultPlan(FaultSpec(corruption_cache_rate=0.5), seed=7)
        base, faulted, rec, res = run_pair(run, plan)
        assert_identical(base, faulted)
        assert res.counters.corruptions_injected >= 1
        assert res.counters.detection_recall == 1.0
        assert res.counters.detected_by_where["cache-line"] >= 1
        # The repair re-read is charged as ordinary I/O; under async
        # overlap it may hide entirely, so time is only monotone.
        assert faulted.sim_seconds >= base.sim_seconds

    def test_allreduce_payload_corruption(self, dataset, centroids0):
        def run(plan, obs):
            return knord(
                dataset, 6, init=centroids0, seed=3, n_machines=4,
                faults=plan, observers=obs,
            )

        plan = FaultPlan(FaultSpec(corruption_msg_rate=0.3), seed=9)
        base, faulted, rec, res = run_pair(run, plan)
        assert_identical(base, faulted)
        assert res.counters.corruptions_injected >= 1
        assert res.counters.detection_recall == 1.0
        assert faulted.sim_seconds > base.sim_seconds

    def test_checkpoint_corruption_quarantined(
        self, dataset_path, centroids0, tmp_path
    ):
        def run(plan, obs):
            ck = tmp_path / ("faulted" if plan else "clean")
            return knors(
                dataset_path, 6, init=centroids0, seed=3,
                checkpoint_dir=str(ck), checkpoint_interval=2,
                faults=plan, observers=obs,
            )

        # Corrupt the iteration-3 checkpoint, then crash at 4: the
        # recovery load must CRC-fail, quarantine the checkpoint, and
        # fall back to a from-scratch replay -- same numbers.
        plan = FaultPlan(FaultSpec(), schedule=[
            FaultEvent(site="corruption", iteration=3, kind="checkpoint"),
            FaultEvent(site="worker", iteration=4, kind="crash"),
        ])
        base, faulted, rec, res = run_pair(run, plan)
        assert_identical(base, faulted)
        assert res.counters.detection_recall == 1.0
        assert res.counters.detected_by_where["checkpoint"] >= 1
        quarantines = [
            e for e in rec.fault_events() if e.name == "quarantine"
        ]
        assert any(
            e.payload["where"] == "checkpoint" for e in quarantines
        )

    def test_counters_are_deterministic(self, dataset_path, centroids0):
        def one():
            plan = FaultPlan(
                FaultSpec(
                    corruption_page_rate=0.3,
                    corruption_cache_rate=0.3,
                ),
                seed=21,
            )
            rec, res = RecordingObserver(), ResilienceObserver()
            knors(
                dataset_path, 6, init=centroids0, seed=3,
                faults=plan, observers=(rec, res), **SEM_KW,
            )
            trace = [
                (e.name, e.iteration) for e in rec.fault_events()
            ]
            return res.counters, trace

        c1, t1 = one()
        c2, t2 = one()
        assert t1 == t2
        assert c1.corruptions_injected == c2.corruptions_injected
        assert c1.corruptions_detected == c2.corruptions_detected
        assert c1.quarantines == c2.quarantines
        assert dict(c1.detected_by_where) == dict(c2.detected_by_where)


@pytest.mark.faults
class TestUnrecoverableCorruption:
    def test_page_repair_exhaustion_aborts(
        self, dataset_path, centroids0
    ):
        plan = FaultPlan(
            FaultSpec(
                corruption_page_rate=0.5,
                corruption_repair_fail_rate=1.0,
            ),
            seed=5,
        )
        with pytest.raises(CorruptionError):
            knors(
                dataset_path, 6, init=centroids0, seed=3,
                faults=plan, **SEM_KW,
            )

    def test_message_retransmit_exhaustion_aborts(
        self, dataset, centroids0
    ):
        plan = FaultPlan(
            FaultSpec(
                corruption_msg_rate=0.5,
                corruption_repair_fail_rate=1.0,
            ),
            seed=9,
        )
        with pytest.raises(CorruptionError):
            knord(
                dataset, 6, init=centroids0, seed=3, n_machines=4,
                faults=plan,
            )


# ---------------------------------------------------------------------------
# Degraded mode end to end


@pytest.mark.faults
class TestStragglerEndToEnd:
    def test_knori_thread_straggler(self, dataset, centroids0):
        def run(plan, obs):
            return knori(
                dataset, 6, init=centroids0, seed=3,
                faults=plan, observers=obs,
            )

        plan = FaultPlan(FaultSpec(), schedule=[
            FaultEvent(
                site="straggler", iteration=1, kind="slow", machine=2
            ),
        ])
        base, faulted, rec, res = run_pair(run, plan)
        assert_identical(base, faulted)
        assert faulted.sim_seconds > base.sim_seconds
        assert res.counters.stragglers_detected == 1
        assert res.counters.rebalances >= 1
        flags = [
            e for e in rec.fault_events() if e.name == "straggler"
        ]
        assert [e.payload["worker"] for e in flags] == [2]
        assert all(e.payload["scope"] == "thread" for e in flags)

    def test_knord_machine_straggler_resharded(
        self, dataset, centroids0
    ):
        def run(plan, obs):
            return knord(
                dataset, 6, init=centroids0, seed=3, n_machines=4,
                faults=plan, observers=obs,
            )

        plan = FaultPlan(
            FaultSpec(straggler_factor=8.0),
            schedule=[
                FaultEvent(
                    site="straggler", iteration=1, kind="slow",
                    machine=1,
                ),
            ],
        )
        base, faulted, rec, res = run_pair(run, plan)
        assert_identical(base, faulted)
        assert faulted.sim_seconds > base.sim_seconds
        assert res.counters.stragglers_detected == 1
        assert res.counters.rebalances == 1
        reb = [
            e for e in rec.fault_events() if e.name == "rebalance"
        ][0]
        assert reb.payload["scope"] == "machine"
        moves = reb.payload["detail"]["moves"]
        # Shard 1 moved off the slow machine 1, onto a healthy one.
        assert [(s, src) for s, src, _ in moves] == [(1, 1)]
        assert all(dst != 1 for _, _, dst in moves)

    def test_detection_is_passive(self, dataset, centroids0):
        # A plan with the straggler site armed but never firing must
        # not perturb time or results (the detector only watches).
        base = knori(dataset, 6, init=centroids0, seed=3)
        plan = FaultPlan(FaultSpec(straggler_rate=1e-12), seed=3)
        rec = RecordingObserver()
        watched = knori(
            dataset, 6, init=centroids0, seed=3,
            faults=plan, observers=(rec,),
        )
        assert_identical(base, watched)
        assert watched.sim_seconds == base.sim_seconds
        assert rec.fault_events() == []


# ---------------------------------------------------------------------------
# Zero-drift guard: an armed-but-empty plan changes nothing


@pytest.mark.faults
class TestFaultFreeEquivalence:
    def test_knori_zero_rate_plan_is_bit_identical(
        self, dataset, centroids0
    ):
        base = knori(dataset, 6, init=centroids0, seed=3)
        rec = RecordingObserver()
        armed = knori(
            dataset, 6, init=centroids0, seed=3,
            faults=FaultPlan(FaultSpec(), seed=0), observers=(rec,),
        )
        assert_identical(base, armed)
        assert [r.sim_ns for r in armed.records] == [
            r.sim_ns for r in base.records
        ]
        assert rec.fault_events() == []

    def test_knors_zero_rate_plan_is_bit_identical(
        self, dataset_path, centroids0
    ):
        base = knors(
            dataset_path, 6, init=centroids0, seed=3, **SEM_KW
        )
        rec = RecordingObserver()
        armed = knors(
            dataset_path, 6, init=centroids0, seed=3,
            faults=FaultPlan(FaultSpec(), seed=0), observers=(rec,),
            **SEM_KW,
        )
        assert_identical(base, armed)
        assert [r.sim_ns for r in armed.records] == [
            r.sim_ns for r in base.records
        ]
        assert rec.fault_events() == []

    def test_knord_zero_rate_plan_is_bit_identical(
        self, dataset, centroids0
    ):
        base = knord(dataset, 6, init=centroids0, seed=3, n_machines=4)
        rec = RecordingObserver()
        armed = knord(
            dataset, 6, init=centroids0, seed=3, n_machines=4,
            faults=FaultPlan(FaultSpec(), seed=0), observers=(rec,),
        )
        assert_identical(base, armed)
        assert [r.sim_ns for r in armed.records] == [
            r.sim_ns for r in base.records
        ]
        assert rec.fault_events() == []


# ---------------------------------------------------------------------------
# Checkpoint integrity: file + per-array CRCs (format v3 introduced
# them; every save now writes v4, which keeps them)


class TestCheckpointV3:
    def _state(self):
        rng = np.random.default_rng(0)
        return CheckpointState(
            iteration=4,
            algorithm="kmeans",
            arrays={
                "centroids": rng.normal(size=(3, 2)),
                "prev_centroids": rng.normal(size=(3, 2)),
                "assignment": rng.integers(0, 3, size=20),
            },
            scalars={},
            n_changed=5,
            params={"n": 20, "d": 2, "k": 3, "pruning": None},
        )

    def test_roundtrip_carries_crcs(self, tmp_path):
        save_checkpoint(tmp_path, self._state())
        loaded = load_checkpoint(tmp_path)
        assert loaded.iteration == 4
        import json

        manifest = json.loads(
            (tmp_path / "checkpoint.json").read_text()
        )
        assert manifest["format_version"] == 4
        assert isinstance(manifest["file_crc32"], int)
        assert set(manifest["array_crc32"]) >= {
            "centroids", "prev_centroids", "assignment",
        }

    def test_corrupt_checkpoint_fails_crc_on_load(self, tmp_path):
        save_checkpoint(tmp_path, self._state())
        offset = corrupt_checkpoint(tmp_path)
        assert offset >= 0
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path)

    def test_discard_checkpoint_removes_state(self, tmp_path):
        save_checkpoint(tmp_path, self._state())
        assert has_checkpoint(tmp_path)
        removed = discard_checkpoint(tmp_path)
        assert removed >= 2
        assert not has_checkpoint(tmp_path)
