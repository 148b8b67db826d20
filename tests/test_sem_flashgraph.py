"""RowEngine: the per-iteration SEM I/O plan."""

import numpy as np
import pytest

from repro.errors import IoSubsystemError
from repro.faults import FaultPlan, FaultSpec
from repro.runtime import RecordingObserver
from repro.sem import RowCache, RowEngine, Safs, build_row_engine
from repro.simhw.ssd import OCZ_INTREPID_ARRAY


def make_engine(n_rows=10_000, row_bytes=64, rc_rows=None, pc_pages=32):
    safs = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=pc_pages * 4096)
    rc = (
        RowCache(rc_rows * row_bytes, row_bytes, n_rows, update_interval=5)
        if rc_rows
        else None
    )
    return RowEngine(safs, row_bytes, n_rows, row_cache=rc)


def test_full_scan_reads_everything():
    eng = make_engine(pc_pages=0)
    stats = eng.run_iteration(0, np.arange(10_000))
    assert stats.rows_needed == 10_000
    assert stats.bytes_requested == 10_000 * 64
    # 64 rows/page -> ~157 pages, merged into one sequential request.
    assert stats.merged_requests == 1
    assert stats.bytes_read == stats.pages_needed * 4096


def test_clause1_rows_skip_io():
    eng = make_engine(pc_pages=0)
    stats = eng.run_iteration(0, np.arange(100))
    assert stats.rows_needed == 100
    assert stats.bytes_requested == 100 * 64


def test_row_cache_cuts_requests_after_refresh():
    eng = make_engine(rc_rows=5000, pc_pages=0)
    needs = np.arange(4000)
    # Iterations 0..4; refresh happens at iteration 5's scheduled point.
    for it in range(5):
        stats = eng.run_iteration(it, needs)
        assert stats.row_cache_hits == 0
    stats5 = eng.run_iteration(5, needs)
    assert stats5.rc_refreshed
    assert stats5.rc_admitted == 4000
    stats6 = eng.run_iteration(6, needs)
    assert stats6.row_cache_hits == 4000
    assert stats6.rows_requested == 0
    assert stats6.bytes_read == 0
    assert stats6.service_ns == 0.0


def test_stale_cache_misses_new_actives():
    eng = make_engine(rc_rows=5000, pc_pages=0)
    first = np.arange(2000)
    for it in range(6):
        eng.run_iteration(it, first)
    # Activation pattern shifts: half the active rows are new.
    shifted = np.arange(1000, 3000)
    stats = eng.run_iteration(6, shifted)
    assert stats.row_cache_hits == 1000
    assert stats.rows_requested == 1000


def test_no_row_cache_everything_requested():
    eng = make_engine(rc_rows=None, pc_pages=0)
    needs = np.arange(1000)
    s0 = eng.run_iteration(0, needs)
    s1 = eng.run_iteration(1, needs)
    assert s0.rows_requested == s1.rows_requested == 1000
    assert s0.row_cache_hits == s1.row_cache_hits == 0


def test_page_cache_serves_repeat_iterations():
    # Page cache big enough for the whole (tiny) dataset.
    eng = make_engine(n_rows=1000, pc_pages=64)
    needs = np.arange(1000)
    s0 = eng.run_iteration(0, needs)
    s1 = eng.run_iteration(1, needs)
    assert s0.pages_from_ssd > 0
    assert s1.pages_from_ssd == 0
    assert s1.bytes_read == 0


def test_service_time_positive_for_real_io():
    eng = make_engine(pc_pages=0)
    stats = eng.run_iteration(0, np.arange(10_000))
    assert stats.service_ns > 0


@pytest.mark.parametrize(
    "rows,match",
    [
        (np.ones(100, dtype=bool), "integer"),
        (np.array([1.0, 2.0]), "integer"),
        (np.arange(6).reshape(2, 3), "1-D"),
        (np.array([3, 1, 2]), "sorted"),
        (np.array([1, 2, 2, 3]), "unique"),
        (np.array([-1, 0, 1]), r"\[0, 10000\)"),
        (np.array([9_998, 10_000]), r"\[0, 10000\)"),
    ],
    ids=["bool-mask", "float", "2-D", "unsorted", "duplicate",
         "negative", "past-end"],
)
def test_malformed_row_ids_fail_typed(rows, match):
    eng = make_engine()
    with pytest.raises(IoSubsystemError, match="run_iteration rows") as err:
        eng.run_iteration(0, rows)
    assert err.match(match)


def test_mask_and_id_forms_give_identical_stats():
    """Mask-derived ids (the SEM backend's form) and deduplicated
    request rows (the serving form, here as int32) drive identical I/O,
    cache-line quarantines included."""
    n, d = 6000, 8
    rng = np.random.default_rng(11)
    masks = [rng.random(n) < p for p in (0.6, 0.3, 0.5, 0.5, 0.4,
                                          0.7, 0.2, 0.6, 0.5, 0.5)]
    runs = []
    for form in ("mask", "requests"):
        rec = RecordingObserver()
        eng, _, _ = build_row_engine(
            OCZ_INTREPID_ARRAY, n, d, 4,
            row_cache_bytes=n * d * 8 // 4, page_cache_bytes=64 * 4096,
            cache_update_interval=2,
            faults=FaultPlan(FaultSpec(corruption_cache_rate=0.6), seed=3),
        )
        stats = []
        for it, mask in enumerate(masks):
            if form == "mask":
                ids = np.flatnonzero(mask)
            else:
                requests = rng.permutation(
                    np.repeat(np.flatnonzero(mask), 2)
                ).astype(np.int32)
                ids = np.unique(requests)
            stats.append(eng.run_iteration(it, ids, rec))
        runs.append((stats, [(e.name, e.payload) for e in rec.events]))
    assert runs[0] == runs[1]
    assert any(name == "quarantine" for name, _ in runs[0][1])
