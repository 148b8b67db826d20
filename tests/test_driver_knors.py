"""knors driver: SEM runs against real on-disk files."""

import numpy as np

from repro import ConvergenceCriteria, knori, knors
from repro.core import init_centroids
from repro.data import MatrixFile
from repro.simhw.ssd import I3_NVME_ARRAY

CRIT = ConvergenceCriteria(max_iters=30)


def test_sem_matches_in_memory(matrix_path, overlapping):
    c0 = init_centroids(overlapping, 8, "random", seed=3)
    im = knori(overlapping, 8, init=c0)
    sem = knors(matrix_path, 8, init=c0)
    np.testing.assert_array_equal(sem.assignment, im.assignment)
    np.testing.assert_allclose(sem.centroids, im.centroids, atol=1e-9)


def test_accepts_path_matrixfile_and_array(matrix_path, overlapping):
    c0 = init_centroids(overlapping, 4, "random", seed=0)
    by_path = knors(matrix_path, 4, init=c0, criteria=CRIT)
    by_file = knors(MatrixFile(matrix_path), 4, init=c0, criteria=CRIT)
    by_array = knors(overlapping, 4, init=c0, criteria=CRIT)
    np.testing.assert_array_equal(by_path.assignment, by_file.assignment)
    np.testing.assert_array_equal(by_path.assignment, by_array.assignment)


def test_sem_memory_far_below_in_memory(matrix_path, overlapping):
    im = knori(overlapping, 6, seed=1, criteria=CRIT)
    # Cache budgets proportional to the data (the paper's ratios); the
    # default page-cache floor of 64 pages would swamp a 190 KB toy set.
    data_bytes = overlapping.size * 8
    sem = knors(
        matrix_path, 6, seed=1, criteria=CRIT,
        page_cache_bytes=data_bytes // 16,
        row_cache_bytes=data_bytes // 32,
    )
    assert "data" not in sem.memory_breakdown
    assert sem.peak_memory_bytes < im.peak_memory_bytes


def test_mti_clause1_elides_io(matrix_path):
    res = knors(matrix_path, 6, pruning="mti", seed=1, criteria=CRIT)
    if res.iterations > 3:
        first = res.records[1]
        last = res.records[-1]
        # As clusters root themselves, fewer rows request I/O.
        assert last.rows_active <= first.rows_active


def test_row_cache_reduces_reads(matrix_path):
    crit = ConvergenceCriteria(max_iters=12)
    with_rc = knors(matrix_path, 8, pruning=None, seed=2, criteria=crit)
    without = knors(
        matrix_path, 8, pruning=None, row_cache_bytes=0, seed=2,
        criteria=crit,
    )
    assert with_rc.total_bytes_read <= without.total_bytes_read
    assert sum(r.cache_hits for r in with_rc.records) > 0
    assert sum(r.cache_hits for r in without.records) == 0


def test_bytes_read_at_least_requested_rows(matrix_path):
    """Page granularity: you always read at least what you asked for
    (modulo cache hits), usually more (fragmentation)."""
    res = knors(
        matrix_path, 6, pruning=None, row_cache_bytes=0,
        page_cache_bytes=0, seed=0, criteria=CRIT,
    )
    assert res.total_bytes_read >= res.total_bytes_requested


def test_algorithm_names(matrix_path):
    crit = ConvergenceCriteria(max_iters=3)
    assert knors(matrix_path, 3, criteria=crit).algorithm == "knors"
    assert (
        knors(matrix_path, 3, pruning=None, criteria=crit).algorithm
        == "knors-"
    )
    assert (
        knors(
            matrix_path, 3, pruning=None, row_cache_bytes=0, criteria=crit
        ).algorithm
        == "knors--"
    )


def test_elkan_memory_includes_bounds(matrix_path, overlapping):
    """knors[elkan] keeps knori's Elkan bounds resident, the O(nk)
    lower-bound matrix included, while its rows stream from SSD."""
    crit = ConvergenceCriteria(max_iters=2)
    k = 5
    sem = knors(matrix_path, k, pruning="elkan", criteria=crit)
    im = knori(overlapping, k, pruning="elkan", criteria=crit)
    n = overlapping.shape[0]
    assert sem.memory_breakdown["ti_lower_bound_matrix"] == n * k * 8
    for comp in ("assignment", "ti_bounds", "ti_lower_bound_matrix"):
        assert sem.memory_breakdown[comp] == im.memory_breakdown[comp]
    assert "data" not in sem.memory_breakdown


def test_io_overlap_semantics(matrix_path):
    """Iteration time is max(compute, io) + sync, so it is never less
    than the I/O service alone would require."""
    res = knors(
        matrix_path, 6, pruning=None, row_cache_bytes=0,
        page_cache_bytes=0, seed=0, criteria=CRIT,
    )
    assert res.sim_seconds > 0
    for rec in res.records:
        assert rec.sim_ns > 0


def test_nvme_array_not_slower(matrix_path):
    sata = knors(matrix_path, 6, pruning=None, row_cache_bytes=0,
                 page_cache_bytes=0, seed=0, criteria=CRIT)
    nvme = knors(matrix_path, 6, pruning=None, row_cache_bytes=0,
                 page_cache_bytes=0, seed=0, criteria=CRIT,
                 ssd=I3_NVME_ARRAY)
    assert nvme.sim_seconds <= sata.sim_seconds


def test_cache_update_interval_recorded(matrix_path):
    res = knors(
        matrix_path, 4, cache_update_interval=3,
        criteria=ConvergenceCriteria(max_iters=4),
    )
    assert res.params["cache_update_interval"] == 3


def test_row_cache_defaults_scale_with_data(matrix_path, overlapping):
    res = knors(matrix_path, 4, criteria=ConvergenceCriteria(max_iters=2))
    data_bytes = overlapping.shape[0] * overlapping.shape[1] * 8
    assert res.params["row_cache_bytes"] == data_bytes // 32
    assert res.params["page_cache_bytes"] >= data_bytes // 16
