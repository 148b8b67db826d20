"""knors holds no full-size temporary of its matrix.

Every full-data pass in ``repro.core`` walks the rows in blocks of at
most ``BLOCK_BYTES`` of float64 row data: the assignment passes, the
streamed centroid sums and the widening of float32 rows. So a knors run
peaks well below the size of the matrix it clusters, and a float32 file
peaks at most one widened block above the same matrix stored as
float64.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import knors
from repro.core import ConvergenceCriteria, distance
from repro.data.matrixfile import write_matrix


def blobs(n, d, k, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    return np.ascontiguousarray(x), x[rng.choice(n, k, replace=False)]


def traced_knors(path, c0, pruning):
    """A knors run's result and its tracemalloc peak, after a warm-up
    run that pays the one-time allocations."""

    def run():
        return knors(path, c0.shape[0], init=c0, pruning=pruning,
                     criteria=ConvergenceCriteria(max_iters=3))

    run()
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_knors_mti_peak_is_a_fraction_of_the_matrix(tmp_path):
    """n=160k, d=32, k=8: the iteration-0 pass and its centroid sums
    stream through blocks, so the traced peak (the O(n) state vectors
    and the run's bookkeeping) stays below 0.75x the matrix bytes. A
    single bincount over the whole matrix alone would build an n*d
    int64 index, 1x the matrix."""
    x, c0 = blobs(160_000, 32, 8, seed=5)
    write_matrix(tmp_path / "x.knor", x)
    _, peak = traced_knors(tmp_path / "x.knor", c0, "mti")
    assert peak < 0.75 * x.nbytes


@pytest.mark.parametrize("pruning", [None, "elkan"])
def test_float32_file_is_not_widened_whole(tmp_path, pruning):
    """Unpruned and Elkan knors widen float32 rows block by block: the
    results equal those on the same matrix stored as float64, bit for
    bit, and the traced peak exceeds the float64 run's by at most the
    one widened block a float32 pass holds (``BLOCK_BYTES``, 1 MiB).
    Widening the whole matrix would cost n*d*8 = 10.24 MB."""
    x, c0 = blobs(160_000, 8, 8, seed=5)
    x32 = x.astype(np.float32)
    write_matrix(tmp_path / "x32.knor", x32)
    write_matrix(tmp_path / "x64.knor", x32.astype(np.float64))
    r64, peak64 = traced_knors(tmp_path / "x64.knor", c0, pruning)
    r32, peak32 = traced_knors(tmp_path / "x32.knor", c0, pruning)
    assert np.array_equal(r32.assignment, r64.assignment)
    assert np.array_equal(r32.centroids, r64.centroids)
    assert r32.inertia == r64.inertia
    assert r32.iterations == r64.iterations
    assert peak32 <= peak64 + distance.BLOCK_BYTES
