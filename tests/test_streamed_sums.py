"""Streamed centroid sums equal the single whole-call bincount, bit for bit.

``flat_sums`` walks a long call's rows in blocks and puts the running
``k * d`` sums in front of each block's weights, at the indices
``0..k*d-1``. ``np.bincount`` adds each bucket's weights in input order
from +0.0, and +0.0 + s == s, so every bucket sees the same additions
in the same order as one bincount over the whole call. These tests pin
``flat_sums``, ``add_block`` and ``move_rows``, with and without a
scratch, to that single bincount (``tests/oracles.py``) on every block
boundary, on float32, float64 and unaligned memmapped rows, on empty
and full clusters, and on -0.0 entries and sums that cancel exactly.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import centroids
from repro.core.centroids import AccumScratch, add_block, flat_sums, move_rows
from repro.core.distance import BLOCK_BYTES
from repro.data.matrixfile import MatrixFile, write_matrix
from tests.oracles import add_block_single, flat_sums_single, move_rows_single

# Values whose sums round, cancel exactly or stay at -0.0.
PALETTE = (0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 3.5, 1e7, -1e7, 2.0 ** -20)
#: One scratch across examples, so its carry head is refilled whenever
#: the examples' ``k * d`` change.
SHARED = AccumScratch()


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def problems(draw):
    d = draw(st.integers(1, 64))
    block = draw(st.integers(1, 6))
    n = draw(st.sampled_from(
        [0, 1, block - 1, block, block + 1, 3 * block + 2, 5 * block]
    ))
    # Up to several blocks' worth of clusters, so k * d can exceed the
    # block's own rows * d.
    k = draw(st.integers(1, 3 * block + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "one", "holes"]))
    if layout == "one":
        assign = np.full(n, rng.integers(k), dtype=np.int32)
    elif layout == "holes":  # only even clusters get members
        assign = (2 * rng.integers(-(-k // 2), size=n)).astype(np.int32)
    else:
        assign = rng.integers(k, size=n).astype(np.int32)
    values = draw(st.sampled_from(["palette", "normal", "cancel"]))
    if values == "palette":
        x = rng.choice(np.array(PALETTE), size=(n, d))
    else:
        x = rng.normal(scale=1e3, size=(n, d)).astype(np.float32)
        x = x.astype(np.float64)
    if values == "cancel":
        # Every odd row negates its predecessor inside the same
        # cluster, so clusters sum to exact zeros along the way.
        x[1::2] = -x[:n - n % 2:2]
        assign[1::2] = assign[:n - n % 2:2]
    source = draw(st.sampled_from(["float64", "float32", "memmap"]))
    return d, block, k, assign, x, source


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("streamed")


def rows_from(source, x, directory):
    """``x`` as the kernel sees it, and its exact float64 widening."""
    if source == "float32":
        x = x.astype(np.float32)
        return x, x.astype(np.float64)
    if source == "memmap" and x.shape[0]:
        path = directory / "x.knor"
        write_matrix(path, x)
        view = MatrixFile(path).row_view()
        assert not view.flags.aligned  # data starts at byte 28
        return view, x
    return x, x


def small_blocks(block, d):
    return mock.patch.object(centroids, "BLOCK_BYTES", block * 8 * d)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problems())
def test_flat_sums_match_single_bincount(matrix_dir, problem):
    d, block, k, assign, x, source = problem
    rows, wide = rows_from(source, x, matrix_dir)
    want = flat_sums_single(wide, assign, k)
    with small_blocks(block, d):
        same_bits(flat_sums(rows, assign, k), want)
        same_bits(flat_sums(rows, assign, k, scratch=SHARED), want)
        own = AccumScratch()
        same_bits(flat_sums(rows, assign, k, scratch=own), want)
        # A reused scratch holds the previous call's block: no leak.
        same_bits(flat_sums(rows, assign, k, scratch=own), want)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problems(), st.integers(0, 2**32 - 1))
def test_add_block_and_move_rows_match(matrix_dir, problem, seed):
    d, block, k, assign, x, source = problem
    rows, wide = rows_from(source, x, matrix_dir)
    rng = np.random.default_rng(seed)
    start_sums = rng.choice(np.array(PALETTE), size=(k, d))
    start_counts = rng.integers(0, 5, size=k).astype(np.int64)
    to = rng.integers(k, size=assign.size).astype(np.int32)
    for scratch in (None, SHARED):
        want_s, want_c = start_sums.copy(), start_counts.copy()
        got_s, got_c = start_sums.copy(), start_counts.copy()
        add_block_single(want_s, want_c, wide, assign)
        with small_blocks(block, d):
            add_block(got_s, got_c, rows, assign, scratch=scratch)
        same_bits(got_s, want_s)
        same_bits(got_c, want_c)
        move_rows_single(want_s, want_c, wide, assign, to)
        with small_blocks(block, d):
            move_rows(got_s, got_c, rows, assign, to, scratch=scratch)
        same_bits(got_s, want_s)
        same_bits(got_c, want_c)


def test_cluster_sums_partial_matches():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 3))
    assign = rng.integers(4, size=50).astype(np.int32)
    with small_blocks(4, 3):
        part = centroids.cluster_sums(x, assign, 4)
    same_bits(part.sums, flat_sums_single(x, assign, 4))
    same_bits(part.counts, np.bincount(assign, minlength=4).astype(np.int64))


@pytest.mark.parametrize("scratch", [None, "scratch"])
def test_real_budget_on_unaligned_memmap(tmp_path, scratch):
    """At the real budget: 2.5 blocks of d=32 rows from a memmap whose
    data starts at byte 28, the block boundaries at 4096 and 8192."""
    d, k = 32, 16
    rows = BLOCK_BYTES // (8 * d)
    n = rows * 5 // 2
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, d))
    assign = rng.integers(k, size=n).astype(np.int32)
    write_matrix(tmp_path / "x.knor", x)
    view = MatrixFile(tmp_path / "x.knor").row_view()
    got = flat_sums(view, assign, k,
                    scratch=AccumScratch() if scratch else None)
    same_bits(got, flat_sums_single(x, assign, k))


def test_clusters_beyond_one_block_at_real_budget():
    """d=1, more clusters than a block has rows: the carried head is
    longer than any block."""
    rows = BLOCK_BYTES // 8
    k = rows + 3
    n = 2 * rows + 1
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, 1))
    assign = rng.integers(k, size=n).astype(np.int32)
    same_bits(flat_sums(x, assign, k), flat_sums_single(x, assign, k))


def test_streamed_call_holds_one_block(tmp_path):
    """A long call on a memmap holds about one block of temporaries,
    not the ``n * d`` index and float64 copy of the single bincount."""
    d, k = 32, 16
    n = 262_144
    x = np.random.default_rng(13).normal(size=(n, d))
    write_matrix(tmp_path / "x.knor", x)
    view = MatrixFile(tmp_path / "x.knor").row_view()
    assign = np.random.default_rng(14).integers(k, size=n).astype(np.int32)
    del x
    tracemalloc.start()
    try:
        flat_sums(view, assign, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * BLOCK_BYTES


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("n", [4, 40])
def test_assignment_outside_clusters_raises(n, bad):
    """One block or streamed, a cluster id outside 0..k-1 is an error,
    never a silently clipped sum."""
    x = np.ones((n, 2))
    assign = np.zeros(n, dtype=np.int32)
    assign[-1] = bad
    with small_blocks(8, 2), pytest.raises(ValueError):
        flat_sums(x, assign, 3)
