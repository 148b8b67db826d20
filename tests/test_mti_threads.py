"""MTI on host threads: who runs a block, never what it computes.

The post-clause-1 blocks of an MTI iteration, and the blocks of the
iteration-0 assignment pass (``nearest_centroid`` with ``workers``),
run on the calling thread plus a process-wide pool
(``repro.core.mti.WORKERS`` threads in all, at most one per block).
The block partition depends on the data shape only, each block writes
disjoint rows, and the clause totals are summed after the join, so
every state and result field must be bit for bit the same at any
worker count. These tests pin that for 1, 2, 3 and 5 workers, the
serial path (one block) and the failure path (a worker's exception is
raised only once every worker has stopped, and it is the lowest failed
block's).
"""

from __future__ import annotations

import copy
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import knors
from repro.core import ConvergenceCriteria, distance, hostpool, mti
from repro.core.distance import nearest_centroid
from repro.core.mti import ClauseThresholds, mti_init, mti_iteration
from repro.core.workspace import DistanceWorkspace
from repro.data.matrixfile import MatrixFile, write_matrix

WORKER_COUNTS = (1, 2, 3, 5)
KERNELS = (None, "blocked", "gemm")
STATE_FIELDS = ("assignment", "ub", "sums", "counts")
RESULT_FIELDS = (
    "new_centroids", "n_changed", "dist_per_row", "needs_data", "motion",
    "clause1_rows", "clause2_pruned", "clause3_pruned", "tightened_rows",
    "computed",
)


def blobs(n, d, k, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    return np.ascontiguousarray(x), x[rng.choice(n, k, replace=False)]


def run_iterations(monkeypatch, x, c0, workers, kernel, iters=6):
    """Snapshots of the state and result after every iteration."""
    monkeypatch.setattr(mti, "WORKERS", workers)
    k, d = c0.shape
    ws = None if kernel is None else DistanceWorkspace(k, d, kernel=kernel)
    state, res = mti_init(x, c0, workspace=ws)
    prev, cur = c0, res.new_centroids
    snaps = []
    for _ in range(iters):
        res = mti_iteration(x, cur, prev, state, workspace=ws)
        snaps.append(
            {f: copy.deepcopy(getattr(state, f)) for f in STATE_FIELDS}
            | {f: getattr(res, f) for f in RESULT_FIELDS}
        )
        prev, cur = cur, res.new_centroids
    return snaps


def assert_same_runs(a, b):
    assert len(a) == len(b)
    for it, (sa, sb) in enumerate(zip(a, b)):
        for name in sa:
            va, vb = sa[name], sb[name]
            if isinstance(va, np.ndarray):
                assert va.dtype == vb.dtype, (it, name)
                assert np.array_equal(va, vb), (it, name)
            else:
                assert va == vb, (it, name)


def record_dispatch(monkeypatch):
    """Record the worker count of every dispatched block pass."""
    counts = []
    real = mti._BlockPass.dispatch

    def recording(self, bufs):
        counts.append(len(bufs))
        return real(self, bufs)

    monkeypatch.setattr(mti._BlockPass, "dispatch", recording)
    return counts


@pytest.mark.parametrize("kernel", KERNELS)
def test_worker_counts_agree_bit_for_bit(monkeypatch, kernel):
    x, c0 = blobs(6000, 4, 9)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 256 * 8 * 4)
    dispatched = record_dispatch(monkeypatch)
    runs = {
        w: run_iterations(monkeypatch, x, c0, w, kernel)
        for w in WORKER_COUNTS
    }
    for w in WORKER_COUNTS[1:]:
        assert_same_runs(runs[1], runs[w])
    # Every iteration had more blocks than workers: each count was used.
    assert set(dispatched) == set(WORKER_COUNTS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_fewer_blocks_than_workers(monkeypatch, kernel):
    """Blocks of about m/2 rows: at most two workers are dispatched,
    however many the process may use."""
    x, c0 = blobs(900, 3, 5, seed=1)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 600 * 8 * 3)
    dispatched = record_dispatch(monkeypatch)
    runs = {
        w: run_iterations(monkeypatch, x, c0, w, kernel)
        for w in WORKER_COUNTS
    }
    for w in WORKER_COUNTS[1:]:
        assert_same_runs(runs[1], runs[w])
    assert max(dispatched) == 2


def test_single_block_dispatches_nothing(monkeypatch):
    """One block (a small shard or batch) never touches the pool."""
    x, c0 = blobs(500, 4, 6, seed=2)

    def no_pool(threads):
        raise AssertionError("a single-block call used the pool")

    monkeypatch.setattr(hostpool, "_host_pool", no_pool)
    dispatched = record_dispatch(monkeypatch)
    run_iterations(monkeypatch, x, c0, 5, "blocked")
    assert dispatched and set(dispatched) == {1}


def bisector_run(monkeypatch, workers, kernel):
    """The fallback case of ``tests/test_mti_oracle.py``, one row
    repeated over seven blocks: in every block the unmasked argmin
    picks pruned centroid 0 and the rows are redone masked."""
    monkeypatch.setattr(mti, "WORKERS", workers)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 3 * 8 * 2)
    x = np.tile([[1.0, 0.0]], (20, 1))
    prev = np.array([[2.0, 0.0], [0.0, 1.5], [0.5, 0.0]])
    cur = np.array([[2.0, 0.0], [0.0, 1.5], [0.0, 0.0]])
    k, d = cur.shape
    ws = None if kernel is None else DistanceWorkspace(k, d, kernel=kernel)
    state, _ = mti_init(x, prev, workspace=ws)
    assert (state.assignment == 2).all()
    res = mti_iteration(x, cur, prev, state, workspace=ws)
    return (
        {f: getattr(state, f).copy() for f in STATE_FIELDS}
        | {f: getattr(res, f) for f in RESULT_FIELDS}
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_verified_argmin_fallback_on_threads(monkeypatch, kernel):
    redone = []
    real = ClauseThresholds.pruned

    def counting(self, b, count):
        redone.append(b.size)
        return real(self, b, count)

    monkeypatch.setattr(ClauseThresholds, "pruned", counting)
    runs = {w: bisector_run(monkeypatch, w, kernel) for w in WORKER_COUNTS}
    for w in WORKER_COUNTS[1:]:
        assert_same_runs([runs[1]], [runs[w]])
    # Every block of every run took the masked fallback for all its rows.
    assert sum(redone) == 20 * len(WORKER_COUNTS)
    assert (runs[1]["assignment"] == 2).all()


@pytest.mark.parametrize("kernel", KERNELS)
def test_float32_memmap_matches_widened_float64(monkeypatch, tmp_path,
                                                kernel):
    """A float32 memmap is widened per gathered block: the same bits as
    the whole matrix widened to float64, at every worker count."""
    x, c0 = blobs(5000, 6, 7, seed=3)
    x32 = x.astype(np.float32)
    path = tmp_path / "x32.knor"
    write_matrix(path, x32)
    view = MatrixFile(path).row_view()
    assert view.dtype == np.float32
    monkeypatch.setattr(mti, "BLOCK_BYTES", 300 * 8 * 6)
    ref = run_iterations(
        monkeypatch, x32.astype(np.float64), c0, 1, kernel
    )
    for w in WORKER_COUNTS:
        assert_same_runs(ref, run_iterations(monkeypatch, view, c0, w,
                                             kernel))


def test_stress_many_blocks_fast_switching(monkeypatch):
    """Five workers on hundreds of two-row blocks, switching threads
    every microsecond: every block is claimed exactly once and no
    write is lost, so the run equals the one-worker run bit for bit."""
    x, c0 = blobs(1200, 3, 6, seed=6)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 2 * 8 * 3)
    ref = run_iterations(monkeypatch, x, c0, 1, "blocked", iters=3)
    claims = []
    real = mti._BlockPass.run

    def counting(self, blk, buf):
        claims.append((self, blk))
        real(self, blk, buf)

    monkeypatch.setattr(mti._BlockPass, "run", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        got = run_iterations(monkeypatch, x, c0, 5, "blocked", iters=3)
        assert time.perf_counter() - started < 60
    finally:
        sys.setswitchinterval(interval)
    assert_same_runs(ref, got)
    passes = {}
    for block_pass, blk in claims:
        passes.setdefault(id(block_pass), (block_pass, []))[1].append(blk)
    assert len(passes) == 3
    for block_pass, blocks in passes.values():
        assert sorted(blocks) == list(range(block_pass.n_blocks))


class BlockFailure(Exception):
    pass


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_worker_exception_waits_for_every_worker(monkeypatch, workers):
    """Blocks 1 and 3 fail, block 3 first; block 2 is still running
    when they do. The call raises block 1's exception, and only once no
    block is running."""
    x, c0 = blobs(4000, 4, 6, seed=4)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 400 * 8 * 4)
    monkeypatch.setattr(mti, "WORKERS", workers)
    state, res = mti_init(x, c0)
    real = mti._BlockPass.run
    lock = threading.Lock()
    running = [0]
    finished = []

    def flaky(self, blk, buf):
        with lock:
            running[0] += 1
        try:
            if blk == 1:
                time.sleep(0.2)
                raise BlockFailure(1)
            if blk == 3:
                raise BlockFailure(3)
            if blk == 2:
                time.sleep(0.4)
            real(self, blk, buf)
            finished.append(blk)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(mti._BlockPass, "run", flaky)
    # Move the centroids so that every row is past clause 1.
    cur = res.new_centroids + 3.0
    with pytest.raises(BlockFailure) as info:
        mti_iteration(x, cur, res.new_centroids, state)
    assert info.value.args == (1,)
    assert running[0] == 0
    assert 2 in finished


def run_knors(path, c0):
    return knors(path, c0.shape[0], init=c0,
                 criteria=ConvergenceCriteria(max_iters=3))


def test_knors_float32_file_is_not_widened_whole(monkeypatch, tmp_path):
    """knors on a float32 file clusters exactly like knors on the same
    matrix widened to a float64 file, and its traced peak is no larger:
    no MTI call copies the whole matrix to float64. The matrix spans
    many assignment blocks, so one widened block is far below the
    run's peak (its O(n) state vectors)."""
    x, c0 = blobs(160_000, 8, 8, seed=5)
    # One thread: with several, the peak depends on how the workers'
    # block temporaries happen to overlap.
    monkeypatch.setattr(mti, "WORKERS", 1)
    x32 = x.astype(np.float32)
    p32, p64 = tmp_path / "x32.knor", tmp_path / "x64.knor"
    write_matrix(p32, x32)
    write_matrix(p64, x32.astype(np.float64))
    peaks, results = {}, {}
    for name, path in (("f64", p64), ("f32", p32)):
        run_knors(path, c0)  # warm one-time allocations
        tracemalloc.start()
        try:
            results[name] = run_knors(path, c0)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    r32, r64 = results["f32"], results["f64"]
    assert np.array_equal(r32.assignment, r64.assignment)
    assert np.array_equal(r32.centroids, r64.centroids)
    assert r32.iterations == r64.iterations
    assert peaks["f32"] <= peaks["f64"]


def record_block_runs(monkeypatch):
    """Record the thread count of every dispatched assignment pass."""
    counts = []
    real = distance.run_blocks

    def recording(n_blocks, run, bufs):
        counts.append(len(bufs))
        return real(n_blocks, run, bufs)

    monkeypatch.setattr(distance, "run_blocks", recording)
    return counts


def init_snapshot(monkeypatch, x, c0, workers, kernel):
    """``mti_init``'s state and result, plus the norm cache it filled."""
    monkeypatch.setattr(mti, "WORKERS", workers)
    k, d = c0.shape
    ws = None if kernel is None else DistanceWorkspace(k, d, kernel=kernel)
    state, res = mti_init(x, c0, workspace=ws)
    snap = (
        {f: getattr(state, f).copy() for f in STATE_FIELDS}
        | {f: getattr(res, f) for f in RESULT_FIELDS}
    )
    if ws is not None:
        snap["x_sq"] = ws.x_sq(x).copy()
    return snap


@pytest.mark.parametrize("kernel", KERNELS)
def test_mti_init_worker_counts_agree(monkeypatch, kernel):
    """The iteration-0 pass in 24 blocks: the state, the result and the
    norm cache it fills are the same bits at every worker count."""
    x, c0 = blobs(6000, 4, 9, seed=7)
    monkeypatch.setattr(distance, "BLOCK_BYTES", 256 * 8 * 4)
    dispatched = record_block_runs(monkeypatch)
    snaps = {w: init_snapshot(monkeypatch, x, c0, w, kernel)
             for w in WORKER_COUNTS}
    for w in WORKER_COUNTS[1:]:
        assert_same_runs([snaps[1]], [snaps[w]])
    assert set(dispatched) == set(WORKER_COUNTS)


def assignment_pass(x, c0, workers, kernel, workspace, norms):
    k, d = c0.shape
    ws = None
    if workspace:
        ws = DistanceWorkspace(k, d, kernel=kernel)
    x_sq_out = np.full(x.shape[0], np.nan) if norms else None
    assign, mindist = nearest_centroid(
        x, c0, kernel=kernel, workspace=ws, x_sq_out=x_sq_out,
        workers=workers,
    )
    return {"assign": assign, "mindist": mindist, "x_sq": x_sq_out}


@pytest.mark.parametrize("kernel,workspace,norms", [
    ("blocked", False, False),
    ("blocked", True, False),
    ("blocked", True, True),
    ("gemm", False, False),
    ("gemm", True, False),
])
def test_nearest_centroid_worker_counts_agree(monkeypatch, tmp_path,
                                              kernel, workspace, norms):
    """Blocked and gemm assignment passes, with and without a
    workspace and with the ``x_sq_out`` fill: a float32 memmap at 1, 2,
    3 and 5 workers gives the bits of one worker on the matrix widened
    to float64."""
    x, c0 = blobs(5000, 6, 7, seed=8)
    x32 = x.astype(np.float32)
    write_matrix(tmp_path / "x32.knor", x32)
    view = MatrixFile(tmp_path / "x32.knor").row_view()
    monkeypatch.setattr(distance, "BLOCK_BYTES", 300 * 8 * 6)
    ref = assignment_pass(x32.astype(np.float64), c0, 1, kernel,
                          workspace, norms)
    assert not norms or not np.isnan(ref["x_sq"]).any()
    dispatched = record_block_runs(monkeypatch)
    for w in WORKER_COUNTS:
        got = assignment_pass(view, c0, w, kernel, workspace, norms)
        for name, want in ref.items():
            if want is None:
                assert got[name] is None
            else:
                assert want.dtype == got[name].dtype, (w, name)
                assert np.array_equal(want, got[name]), (w, name)
    assert dispatched == list(WORKER_COUNTS)


def test_single_block_assignment_pass_dispatches_nothing(monkeypatch):
    """One block (a serve batch, a small shard) never touches the pool,
    however many workers the call may use."""
    x, c0 = blobs(500, 4, 6, seed=9)

    def no_pool(threads):
        raise AssertionError("a single-block pass used the pool")

    monkeypatch.setattr(hostpool, "_host_pool", no_pool)
    ws = DistanceWorkspace(6, 4)
    nearest_centroid(x, c0, workspace=ws, workers=5)
    init_snapshot(monkeypatch, x, c0, 5, "blocked")
