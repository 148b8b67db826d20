"""Golden-value conformance: optimized kernels vs frozen legacy kernels.

The PR 3 perf rework (workspace layer, flat-index accumulation, engine
hot-loop) promises **bit-identical** results -- not merely allclose.
Every test here compares the shipped kernels against the verbatim
pre-change copies in ``tests/oracles.py`` with ``np.array_equal``,
across seeds, dtypes, ragged block boundaries and the degenerate
``d=1`` / ``k=1`` shapes.
"""

import numpy as np
import pytest

from repro import ConvergenceCriteria, knori
from repro.core.centroids import (
    AccumScratch,
    PartialCentroids,
    add_block,
    funnel_merge,
    move_rows,
)
from repro.core.distance import (
    euclidean,
    half_min_inter_centroid,
    nearest_centroid,
    rows_to_centroids,
)
from repro.core.mti import mti_init, mti_iteration
from repro.core.workspace import DistanceWorkspace
from repro.simhw import IterationEngine
from tests import oracles as legacy


def blobs(n, d, k, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    c0 = x[rng.choice(n, size=k, replace=False)].copy()
    return x.astype(dtype), c0.astype(dtype)


SHAPES = [(257, 5, 7), (1000, 12, 10), (64, 1, 4), (100, 3, 1), (9, 2, 9)]


# -- distance kernels ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n,d,k", SHAPES)
def test_euclidean_matches_legacy(n, d, k, seed, dtype):
    x, c = blobs(n, d, k, seed, dtype)
    assert np.array_equal(legacy.euclidean(x, c), euclidean(x, c))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n,d,k", SHAPES)
def test_euclidean_with_cached_norms_matches_legacy(n, d, k, seed):
    x, c = blobs(n, d, k, seed)
    c64 = np.asarray(c, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", c64, c64)
    out = np.empty((n, k))
    got = euclidean(x, c, c_sq=c_sq, out=out)
    assert got is out
    assert np.array_equal(legacy.euclidean(x, c), got)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n,d,k", SHAPES)
def test_rows_to_centroids_matches_legacy(n, d, k, seed):
    x, c = blobs(n, d, k, seed)
    rng = np.random.default_rng(seed + 10)
    idx = rng.integers(k, size=n).astype(np.int32)
    c64 = np.asarray(c, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", c64, c64)
    ref = legacy.rows_to_centroids(x, c, idx)
    assert np.array_equal(ref, rows_to_centroids(x, c, idx))
    assert np.array_equal(ref, rows_to_centroids(x, c, idx, c_sq=c_sq))


@pytest.mark.parametrize("k", [1, 2, 5, 64])
def test_half_min_matches_legacy(k):
    _, c = blobs(4 * k + 8, 6, k, seed=5)
    cc = legacy.pairwise_centroid_distances(c)
    assert np.array_equal(
        legacy.half_min_inter_centroid(cc), half_min_inter_centroid(cc)
    )
    ws = DistanceWorkspace(k, 6)
    ws.ensure(np.asarray(c, dtype=np.float64))
    assert np.array_equal(legacy.half_min_inter_centroid(cc), ws.half_min())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,d,k", SHAPES)
@pytest.mark.parametrize("block_rows", [4, 33, 65536])
def test_nearest_centroid_ragged_blocks_matches_legacy(
    n, d, k, seed, block_rows
):
    """Small ``block_rows`` forces ragged final blocks (n % block != 0)
    exactly as huge datasets do against the real 65536-row block."""
    x, c = blobs(n, d, k, seed)
    ref_a, ref_m = legacy.nearest_centroid(x, c, block_rows=block_rows)
    got_a, got_m = nearest_centroid(x, c, block_rows=block_rows)
    assert np.array_equal(ref_a, got_a)
    assert np.array_equal(ref_m, got_m)
    ws = DistanceWorkspace(k, d, block_rows=block_rows)
    ws_a, ws_m = nearest_centroid(x, c, block_rows=block_rows, workspace=ws)
    assert np.array_equal(ref_a, ws_a)
    assert np.array_equal(ref_m, ws_m)


# -- accumulation ----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n,d,k", SHAPES)
def test_add_block_matches_legacy(n, d, k, seed, dtype):
    x, _ = blobs(n, d, k, seed, dtype)
    rng = np.random.default_rng(seed)
    assign = rng.integers(k, size=n).astype(np.int32)
    s_ref = np.zeros((k, d))
    c_ref = np.zeros(k, dtype=np.int64)
    legacy.add_block(s_ref, c_ref, np.asarray(x, dtype=np.float64), assign)
    for scratch in (None, AccumScratch()):
        s = np.zeros((k, d))
        c = np.zeros(k, dtype=np.int64)
        add_block(s, c, np.asarray(x, dtype=np.float64), assign,
                  scratch=scratch)
        assert np.array_equal(s_ref, s)
        assert np.array_equal(c_ref, c)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n,d,k", SHAPES)
def test_move_rows_matches_legacy(n, d, k, seed):
    x, _ = blobs(n, d, k, seed)
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed + 7)
    frm = rng.integers(k, size=n).astype(np.int32)
    to = rng.integers(k, size=n).astype(np.int32)
    s0 = rng.normal(size=(k, d))
    c0 = rng.integers(0, n, size=k).astype(np.int64)

    s_ref, c_ref = s0.copy(), c0.copy()
    legacy.move_rows(s_ref, c_ref, x, frm, to)
    for scratch in (None, AccumScratch()):
        s, c = s0.copy(), c0.copy()
        move_rows(s, c, x, frm, to, scratch=scratch)
        assert np.array_equal(s_ref, s)
        assert np.array_equal(c_ref, c)


def test_scratch_reuse_across_shrinking_and_growing_calls():
    """A shared AccumScratch must not leak state between calls of
    different (n, d) shapes -- exactly the MTI changed-rows pattern."""
    scratch = AccumScratch()
    rng = np.random.default_rng(0)
    for n, d, k in [(100, 8, 5), (7, 3, 5), (250, 12, 9), (1, 1, 1)]:
        x = rng.normal(size=(n, d))
        assign = rng.integers(k, size=n).astype(np.int32)
        s_ref = np.zeros((k, d))
        c_ref = np.zeros(k, dtype=np.int64)
        legacy.add_block(s_ref, c_ref, x, assign)
        s = np.zeros((k, d))
        c = np.zeros(k, dtype=np.int64)
        add_block(s, c, x, assign, scratch=scratch)
        assert np.array_equal(s_ref, s)
        assert np.array_equal(c_ref, c)


# -- funnel merge (S2 regression) ------------------------------------


@pytest.mark.parametrize("n_partials", [1, 2, 3, 5, 8])
def test_funnel_merge_does_not_mutate_inputs(n_partials):
    rng = np.random.default_rng(n_partials)
    partials = []
    for _ in range(n_partials):
        p = PartialCentroids.zeros(4, 3)
        p.accumulate(
            rng.normal(size=(20, 3)),
            rng.integers(4, size=20).astype(np.int32),
        )
        partials.append(p)
    snapshots = [(p.sums.copy(), p.counts.copy()) for p in partials]

    merged = funnel_merge(partials)

    for p, (s, c) in zip(partials, snapshots):
        assert np.array_equal(p.sums, s)
        assert np.array_equal(p.counts, c)
    # The merged result is a fresh structure, never aliasing an input.
    for p in partials:
        assert merged.sums is not p.sums
        assert merged.counts is not p.counts
    # Re-merging the same inputs reproduces the same values.
    again = funnel_merge(partials)
    assert np.array_equal(merged.sums, again.sums)
    assert np.array_equal(merged.counts, again.counts)


def test_funnel_merge_values_match_inplace_tree():
    """Same tree shape/order as the historical in-place reduction."""
    rng = np.random.default_rng(3)
    partials = []
    for _ in range(5):
        p = PartialCentroids.zeros(6, 4)
        p.accumulate(
            rng.normal(size=(50, 4)),
            rng.integers(6, size=50).astype(np.int32),
        )
        partials.append(p)

    # Historical behavior: merge neighbour pairs in place, level by
    # level, odd structure carried.
    level = [p.copy() for p in partials]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            level[i].merge_from(level[i + 1])
            nxt.append(level[i])
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    ref = level[0]

    merged = funnel_merge(partials)
    assert np.array_equal(ref.sums, merged.sums)
    assert np.array_equal(ref.counts, merged.counts)


# -- MTI pipeline ----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n,d,k", [(3000, 12, 8), (500, 1, 5), (777, 3, 1)])
def test_mti_multi_iteration_state_matches_legacy(n, d, k, seed):
    """Eight iterations of MTI: identical assignments, bounds, sums,
    counts, centroids and pruning counters at every step."""
    x, c0 = blobs(n, d, k, seed)
    x = np.asarray(x, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)

    ws = DistanceWorkspace(k, d)
    cen_l = c0.copy()
    cen_n = c0.copy()
    state_l, res_l = legacy.mti_init(x, cen_l)
    state_n, res_n = mti_init(x, cen_n, workspace=ws)

    for it in range(8):
        assert np.array_equal(state_l.assignment, state_n.assignment), it
        assert np.array_equal(state_l.ub, state_n.ub), it
        assert np.array_equal(state_l.sums, state_n.sums), it
        assert np.array_equal(state_l.counts, state_n.counts), it
        assert np.array_equal(res_l.new_centroids, res_n.new_centroids), it
        assert res_l.n_changed == res_n.n_changed, it
        assert np.array_equal(res_l.dist_per_row, res_n.dist_per_row), it
        assert np.array_equal(res_l.needs_data, res_n.needs_data), it
        assert res_l.clause1_rows == res_n.clause1_rows, it
        assert res_l.clause2_pruned == res_n.clause2_pruned, it
        assert res_l.clause3_pruned == res_n.clause3_pruned, it
        assert res_l.computed == res_n.computed, it
        prev_l, cen_l = cen_l, res_l.new_centroids
        prev_n, cen_n = cen_n, res_n.new_centroids
        res_l = legacy.mti_iteration(x, cen_l, prev_l, state_l)
        res_n = mti_iteration(x, cen_n, prev_n, state_n, workspace=ws)


def test_frozen_pipeline_matches_knori():
    """knori on the frozen MTI kernels and the reference engine loop
    (``bench_wallclock.py``'s end-to-end "before" run, at its
    ``--quick`` size) equals shipped knori bit for bit: assignment,
    centroids, inertia, iterations, per-iteration simulated time and
    clause counts."""
    x, c0 = blobs(6000, 8, 8, seed=4)
    crit = ConvergenceCriteria(max_iters=6)
    after = knori(x, 8, pruning="mti", init=c0, criteria=crit)
    run = IterationEngine.run
    with legacy.frozen_pipeline():
        assert IterationEngine.run is legacy.run_reference
        before = knori(x, 8, pruning="mti", init=c0, criteria=crit)
    assert IterationEngine.run is run
    assert before.iterations > 1
    assert sum(r.clause1_rows for r in before.records) > 0
    assert legacy.same_run(before, after)


def test_workspace_reuse_across_centroid_updates():
    """One workspace carried across iterations (the driver pattern)
    must track centroid changes: stale caches would alter results."""
    x, c0 = blobs(400, 6, 5, seed=9)
    x = np.asarray(x, dtype=np.float64)
    ws = DistanceWorkspace(5, 6)
    c = np.asarray(c0, dtype=np.float64)
    for _ in range(4):
        ref_a, ref_m = legacy.nearest_centroid(x, c)
        got_a, got_m = nearest_centroid(x, c, workspace=ws)
        assert np.array_equal(ref_a, got_a)
        assert np.array_equal(ref_m, got_m)
        # Next iteration's centroids: a fresh array, as the library
        # produces (the workspace caches by array identity).
        sums = np.zeros((5, 6))
        counts = np.zeros(5, dtype=np.int64)
        add_block(sums, counts, x, got_a, scratch=ws.accum)
        p = PartialCentroids(sums=sums, counts=counts)
        c = p.finalize(c)


def test_workspace_rejects_wrong_shape():
    from repro.errors import DatasetError

    ws = DistanceWorkspace(4, 3)
    with pytest.raises(DatasetError):
        ws.ensure(np.zeros((5, 3)))
