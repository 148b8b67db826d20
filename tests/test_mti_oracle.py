"""The rank-count MTI kernel against the (m, k)-mask formulation.

``mti_iteration`` evaluates clauses 2 and 3 as per-row candidate counts
(ranks in sorted threshold rows) and tightens every active row. The
oracle in ``tests/oracles.py`` evaluates the same clauses with ``(m, k)``
boolean masks over all active rows at once; the kernel walks them in
row blocks. Every output and every pruning counter must agree bit for
bit, iteration by iteration, under both kernel strategies and without a
workspace, at the default block size and at blocks of a few rows (see
the note above the multi-block test for which data those use).

The kernel argmins each candidate row unmasked and redoes only the
rows whose winner was pruned with the oracle's mask; two tests pin
that this fallback is reached, by a fixed case and by the drawn
instances, so the equalities cover both paths.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import mti
from repro.core.distance import euclidean, pairwise_centroid_distances
from repro.core.mti import ClauseThresholds, mti_init, mti_iteration
from repro.core.workspace import DistanceWorkspace

from tests.oracles import mti_iteration_masks

ARRAY_FIELDS = ("new_centroids", "dist_per_row", "needs_data", "motion")
COUNT_FIELDS = (
    "n_changed", "clause1_rows", "clause2_pruned", "clause3_pruned",
    "tightened_rows", "computed",
)


def _workspace(kernel, k, d):
    return None if kernel is None else DistanceWorkspace(k, d, kernel=kernel)


def assert_same_iteration(x, cur, prev, state_o, state_n, kernel):
    """Run one iteration both ways; assert identical state and result."""
    k, d = cur.shape
    res_o = mti_iteration_masks(
        x, cur, prev, state_o, workspace=_workspace(kernel, k, d)
    )
    res_n = mti_iteration(
        x, cur, prev, state_n, workspace=_workspace(kernel, k, d)
    )
    assert np.array_equal(state_o.assignment, state_n.assignment)
    assert np.array_equal(state_o.ub, state_n.ub)
    assert np.array_equal(state_o.sums, state_n.sums)
    assert np.array_equal(state_o.counts, state_n.counts)
    for name in ARRAY_FIELDS:
        a, b = getattr(res_o, name), getattr(res_n, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in COUNT_FIELDS:
        assert getattr(res_o, name) == getattr(res_n, name), name
    # Every row past clause 1 is tightened.
    assert res_n.tightened_rows == x.shape[0] - res_n.clause1_rows
    return res_n


def run_both(x, c0, kernel, next_centroids, snap=None):
    """Seed both states from one init, then step them in lockstep.

    ``next_centroids(i, cur, res)`` returns the centroids of iteration
    ``i`` (``None`` ends the run); the oracle and the kernel see the
    same arrays. ``snap`` maps the init's Lloyd update to the first
    iteration's centroids (default: unchanged).
    """
    k, d = c0.shape
    state_o, res = mti_init(x, c0, workspace=_workspace(kernel, k, d))
    state_n = copy.deepcopy(state_o)
    prev = c0
    cur = res.new_centroids if snap is None else snap(res.new_centroids)
    i = 0
    while True:
        res = assert_same_iteration(x, cur, prev, state_o, state_n, kernel)
        i += 1
        nxt = next_centroids(i, cur, res)
        if nxt is None:
            return
        prev, cur = cur, nxt


def block_rows(rows, d):
    """Patch the kernel's block budget to ``rows`` rows of width ``d``."""
    return mock.patch.object(mti, "BLOCK_BYTES", rows * 8 * d)


def blocks_of(res, rows):
    """``(block size, rows with a candidate)`` for each block the kernel
    walked, rebuilt from the result: the active rows are the ones that
    needed data, split into ``ceil(m / rows)`` even blocks, and a row
    had a candidate when it cost more than its tighten distance."""
    active = np.flatnonzero(res.needs_data)
    m = active.size
    n_blocks = -(-m // rows)
    out = []
    for blk in range(n_blocks):
        idx = active[blk * m // n_blocks:(blk + 1) * m // n_blocks]
        out.append((idx.size, int((res.dist_per_row[idx] > 1).sum())))
    return out


@st.composite
def instances(draw, grids=(1.0, 0.5, 0.1)):
    """Small instances on an integer grid: exact ties and duplicate
    centroids (``cc[b, c] == 0``) are common."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    grid = draw(st.sampled_from(grids))
    cells = st.integers(-4, 4)
    x = np.array(
        draw(st.lists(cells, min_size=n * d, max_size=n * d)), dtype=float
    ).reshape(n, d) * grid
    # Initial centroids are data rows drawn with replacement, so some
    # coincide; the later centroid sets are free grid points.
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    c0 = x[rows].copy()
    moves = draw(st.lists(
        st.one_of(
            st.none(),  # the Lloyd update the iteration produced
            st.just("same"),  # zero motion
            st.lists(cells, min_size=k * d, max_size=k * d),
        ),
        min_size=1, max_size=5,
    ))
    return x, c0, grid, moves


def on_grid(c, grid):
    """Centroids rounded to the data grid."""
    return np.round(c / grid) * grid


def replay(moves, k, d, grid, snap=None):
    """``next_centroids`` for ``run_both`` from a drawn move list; a
    Lloyd move goes through ``snap`` if given."""

    def next_centroids(i, cur, res):
        if i > len(moves):
            return None
        move = moves[i - 1]
        if move is None:
            return res.new_centroids if snap is None else snap(
                res.new_centroids
            )
        if move == "same":
            return cur.copy()
        return np.array(move, dtype=float).reshape(k, d) * grid

    return next_centroids


@pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(inst=instances())
def test_kernel_matches_mask_oracle(inst, kernel):
    x, c0, grid, moves = inst
    k, d = c0.shape
    run_both(x, c0, kernel, replay(moves, k, d, grid))


# A block's candidate GEMM runs over that block's rows only, the
# oracle's over every candidate row at once. BLAS rounds a row the same
# whatever the call's row count only within one code path: numpy sends
# a one-row product to gemv, and OpenBLAS's small-matrix kernel and its
# large-matrix kernel round differently from each other. With data and
# centroids on the 0.5 and 1.0 grids every product and sum is exact (a
# Lloyd mean is not, so Lloyd steps are rounded back to the grid), no
# path can change a bit, and tiny blocks are pinned bit for bit. On
# inexact data a block with a single candidate row can differ from the
# oracle in the last bit. Full-size blocks (4096 rows at d=32) are
# split evenly, so on OpenBLAS a block whose rows mostly have a
# candidate stays on the large-matrix path.
@pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
@pytest.mark.parametrize("rows", [1, 3, 7])
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(inst=instances(grids=(1.0, 0.5)))
def test_multi_block_kernel_matches_mask_oracle(inst, rows, kernel):
    x, c0, grid, moves = inst
    k, d = c0.shape

    def snap(c):
        return on_grid(c, grid)

    with block_rows(rows, d):
        run_both(x, c0, kernel, replay(moves, k, d, grid, snap), snap)


@pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
@pytest.mark.parametrize("rows", [3, 7])
def test_multi_block_cases_are_exercised(rows, kernel):
    """One fixed run that is known to walk every kind of block: blocks
    of unequal size, a block with no candidate row (no GEMM at all),
    and a block where only some rows have one (the second gather)."""
    rng = np.random.default_rng(3)
    x = rng.integers(-6, 7, size=(61, 2)) * 0.5
    c0 = x[:5].copy()
    k, d = c0.shape
    seen = []

    def next_centroids(i, cur, res):
        seen.extend(blocks_of(res, rows))
        return on_grid(res.new_centroids, 0.5) if i < 6 else None

    with block_rows(rows, d):
        run_both(
            x, c0, kernel, next_centroids, lambda c: on_grid(c, 0.5)
        )
    sizes = {size for size, _ in seen}
    assert len(sizes) > 1  # m not a multiple of the block
    assert any(cand == 0 for _, cand in seen)
    assert any(0 < cand < size for size, cand in seen)


@pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_lloyd_run_matches_mask_oracle(k, kernel):
    """A converging run on real-valued data, k=1 and k=2 included."""
    rng = np.random.default_rng(k)
    centers = rng.normal(scale=3.0, size=(4, 5))
    x = np.vstack([rng.normal(c, 1.5, size=(120, 5)) for c in centers])
    c0 = x[rng.choice(len(x), k, replace=False)].copy()
    run_both(
        x, c0, kernel,
        lambda i, cur, res: res.new_centroids if i < 12 else None,
    )


@pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
def test_zero_motion_iteration(kernel):
    """Centroids that did not move: bounds are not loosened at all."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 4))
    c0 = x[:5].copy()
    k, d = c0.shape
    state_o, res = mti_init(x, c0, workspace=_workspace(kernel, k, d))
    state_n = copy.deepcopy(state_o)
    cur = res.new_centroids
    res = assert_same_iteration(x, cur, cur.copy(), state_o, state_n, kernel)
    assert not res.motion.any()


def test_duplicate_centroids_match_oracle():
    """Twin centroids: ``cc[b, c] == 0``, so neither prunes the other."""
    x = np.array([[0.0], [0.1], [5.0], [5.2]])
    c = np.array([[0.0], [0.0], [5.0]])
    state_o, _ = mti_init(x, c)
    state_n = copy.deepcopy(state_o)
    moved = c + np.array([[0.05], [0.0], [0.1]])
    assert_same_iteration(x, moved, c, state_o, state_n, None)


def count_fallbacks():
    """Patch ``ClauseThresholds.pruned`` to record the rows of every
    call: the kernel builds a pruned mask only for the rows whose
    unmasked argmin picked a pruned centroid."""
    calls = []
    real = ClauseThresholds.pruned

    def counting(self, b, count):
        calls.append(b.size)
        return real(self, b, count)

    return calls, mock.patch.object(ClauseThresholds, "pruned", counting)


@pytest.mark.parametrize("kernel", [None, "blocked", "gemm"])
def test_pruned_winner_takes_the_masked_fallback(kernel):
    """Row (1, 0) sits on the bisector of centroids 0 and 2. It is
    assigned to 2, and centroid 2's move loosens its bound past clause
    1. Its tightened bound equals 0.5 * d(2, 0), so clause 3 prunes
    centroid 0, yet the unmasked row ties 0 with 2 and argmin picks
    the lower index: the kernel must redo the row masked."""
    x = np.array([[1.0, 0.0]])
    prev = np.array([[2.0, 0.0], [0.0, 1.5], [0.5, 0.0]])
    cur = np.array([[2.0, 0.0], [0.0, 1.5], [0.0, 0.0]])
    k, d = cur.shape
    state_o, _ = mti_init(x, prev, workspace=_workspace(kernel, k, d))
    assert state_o.assignment.tolist() == [2]
    state_n = copy.deepcopy(state_o)

    # Precondition: past clause 1, centroid 0 pruned, centroid 1 a
    # candidate, and the unmasked argmin picks the pruned centroid 0.
    cc = pairwise_centroid_distances(cur)
    table = ClauseThresholds(cc)
    b = np.array([2])
    ub = state_o.ub + np.linalg.norm(cur - prev, axis=1)[b]
    assert ub[0] > 0.5 * np.delete(cc[2], 2).min()
    ut = euclidean(x, cur)[:, 2]
    n_tight = table.count_below(b, np.minimum(ub, ut))
    assert n_tight.tolist() == [1]
    assert table.is_candidate(b, np.array([1]), n_tight).all()
    assert not table.is_candidate(b, np.array([0]), n_tight).any()
    unmasked = euclidean(x, cur)
    unmasked[0, 2] = ut[0]
    assert np.argmin(unmasked, axis=1).tolist() == [0]

    calls, patch = count_fallbacks()
    with patch:
        assert_same_iteration(x, cur, prev, state_o, state_n, kernel)
    assert calls == [1]
    assert state_n.assignment.tolist() == [2]


def test_hypothesis_instances_reach_the_fallback():
    """The bit-equality properties above cover the masked fallback, not
    just the unmasked fast path: grid instances put rows on bisectors
    often enough that some pruned centroid wins an unmasked argmin."""
    calls, patch = count_fallbacks()

    @settings(
        max_examples=150, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(inst=instances())
    def run(inst):
        x, c0, grid, moves = inst
        k, d = c0.shape
        run_both(x, c0, None, replay(moves, k, d, grid))

    with patch:
        run()
    assert calls


def assert_counts_match_dense(cc, b, u):
    """``count_below`` is the number of thresholds strictly under the
    bound, and ``pruned`` marks exactly the centroids not counted."""
    table = ClauseThresholds(cc)
    half_cc = 0.5 * cc
    np.fill_diagonal(half_cc, np.inf)
    below = half_cc[b] < u[:, None]
    counts = table.count_below(b, u)
    assert np.array_equal(counts, below.sum(axis=1))
    assert np.array_equal(table.pruned(b, counts), ~below)
    # The O(m) per-row lookup agrees with the mask, column by column.
    for c in range(cc.shape[0]):
        assert np.array_equal(
            table.is_candidate(b, np.full(b.size, c), counts), below[:, c]
        )


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 20), data=st.data())
def test_threshold_counts_on_grid(k, data):
    cells = st.integers(0, 6)
    vals = np.array(
        data.draw(st.lists(cells, min_size=k * k, max_size=k * k)),
        dtype=float,
    ).reshape(k, k)
    cc = vals + vals.T
    np.fill_diagonal(cc, 0.0)
    m = data.draw(st.integers(1, 30))
    b = np.array(data.draw(st.lists(
        st.integers(0, k - 1), min_size=m, max_size=m)))
    u = np.array(data.draw(st.lists(
        st.one_of(st.integers(0, 7).map(float), st.just(np.inf)),
        min_size=m, max_size=m,
    )))
    assert_counts_match_dense(cc, b, u)


def test_threshold_counts_on_real_pairwise():
    rng = np.random.default_rng(0)
    cc = pairwise_centroid_distances(rng.normal(size=(33, 3)))
    assert_counts_match_dense(
        cc, rng.integers(0, 33, 500), rng.uniform(0, 3, 500)
    )
