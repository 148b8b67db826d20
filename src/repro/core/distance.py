"""Euclidean distance kernels.

One definition of distance is used across the whole library so every
algorithm (serial Lloyd's, ||Lloyd's, MTI, Elkan) sees *identical*
floating-point values -- that is what makes the exact-equivalence tests
between pruned and unpruned runs meaningful.

The kernel is the textbook expanded form
``d(x, c)^2 = |x|^2 - 2 x.c + |c|^2`` evaluated blockwise with a GEMM,
clamped at zero before the square root (the expansion can go slightly
negative for near-identical vectors).

Every kernel accepts optional precomputed inputs and output buffers so
a per-iteration :class:`~repro.core.workspace.DistanceWorkspace` can
(a) compute the centroid norms ``|c|^2`` once per iteration instead of
once per call and (b) reuse one ``(rows, k)`` temporary across
blocks instead of reallocating it. Both paths produce bit-identical
values: ``-(2g)`` equals ``(-2)g`` exactly in IEEE-754, and float
addition is commutative, so the in-place evaluation order matches the
expression form to the last bit (asserted by the golden-value suite).

Kernel strategies
-----------------
:func:`nearest_centroid` offers two selectable strategies:

* ``"blocked"`` (default) -- the bit-identical reference: per block,
  the full distance expression ``sqrt(max(0, |x|^2 - 2g + |c|^2))`` is
  materialized over the whole ``(m, k)`` buffer before the argmin.
* ``"gemm"`` -- the communication-avoiding formulation: row norms
  ``|x|^2`` are computed once per data array (cached by the
  workspace across iterations), the GEMM consumes a pre-scaled
  ``(-2 C)^T`` so the ``*= -2`` pass disappears, and the argmin runs
  over ``q = -2 X C^T + |c|^2`` directly -- ``|x|^2`` is constant per
  row and ``sqrt`` is monotone, so neither changes the argmin. The
  clamp + sqrt then run only on the ``n`` winning entries instead of
  all ``n * k``, eliminating roughly half the full-matrix memory
  passes.

The two strategies are *ULP-equivalent*, not bit-identical: ``gemm``
adds ``|x|^2`` after ``|c|^2`` where ``blocked`` adds it before, and
one float reassociation perturbs the squared distance by a few ulps
of the ``|x|^2 + |c|^2`` magnitude (``GEMM_ULP_BOUND``). Assignments
agree everywhere except exact floating-point ties, which the
equivalence suite pins. Exact ties (duplicate centroids) produce
bitwise-equal candidates under both strategies, so argmin's
lowest-index rule picks the same centroid.

One block budget
----------------
:data:`BLOCK_BYTES` is the one budget of every full-data pass in
:mod:`repro.core`: :func:`nearest_centroid` (both strategies), the
workspace's row-norm miss pass, the streamed centroid sums of
:mod:`repro.core.centroids`, MTI's post-clause-1 blocks, Elkan's
iteration-0 matrix and the drivers' finiteness and inertia passes all
walk at most ``BLOCK_BYTES // (8 * d)`` rows at a time. A float32 or
memmapped matrix is widened to float64 one such block at a time, so no
pass holds more than one block of temporaries per thread, and a pass
over an ``(n, d)`` matrix never costs another ``(n, d)`` array.

:func:`nearest_centroid` splits its ``n`` rows into even blocks under
that budget, a function of ``(n, d)`` only: block sizes differ by at
most a row, so none is a sliver for which BLAS would take its
small-matrix path (which rounds differently), and each row's distances
are the same bits whatever the block size. With ``workers > 1`` the
blocks run on host threads
(:mod:`repro.core.hostpool`); MTI's iteration-0 pass does this, on the
same pool and under the same rules as its later iterations. A pass of
one block (a serve batch, a small shard) dispatches nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.hostpool import block_bounds, even_blocks, run_blocks
from repro.errors import ConfigError, DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workspace import DistanceWorkspace

#: The one block budget of the kernels: a full-data pass walks its
#: rows in blocks of at most ``BLOCK_BYTES // (8 * d)`` rows (4096 at
#: d=32), i.e. one megabyte of float64 row data, so a block's widened
#: rows, norms and ``(rows, k)`` distances stay in L2 and no pass holds
#: more than one block of temporaries per thread.
BLOCK_BYTES = 1 << 20

#: Accepted values for the ``kernel`` strategy parameter.
KERNEL_STRATEGIES = ("blocked", "gemm")

#: Pinned bound on the squared-distance delta between the two kernel
#: strategies, in ulps of the ``|x|^2 + |c|^2`` magnitude the
#: reassociated addition rounds at (see the equivalence suite).
GEMM_ULP_BOUND = 4


def check_kernel(kernel: str) -> str:
    """Validate a ``kernel`` strategy argument and pass it through."""
    if kernel not in KERNEL_STRATEGIES:
        raise ConfigError(
            f"kernel must be one of {KERNEL_STRATEGIES}, got {kernel!r}"
        )
    return kernel


def row_norms(
    x: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared row norms ``|x_i|^2``, the shared norm helper.

    Each row's norm is an independent reduction over ``d``, so the
    values are bit-identical whether computed per block, on gathered
    rows, or over the whole array -- which is what lets the workspace
    cache them per data array and slice, and lets the serial GEMM
    baseline share this helper with the kernel strategy.
    """
    return np.einsum("ij,ij->i", x, x, out=out)


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DatasetError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def as_rows(a: np.ndarray, name: str = "x") -> np.ndarray:
    """``a`` as a 2-D floating-point row matrix, for kernels that widen
    per block.

    A floating-point ndarray is kept as given: a float32 matrix or a
    memmap view is never copied whole. Kernels widen each gathered
    block with ``np.asarray(block, dtype=np.float64)``, which is exact,
    so the results are those of the whole matrix widened to float64.
    Anything else is converted to float64 here.
    """
    if not (isinstance(a, np.ndarray) and a.dtype.kind == "f"):
        a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DatasetError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def euclidean(
    x: np.ndarray,
    c: np.ndarray,
    *,
    c_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
    x_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``x`` and ``c``.

    Returns an ``(len(x), len(c))`` float64 matrix.

    ``c_sq`` supplies precomputed centroid norms ``|c|^2`` (a
    workspace computes them once per iteration); ``x_sq`` supplies
    precomputed row norms ``|x|^2`` (per-row reductions, so gathered
    or cached norms are bit-identical to inline ones); ``out``
    supplies a preallocated ``(len(x), len(c))`` float64 result
    buffer. All three are pure optimizations -- the returned values
    are bit-identical either way.
    """
    x = _as_matrix(x, "x")
    c = _as_matrix(c, "c")
    _check_dims(x, c)
    if c_sq is None:
        c_sq = row_norms(c)
    return _distances(x, c, c_sq, out, x_sq)


def _check_dims(x: np.ndarray, c: np.ndarray) -> None:
    if x.shape[1] != c.shape[1]:
        raise DatasetError(
            f"dimension mismatch: x has d={x.shape[1]}, c has d={c.shape[1]}"
        )


def _distances(
    x: np.ndarray,
    c: np.ndarray,
    c_sq: np.ndarray,
    out: np.ndarray | None,
    x_sq: np.ndarray | None,
) -> np.ndarray:
    """:func:`euclidean`'s arithmetic on float64 matrices of matching
    ``d`` (the kernels' blocks, already validated once per pass)."""
    if x_sq is None:
        x_sq = row_norms(x)
    if out is None:
        sq = x_sq[:, None] - 2.0 * (x @ c.T) + c_sq[None, :]
    else:
        # Same arithmetic in place: x_sq + (-2)*g + c_sq.
        sq = np.matmul(x, c.T, out=out)
        sq *= -2.0
        sq += x_sq[:, None]
        sq += c_sq[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def pairwise_centroid_distances(
    c: np.ndarray,
    *,
    c_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The O(k^2) centroid-to-centroid distance matrix MTI maintains.

    Symmetric with a zero diagonal; MTI stores only a triangle in the
    real system, which the memory accounting reflects, but the full
    matrix is returned here for vectorized indexing.
    """
    return euclidean(c, c, c_sq=c_sq, out=out)


def half_min_inter_centroid(
    cc: np.ndarray,
    *,
    scratch: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``s(c) = 0.5 * min_{c' != c} d(c, c')`` for every centroid.

    This is the clause-1 threshold (Elkan 2003, and Section 4 of the
    paper -- whose prose omits the 1/2 factor that correctness
    requires; the released knor code uses it).

    The diagonal is excluded by writing ``inf`` into a copy of ``cc``
    (``scratch`` reuses one preallocated k x k buffer) rather than
    materializing a fresh ``np.eye`` boolean mask every iteration; the
    off-diagonal values are untouched, so the minima are bit-identical
    to the historical masked-add form.
    """
    k = cc.shape[0]
    if k == 1:
        # A single centroid has no neighbour; clause 1 always holds.
        return np.array([np.inf])
    masked = np.empty_like(cc) if scratch is None else scratch
    np.copyto(masked, cc)
    np.fill_diagonal(masked, np.inf)
    if out is None:
        return 0.5 * masked.min(axis=1)
    masked.min(axis=1, out=out)
    out *= 0.5
    return out


def nearest_centroid(
    x: np.ndarray,
    c: np.ndarray,
    *,
    block_rows: int | None = None,
    workspace: "DistanceWorkspace | None" = None,
    kernel: str | None = None,
    x_sq_out: np.ndarray | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest centroid for every row (Phase I of Lloyd's).

    Returns ``(assignment int32, distance float64)``. Ties break toward
    the lowest centroid index (argmin semantics), consistently across
    all algorithms.

    The rows are walked in even blocks of at most :data:`BLOCK_BYTES`
    of float64 row data each, a function of ``(n, d)`` only. An
    explicit ``block_rows`` walks fixed strides of that many rows
    instead, the last block taking the remainder (the pre-budget
    kernel's partition). With a ``workspace``, centroid norms come
    from the per-iteration cache and every block writes into one
    preallocated distance buffer instead of reallocating ``(rows, k)``
    temporaries.

    ``kernel`` selects the strategy (module docstring): ``"blocked"``
    is the bit-identical reference, ``"gemm"`` the ULP-equivalent fast
    path. ``None`` defers to the workspace's configured strategy (or
    ``"blocked"`` without one).

    A float32 ``x`` is widened to float64 one block at a time (exact),
    never as a whole. Under ``"blocked"``, ``x_sq_out`` is an ``(n,)``
    buffer that receives every row's squared norm as the pass takes it
    (``mti_init`` fills the workspace's norm cache this way).

    ``workers > 1`` runs the blocks on up to that many host threads
    (:func:`repro.core.hostpool.run_blocks`). Each row's arithmetic is
    its own and the partition does not depend on ``workers``, so the
    results are the same bits. The workspace's distance buffer serves
    a serial pass only; pooled blocks allocate their own.
    """
    x = as_rows(x)
    c = _as_matrix(c, "c")
    _check_dims(x, c)
    n, d = x.shape
    if kernel is None:
        kernel = "blocked" if workspace is None else workspace.kernel
    check_kernel(kernel)
    if workspace is not None:
        c = workspace.ensure(c)
        c_sq = workspace.c_sq
    else:
        c_sq = row_norms(c)
    x_sq = neg2ct = None
    if kernel == "gemm":
        if workspace is not None:
            x_sq = workspace.x_sq(x)
            neg2ct = workspace.neg2ct
        else:
            # Scaling by -2 is exact in IEEE-754 and the .T view keeps
            # the BLAS layout identical to ``x @ c.T``, so the GEMM
            # output equals ``-2 * (x @ c.T)`` to the last bit.
            neg2ct = (c * -2.0).T
    assign = np.empty(n, dtype=np.int32)
    mindist = np.empty(n, dtype=np.float64)
    if block_rows is None:
        n_blocks = even_blocks(n, max(1, BLOCK_BYTES // (8 * d)))
    else:
        n_blocks = even_blocks(n, block_rows)
    if n_blocks <= 1:
        # One block (a serve batch, a small shard): no dispatch.
        if n:
            _assign_block(
                x, c, c_sq, kernel, neg2ct, x_sq, x_sq_out,
                None if workspace is None else workspace.dist_buffer(n),
                assign, mindist,
            )
        return assign, mindist

    def run(blk: int, buf: np.ndarray | None) -> None:
        if block_rows is None:
            lo, hi = block_bounds(blk, n_blocks, n)
        else:
            lo, hi = blk * block_rows, min(n, (blk + 1) * block_rows)
        _assign_block(
            x[lo:hi], c, c_sq, kernel, neg2ct,
            None if x_sq is None else x_sq[lo:hi],
            None if x_sq_out is None else x_sq_out[lo:hi],
            None if buf is None else buf[: hi - lo],
            assign[lo:hi], mindist[lo:hi],
        )

    n_workers = max(1, min(workers, n_blocks))
    if workspace is None or n_workers > 1:
        # Pooled blocks take their (rows, k) distances as plain numpy
        # temporaries, freed as each block ends: no manager call leaves
        # the calling thread, and no workers-wide buffer outlives the
        # pass.
        bufs = [None] * n_workers
    else:
        largest = -(-n // n_blocks) if block_rows is None else block_rows
        bufs = [workspace.dist_buffer(min(n, largest))]
    run_blocks(n_blocks, run, bufs)
    return assign, mindist


def _assign_block(
    xb: np.ndarray,
    c: np.ndarray,
    c_sq: np.ndarray,
    kernel: str,
    neg2ct: np.ndarray | None,
    xb_sq: np.ndarray | None,
    xb_sq_out: np.ndarray | None,
    out: np.ndarray | None,
    assign: np.ndarray,
    mindist: np.ndarray,
) -> None:
    """Assign one block of :func:`nearest_centroid`'s rows, writing
    ``assign`` and ``mindist`` (the block's slices of the results).

    ``xb_sq`` is the block's cached row norms (``gemm``), ``xb_sq_out``
    the block's slice of the caller's norm buffer (``blocked``) and
    ``out`` an ``(m, k)`` distance buffer, or ``None`` for a fresh one.
    """
    xb = np.asarray(xb, dtype=np.float64)
    rows = np.arange(xb.shape[0])
    if kernel == "gemm":
        # One GEMM against the pre-scaled ``(-2 C)^T``, one ``|c|^2``
        # broadcast-add, one argmin -- then clamp + sqrt only on the
        # ``m`` winners.
        q = np.matmul(xb, neg2ct, out=out)
        q += c_sq[None, :]
        a = np.argmin(q, axis=1).astype(np.int32, copy=False)
        sq = q[rows, a] + (row_norms(xb) if xb_sq is None else xb_sq)
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=mindist)
    else:
        if xb_sq_out is not None:
            xb_sq = row_norms(xb, out=xb_sq_out)
        dist = _distances(xb, c, c_sq, out, xb_sq)
        a = np.argmin(dist, axis=1)
        mindist[:] = dist[rows, a]
    assign[:] = a


def rows_to_centroids(
    x: np.ndarray,
    c: np.ndarray,
    idx: np.ndarray,
    *,
    c_sq: np.ndarray | None = None,
    x_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Distance from each row ``x[i]`` to its *own* centroid ``c[idx[i]]``.

    The tightening step ``U(u)`` of MTI clause 3: one exact distance per
    row, not a full row-by-centroid matrix. Uses the same expanded form
    as :func:`euclidean` so the two paths agree to the last few ulps.

    ``c_sq`` supplies precomputed centroid norms; gathering
    ``c_sq[idx]`` is bit-identical to re-deriving the norms from the
    gathered rows (each row's norm is an independent reduction).
    ``x_sq`` does the same for the row norms (the gemm kernel strategy
    feeds the workspace's per-array cache through here).
    """
    x = _as_matrix(x, "x")
    sel = c[idx]
    sel_sq = row_norms(sel) if c_sq is None else c_sq[idx]
    if x_sq is None:
        x_sq = row_norms(x)
    sq = (
        x_sq
        - 2.0 * np.einsum("ij,ij->i", x, sel)
        + sel_sq
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)
