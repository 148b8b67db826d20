"""Task construction: carve the dataset into contiguous row blocks.

The paper defines a task as "a block of data points in contiguous
memory given to a thread for computation" with a minimum task size of
8192 rows -- empirically small enough not to introduce artificial skew
on billion-point data (Section 8.4). Each block's exact work content
(rows needing data, distance computations after pruning) comes from the
algorithm's per-row statistics; this module only aggregates them, with
one segmented reduction (``np.add.reduceat``) per statistic over the
block starts rather than a Python loop over blocks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulerError
from repro.simhw.engine import TaskWork
from repro.simhw.machine import SimMachine

#: The paper's minimum task size (rows per block).
DEFAULT_TASK_ROWS = 8192


def auto_task_rows(n_rows: int, n_threads: int) -> int:
    """Task granularity scaled to the dataset.

    The paper's 8192-row minimum is tuned for billion-point data ("small
    enough to not artificially introduce skew in billion-point
    datasets"). At reproduction scale the same *ratio* matters: enough
    tasks per thread (~32; the paper's own billion-point runs give each
    thread ~170) that stealing can balance pruning skew, subject to the
    8192 ceiling and a floor that keeps per-task overhead sane.
    """
    if n_rows <= 0 or n_threads <= 0:
        raise SchedulerError("n_rows and n_threads must be positive")
    return max(64, min(DEFAULT_TASK_ROWS, -(-n_rows // (32 * n_threads))))


def build_task_blocks(
    n_rows: int,
    d: int,
    machine: SimMachine,
    *,
    dist_per_row: np.ndarray | None = None,
    needs_data: np.ndarray | None = None,
    task_rows: int = DEFAULT_TASK_ROWS,
    itemsize: int = 8,
    state_bytes_per_row: int = 12,
) -> list[TaskWork]:
    """Aggregate per-row stats into :class:`TaskWork` blocks.

    Parameters
    ----------
    n_rows, d:
        Dataset shape.
    machine:
        Supplies the NUMA placement of each block (Figure 1 layout or
        oblivious single-bank, depending on the machine's bind policy).
    dist_per_row:
        Exact distance computations performed per row this iteration.
        ``None`` means the unpruned ``k`` -- callers must pass the
        pruned counts themselves since this module does not know ``k``.
    needs_data:
        Boolean mask of rows whose row-data must be streamed (MTI
        clause 1 skips both compute *and* the data read). ``None``
        means every row is read.
    task_rows:
        Block granularity; the last block may be short.
    itemsize:
        Bytes per matrix element (8 for float64).
    state_bytes_per_row:
        Per-row algorithm state (4 B assignment + 8 B upper bound).
    """
    if n_rows <= 0:
        raise SchedulerError(f"n_rows must be positive, got {n_rows}")
    if task_rows <= 0:
        raise SchedulerError(f"task_rows must be positive, got {task_rows}")
    if dist_per_row is None:
        raise SchedulerError(
            "dist_per_row is required: pass k per row for unpruned runs"
        )
    dist_per_row = np.asarray(dist_per_row)
    if dist_per_row.shape != (n_rows,):
        raise SchedulerError(
            f"dist_per_row shape {dist_per_row.shape} != ({n_rows},)"
        )
    if not np.issubdtype(dist_per_row.dtype, np.integer):
        raise SchedulerError(
            f"dist_per_row must hold integer counts, got {dist_per_row.dtype}"
        )
    starts = np.arange(0, n_rows, task_rows)
    rows = np.minimum(starts + task_rows, n_rows) - starts
    n_dist = np.add.reduceat(dist_per_row, starts, dtype=np.int64)
    if needs_data is None:
        data_rows = rows
    else:
        needs_data_arr = np.asarray(needs_data, dtype=bool)
        if needs_data_arr.shape != (n_rows,):
            raise SchedulerError(
                f"needs_data shape {needs_data_arr.shape} != ({n_rows},)"
            )
        data_rows = np.add.reduceat(needs_data_arr, starts, dtype=np.int64)
    # Home node: where each block's slice of the dataset lives.
    homes = machine.nodes_of_row_blocks(starts / n_rows)

    row_bytes = d * itemsize
    return [
        TaskWork(
            task_id=block,
            n_rows=r,
            n_dist=nd,
            data_bytes=dr * row_bytes,
            state_bytes=r * state_bytes_per_row,
            home_node=home,
        )
        for block, (r, nd, dr, home) in enumerate(zip(
            rows.tolist(), n_dist.tolist(), data_rows.tolist(),
            homes.tolist(),
        ))
    ]
