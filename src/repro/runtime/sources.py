"""Numerics sources: the algorithm side of an execution backend.

A source produces, per iteration, the exact per-row work statistics
(:class:`StepStats`) the hardware plane prices. The one source family
is :class:`~repro.runtime.mm.MMSource`, which wraps any
:class:`~repro.runtime.mm.MMAlgorithm` -- k-means
(:class:`~repro.runtime.mm.KmeansMM`, which knori and knors run) and
every custom algorithm alike. The in-memory and SEM backends consume
it through the :class:`NumericsSource` protocol.

:func:`resolve_row_data` turns a path, :class:`MatrixFile` or array
into the row view a semi-external run reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from repro.data.matrixfile import MatrixFile
from repro.errors import DatasetError


@dataclass
class StepStats:
    """One iteration's exact outputs, uniform across source families."""

    #: Compute per row, in point-centroid distance-column equivalents.
    dist_per_row: np.ndarray
    #: Rows whose data was touched (False = skipped wholesale; in SEM
    #: mode a False row issues no I/O request).
    needs_data: np.ndarray
    #: Observable progress (points that changed membership, ...).
    n_changed: int
    #: Centroid displacement since last iteration (None when the
    #: source does not track it, e.g. iteration 0 or non-k-means).
    motion: np.ndarray | None = None
    #: Pruning breakdown; zero for unpruned/non-k-means sources.
    clause1_rows: int = 0
    clause2_pruned: int = 0
    clause3_pruned: int = 0
    #: Bytes of algorithm state touched per active row.
    state_bytes: int = 8
    #: Each row's distance to its assigned centroid, where the step
    #: measured every row against every centroid; ``None`` otherwise.
    row_dist: np.ndarray | None = None


@runtime_checkable
class NumericsSource(Protocol):
    """What a backend pulls from each iteration."""

    def step(self, iteration: int) -> StepStats:  # pragma: no cover
        ...


def resolve_row_data(
    data: np.ndarray | str | Path | MatrixFile,
) -> tuple[np.ndarray, int, int]:
    """Resolve a data source to an indexable array plus ``(n, d)``.

    Paths resolve to a memmap-backed view, so row accesses during a
    SEM run read from the real file at page granularity.
    """
    if isinstance(data, MatrixFile):
        return data.row_view(), data.n, data.d
    if isinstance(data, (str, Path)):
        mf = MatrixFile(data)
        return mf.row_view(), mf.n, mf.d
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise DatasetError(f"data must be 2-D, got shape {x.shape}")
    return x, x.shape[0], x.shape[1]
