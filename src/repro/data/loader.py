"""Import external data into the knor binary layout.

A downstream user's data rarely starts life as a ``.knor`` file; these
helpers take the two formats ubiquitous in practice (delimited text
and NumPy ``.npy``) and convert them, validating shape and dtype on
the way. Conversion goes through :func:`repro.data.write_matrix`, so
everything downstream (knors, the CLI, SAFS geometry) sees one format.

Non-finite rows (NaN/inf) are rejected by default -- a NaN anywhere in
the matrix poisons every distance computation it touches and k-means
silently returns garbage. ``allow_nonfinite=True`` is the explicit
escape hatch for pipelines that sanitize downstream.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.matrixfile import write_matrix
from repro.errors import DatasetError


def _check_finite(x: np.ndarray, origin: str) -> None:
    """Reject NaN/inf cells, naming the offending rows."""
    finite = np.isfinite(x).all(axis=1)
    if finite.all():
        return
    bad = np.nonzero(~finite)[0]
    shown = bad[:8].tolist()
    more = f" (+{bad.size - 8} more)" if bad.size > 8 else ""
    raise DatasetError(
        f"{origin}: {bad.size} rows contain NaN/inf (rows "
        f"{shown}{more}); clean the data or pass allow_nonfinite=True "
        "to accept them"
    )


def load_csv(
    path: str | Path,
    *,
    delimiter: str = ",",
    skip_header: int = 0,
    allow_nonfinite: bool = False,
) -> np.ndarray:
    """Load a delimited text matrix as float64 rows.

    Raises :class:`DatasetError` on ragged rows or non-numeric cells
    rather than propagating numpy's looser behaviours. NaN/inf cells
    (genfromtxt's signature for both) are rejected unless
    ``allow_nonfinite`` is set.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: no such file")
    try:
        x = np.genfromtxt(
            path, delimiter=delimiter, skip_header=skip_header,
            dtype=np.float64, ndmin=2,
        )
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed text matrix: {exc}") from exc
    if x.size == 0:
        raise DatasetError(f"{path}: expected a non-empty 2-D matrix")
    if not allow_nonfinite:
        _check_finite(x, str(path))
    return np.ascontiguousarray(x)


def load_npy(
    path: str | Path, *, allow_nonfinite: bool = False
) -> np.ndarray:
    """Load a ``.npy`` matrix, coercing to float64 rows.

    Non-numeric and complex dtypes are rejected (casting complex would
    drop the imaginary part). NaN/inf rows are rejected with a
    :class:`DatasetError` naming the offending rows unless
    ``allow_nonfinite`` is set.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: no such file")
    try:
        x = np.load(path, allow_pickle=False)
    except ValueError as exc:
        raise DatasetError(f"{path}: not a loadable .npy: {exc}") from exc
    if x.ndim != 2:
        raise DatasetError(
            f"{path}: expected a 2-D array, got shape {x.shape}"
        )
    if not np.issubdtype(x.dtype, np.number):
        raise DatasetError(f"{path}: non-numeric dtype {x.dtype}")
    if np.issubdtype(x.dtype, np.complexfloating):
        raise DatasetError(f"{path}: complex dtype {x.dtype}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if not allow_nonfinite:
        _check_finite(x, str(path))
    return x


def convert_to_knor(
    src: str | Path,
    dst: str | Path,
    *,
    fmt: str | None = None,
    delimiter: str = ",",
    skip_header: int = 0,
    allow_nonfinite: bool = False,
) -> Path:
    """Convert a CSV/NPY matrix to the knor binary layout.

    ``fmt`` is inferred from the suffix when None (``.npy`` vs
    anything else = delimited text). ``allow_nonfinite`` passes
    NaN/inf rows through instead of rejecting them.
    """
    src = Path(src)
    if fmt is None:
        fmt = "npy" if src.suffix == ".npy" else "csv"
    if fmt == "npy":
        x = load_npy(src, allow_nonfinite=allow_nonfinite)
    elif fmt == "csv":
        x = load_csv(
            src, delimiter=delimiter, skip_header=skip_header,
            allow_nonfinite=allow_nonfinite,
        )
    else:
        raise DatasetError(f"unknown format {fmt!r}; use 'csv' or 'npy'")
    return write_matrix(dst, x)
