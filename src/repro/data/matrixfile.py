"""On-disk row-major matrix format (knor's binary layout).

knor consumes raw row-major binary matrices; knors reads them through
SAFS at page granularity. We use the same layout with a small
self-describing header so tests can round-trip files:

``KNOR`` magic (4 bytes) | version u32 | n u64 | d u64 | dtype code u32,
followed by ``n * d`` elements, row-major, no padding.

:class:`MatrixFile` exposes page-oriented row access through a memmap,
which is what the simulated SAFS layer sits on: a row request maps to
byte offsets, byte offsets to filesystem pages, and the *actual data*
comes back from the real file -- the semi-external code path touches
real storage, only its timing is modeled.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.errors import DatasetError

_MAGIC = b"KNOR"
_VERSION = 1
_DTYPES = {0: np.float64, 1: np.float32}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_HEADER = struct.Struct("<4sIQQI")
HEADER_BYTES = _HEADER.size


def write_matrix(path: str | Path, x: np.ndarray) -> Path:
    """Write ``x`` (n, d) to ``path`` in knor binary layout."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise DatasetError(f"matrix must be 2-D, got shape {x.shape}")
    dtype = np.dtype(x.dtype)
    if dtype not in _DTYPE_CODES:
        raise DatasetError(f"unsupported dtype {dtype}; use float32/64")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC, _VERSION, x.shape[0], x.shape[1],
                _DTYPE_CODES[dtype],
            )
        )
        fh.write(np.ascontiguousarray(x).tobytes())
    return path


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a whole matrix into memory (for small files and tests)."""
    return MatrixFile(path).read_rows(None)


class MatrixFile:
    """Row-level access to an on-disk knor matrix via memmap."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            header = fh.read(HEADER_BYTES)
        if len(header) < HEADER_BYTES:
            raise DatasetError(f"{self.path}: truncated header")
        magic, version, n, d, code = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise DatasetError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DatasetError(f"{self.path}: unsupported version {version}")
        if code not in _DTYPES:
            raise DatasetError(f"{self.path}: unknown dtype code {code}")
        self.n = int(n)
        self.d = int(d)
        self.dtype = np.dtype(_DTYPES[code])
        # numpy caps every dimension and the byte size of an array at
        # intp, even when the other dimension is 0; read_rows widens
        # the rows to float64.
        if max(self.n, 1) * max(self.d, 1) * 8 > np.iinfo(np.intp).max:
            raise DatasetError(
                f"{self.path}: shape ({self.n}, {self.d}) is too large"
            )
        # The payload is exactly n * d elements: a longer file is as
        # malformed as a shorter one (a header claiming too small a d
        # would otherwise open and read misaligned rows).
        expected = HEADER_BYTES + self.n * self.d * self.dtype.itemsize
        actual = self.path.stat().st_size
        if actual != expected:
            raise DatasetError(
                f"{self.path}: file is {actual} bytes, but a {self.n} x "
                f"{self.d} {self.dtype} matrix is {expected} bytes"
            )
        self._mm = np.memmap(
            self.path,
            dtype=self.dtype,
            mode="r",
            offset=HEADER_BYTES,
            shape=(self.n, self.d),
        )

    @property
    def row_bytes(self) -> int:
        return self.d * self.dtype.itemsize

    def byte_range_of_row(self, row: int) -> tuple[int, int]:
        """(start, stop) byte offsets of one row within the data region.

        This is what the SAFS layer maps to filesystem pages.
        """
        if not 0 <= row < self.n:
            raise DatasetError(f"row {row} out of range (n={self.n})")
        start = row * self.row_bytes
        return start, start + self.row_bytes

    def row_view(self) -> np.ndarray:
        """Zero-copy (n, d) array view over the on-disk data region.

        Row accesses through the view hit the file at page granularity
        via the memmap -- this is the supported way for SEM drivers to
        index rows without loading the matrix.

        The data region starts at byte ``HEADER_BYTES`` (28), so the
        view is not 8-byte aligned (``flags.aligned`` is false). Gather
        rows with ``view[idx]``: ``np.take(view, idx, axis=0)`` on an
        unaligned array costs about as much as copying the whole matrix
        on every call, however few rows it takes.
        """
        return np.asarray(self._mm)

    def read_rows(self, rows: np.ndarray | None) -> np.ndarray:
        """Fetch rows by index (``None`` = all) as float64 copies."""
        if rows is None:
            return np.asarray(self._mm, dtype=np.float64).copy()
        rows = np.asarray(rows)
        return np.asarray(self._mm[rows], dtype=np.float64)

    def close(self) -> None:
        # memmap closes with GC; explicit close releases the handle now.
        if hasattr(self._mm, "_mmap") and self._mm._mmap is not None:
            self._mm._mmap.close()
        del self._mm

    def __enter__(self) -> "MatrixFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
