"""CRC32 data integrity: real checks where bytes are real, a model
where they are not.

* **Checkpoint arrays** (:mod:`repro.sem.checkpoint`, formats v3-v4):
  real CRC32 over the actual array bytes and the on-disk arrays file,
  verified on load.
* **Allreduce payloads** (:func:`repro.faults.faulty_collective_ns`):
  real CRC32 over the reduced centroid bytes.
* **SSD pages and cached rows** are *modelled*. The numerics read the
  matrix directly, never through the fetch path, so there are no
  fetched bytes to checksum. :class:`PageIntegrity` decides detection
  from the fault plan's victim -- a single-byte flip, which CRC32
  always catches -- and counts the pages and rows it stands for.

Verification runs only when the fault plan fires a corruption; with
nothing injected it is modelled as free, so fault-free runs stay
bit-identical in both planes.
"""

from __future__ import annotations

import zlib

import numpy as np


def crc32_bytes(data: bytes) -> int:
    """CRC32 of a byte string (zlib polynomial, unsigned)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def array_crc32(arr: np.ndarray) -> int:
    """CRC32 of an array's C-contiguous buffer."""
    return crc32_bytes(np.ascontiguousarray(arr).tobytes())


def flip_byte(data: bytes, offset: int) -> bytes:
    """Return a copy of ``data`` with one bit-complemented byte."""
    if not 0 <= offset < len(data):
        offset = offset % len(data)
    out = bytearray(data)
    out[offset] ^= 0xFF
    return bytes(out)


class PageIntegrity:
    """Modelled page and cached-row verification with detection counters.

    One instance per :class:`~repro.sem.safs.Safs`. SAFS calls
    :meth:`verify_pages` on a batch whose page the fault plan
    corrupted, and the row engine calls :meth:`verify_row` on a
    corrupted cache line; a flipped page or row is always detected.
    """

    def __init__(self) -> None:
        self.pages_verified = 0
        self.rows_verified = 0
        self.corruptions_detected = 0

    def verify_pages(
        self, pages: np.ndarray, corrupt_page: int | None = None
    ) -> bool:
        """Verify a batch of page reads; return True if all clean.

        ``corrupt_page`` marks the page whose device read the fault
        plan flipped; the caller quarantines and repairs it.
        """
        pages = np.asarray(pages)
        self.pages_verified += pages.size
        if corrupt_page is None:
            return True
        bad = int(np.count_nonzero(pages == corrupt_page))
        self.corruptions_detected += bad
        return bad == 0

    def verify_row(self, row: int, *, corrupted: bool) -> bool:
        """Verify one DRAM-cached row; return True if clean."""
        self.rows_verified += 1
        if corrupted:
            self.corruptions_detected += 1
        return not corrupted
