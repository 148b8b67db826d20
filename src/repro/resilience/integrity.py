"""CRC32 data-integrity layer.

Three storage tiers get checksummed:

* **SSD pages.** SAFS conceptually stamps a CRC32 per page at
  write/ingest time. In the simulation the page *contents* never
  move (the numerics plane reads the memmapped matrix directly), so
  a page is represented by a deterministic token derived from its
  index; the stored checksum is the CRC of that token, computed
  lazily -- equivalent to an ingest-time stamp because tokens are
  immutable. A corrupted device read returns the token with one byte
  flipped; verification recomputes the CRC over the returned bytes
  and compares. CRC32 detects every single-byte flip, so detection
  recall is 100% by construction *and* exercised with real CRC
  arithmetic on every verify.
* **Checkpoint arrays** (:mod:`repro.sem.checkpoint`, formats v3-v4): real
  CRC32 over the actual array bytes and the on-disk arrays file,
  verified on load.
* **Allreduce payloads** (:func:`repro.faults.faulty_collective_ns`):
  real CRC32 over the reduced centroid bytes.

Checksum verification runs whenever a fault plan is attached; with
no plan attached there is nothing that could corrupt data, and the
checks are modeled as free so fault-free runs stay bit-identical in
both planes.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Bytes of the deterministic token standing in for a page's content.
_TOKEN_BYTES = 16


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


def page_token(page: int) -> bytes:
    """The deterministic byte token standing in for page ``page``."""
    return (int(page) * 0x9E3779B97F4A7C15 % (1 << 128)).to_bytes(
        _TOKEN_BYTES, "little"
    )


def row_token(row: int) -> bytes:
    """The deterministic byte token standing in for cached row ``row``."""
    return page_token(~int(row))


class PageIntegrity:
    """Per-page CRC32 verification with detection counters.

    One instance per :class:`~repro.sem.safs.Safs`; every fetched or
    admitted page passes through :meth:`verify_pages` when faults are
    enabled, and the counters feed the resilience metrics / the
    100%-recall corruption matrix.
    """

    def __init__(self) -> None:
        self.pages_verified = 0
        self.rows_verified = 0
        self.corruptions_detected = 0

    @staticmethod
    def expected_page_crc(page: int) -> int:
        return crc32_bytes(page_token(page))

    def verify_pages(
        self, pages: np.ndarray, corrupt_page: int | None = None
    ) -> bool:
        """CRC-verify a batch of page reads; return True if all clean.

        ``corrupt_page`` marks the page whose device read came back
        with a flipped byte (injected by the fault plan); its CRC
        mismatch is what the caller quarantines and repairs.
        """
        ok = True
        for page in np.asarray(pages).tolist():
            data = page_token(page)
            if corrupt_page is not None and page == corrupt_page:
                data = flip_byte(data, page % _TOKEN_BYTES)
            good = crc32_bytes(data) == self.expected_page_crc(page)
            self.pages_verified += 1
            if not good:
                self.corruptions_detected += 1
                ok = False
        return ok

    def verify_row(self, row: int, *, corrupted: bool) -> bool:
        """CRC-verify one DRAM-cached row; return True if clean."""
        data = row_token(row)
        if corrupted:
            data = flip_byte(data, row % _TOKEN_BYTES)
        good = crc32_bytes(data) == crc32_bytes(row_token(row))
        self.rows_verified += 1
        if not good:
            self.corruptions_detected += 1
        return good
