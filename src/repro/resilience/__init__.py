"""Cross-layer resilience: data integrity and degraded-mode handling.

knor's SEM and distributed engines page data through SSDs, DRAM
caches and network collectives -- exactly the layers where real
deployments corrupt data silently or stall on slow components. This
package supplies the two missing robustness primitives:

* :mod:`repro.resilience.integrity` -- the CRC32 and byte-flip
  helpers that checkpoint arrays and in-flight allreduce payloads are
  checked with (real bytes), and the modelled page and cached-row
  check SAFS and the row engine run when the fault plan corrupts one.
  Corruption injected by :mod:`repro.faults` is always *detected*,
  then repaired by quarantine + re-read from a clean source, or
  aborted with :class:`~repro.errors.CorruptionError` -- never
  clustered on.
* :mod:`repro.resilience.degraded` -- per-worker iteration-time EWMA
  straggler detection with a configurable slowdown threshold. The
  in-memory/SEM engines surface flagged threads (the work-stealing
  scheduler re-partitions their queues onto healthy threads); knord
  re-shards work off a slow machine and keeps running at reduced
  capacity instead of waiting on it.

Both halves live outside the numerics plane: checksums and EWMAs can
change simulated time and control flow, never a clustering result.
When no fault plan is attached, neither adds any simulated-time or
numeric drift (guarded by an equivalence test).
"""

from repro.resilience.integrity import (
    PageIntegrity,
    array_crc32,
    crc32_bytes,
    flip_byte,
)
from repro.resilience.degraded import StragglerDetector

__all__ = [
    "PageIntegrity",
    "StragglerDetector",
    "array_crc32",
    "crc32_bytes",
    "flip_byte",
]
