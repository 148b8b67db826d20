"""Baselines and comparators.

Everything the paper measures knor *against*:

* :mod:`repro.baselines.gemm` -- real, wall-clock-timed serial k-means
  iterations (iterative blocked vs. GEMM-trick), the Table 3
  measurement.
* :mod:`repro.baselines.naive_parallel` -- the naive parallel Lloyd's
  with a shared, locked phase-II centroid structure that Section 3
  motivates ||Lloyd's against.
* :mod:`repro.baselines.frameworks` -- cost-model comparators for
  MLlib, H2O and Turi (single machine and EC2), running the identical
  unpruned ||Lloyd's numerics with each framework's architectural
  overheads (JVM/serialization multipliers, shuffle/driver collection,
  no pruning, no NUMA placement).
* :mod:`repro.baselines.mpi_pure` -- the paper's own pure-MPI
  ||Lloyd's (one single-threaded rank per core, no NUMA binding), the
  Figure 12 baseline.
* :mod:`repro.baselines.minibatch` -- mini-batch k-means (Sculley /
  Sophia-ML style), the approximate competitor discussed in Related
  Work and a Section 9 extension target.
"""

from repro.baselines.gemm import time_serial_iteration
from repro.baselines.naive_parallel import naive_parallel_lloyd
from repro.baselines.frameworks import (
    FRAMEWORKS,
    FrameworkSpec,
    framework_kmeans,
)
from repro.baselines.mpi_pure import mpi_lloyd
from repro.baselines.minibatch import minibatch_kmeans

__all__ = [
    "time_serial_iteration",
    "naive_parallel_lloyd",
    "FRAMEWORKS",
    "FrameworkSpec",
    "framework_kmeans",
    "mpi_lloyd",
    "minibatch_kmeans",
]
