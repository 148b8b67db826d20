"""Pure-MPI ||Lloyd's: the paper's own distributed baseline (MPI / MPI-).

Section 8.9 compares knord against "a pure MPI distributed
implementation of our ||Lloyd's algorithm" -- one single-threaded rank
per physical core, optional MTI, and **no NUMA optimizations**: ranks
are placed by the OS, their pages land wherever first touch put them,
and there is no within-machine work stealing (static per-rank
partitions). knord outperforms it by 20-50% (Figure 12), which is the
NUMA dividend in isolation, since the numerics are identical.

Here the numerics run exactly as knord's -- the same
:class:`~repro.runtime.ShardedKmeans` fleet, one shard per rank --
while the cost side differs (:class:`~repro.runtime.PureMpiBackend`):

* per-rank compute pays a NUMA penalty factor (unpinned ranks make
  remote accesses when migrated);
* the allreduce spans ``machines x ranks_per_machine`` participants
  instead of knord's one-per-machine, so collective latency grows.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core import ConvergenceCriteria
from repro.core.distance import rows_to_centroids
from repro.dist import NetworkModel, SimComm, TEN_GBE
from repro.drivers.common import (
    check_pruning,
    check_x_k,
    default_criteria,
    resolve_init,
)
from repro.errors import ConfigError, DatasetError
from repro.mem import MemoryManager
from repro.metrics import RunResult
from repro.runtime import PureMpiBackend, RunEnv, RunObserver, ShardedKmeans
from repro.simhw import CostModel, EC2_C4_8XLARGE

#: Compute penalty of unpinned, OS-placed MPI ranks relative to knord's
#: bound threads (calibrated to Figure 12's 20-50% knord advantage).
MPI_NUMA_PENALTY = 1.35


def mpi_lloyd(
    x: np.ndarray,
    k: int,
    *,
    n_machines: int = 4,
    ranks_per_machine: int | None = None,
    pruning: str | None = "mti",
    cost_model: CostModel = EC2_C4_8XLARGE,
    network: NetworkModel = TEN_GBE,
    init: str | np.ndarray = "random",
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
    observers: Sequence[RunObserver] = (),
    faults: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    kernel: str = "blocked",
    allreduce: str = "tree",
    membership: Any = None,
    autoscaler: Any = None,
    mem: str | MemoryManager | None = None,
    mem_budget_bytes: int | None = None,
) -> RunResult:
    """Pure-MPI ||Lloyd's (``pruning=None`` gives the paper's MPI-).

    ``kernel`` selects the per-rank distance kernel strategy exactly
    as in :func:`repro.drivers.knori`. ``allreduce`` must stay
    ``"tree"``: the rectangular schedule needs a one-rank-per-machine
    grid, which the flat one-rank-per-core space does not have.
    ``mem``/``mem_budget_bytes`` select the memory manager for the
    per-rank workspaces and allreduce staging, as in
    :func:`repro.drivers.knori`; results are bit-identical across
    managers.
    """
    x = np.asarray(x, dtype=np.float64)
    pruning = check_pruning(pruning)
    if pruning == "elkan":
        raise ConfigError("mpi_lloyd supports pruning='mti' or None")
    k = check_x_k(x, k)
    crit = default_criteria(criteria)
    n, d = x.shape
    rpm = ranks_per_machine or cost_model.topology.physical_cores
    n_ranks = n_machines * rpm
    if n < n_ranks:
        raise DatasetError(f"n={n} rows cannot shard over {n_ranks} ranks")
    comm = SimComm(n_ranks, network)

    centroids0 = resolve_init(x, k, init, seed)
    env = RunEnv.resolve(
        observers=observers, faults=faults, retry_policy=retry_policy,
        membership=membership, autoscaler=autoscaler, mem=mem,
        mem_budget_bytes=mem_budget_bytes,
    )
    with env.use():
        sharded = ShardedKmeans(
            x, centroids0, pruning, n_ranks, k,
            kernel=kernel, allreduce=allreduce,
        )
        backend = env.cluster(
            PureMpiBackend, comm, sharded,
            dist_col_ns=cost_model.dist_base_ns
            + cost_model.dist_per_dim_ns * d,
            row_overhead_ns=cost_model.row_overhead_ns,
            numa_penalty=MPI_NUMA_PENALTY,
        )
        result = env.loop(backend, criteria=crit).run()

    assignment = sharded.assignment
    dist = rows_to_centroids(x, sharded.centroids, assignment)
    return result.as_run_result(
        algorithm="MPI" if pruning == "mti" else "MPI-",
        centroids=sharded.centroids,
        assignment=assignment,
        inertia=float((dist**2).sum()),
        params={
            "n": n,
            "d": d,
            "k": k,
            "n_machines": n_machines,
            "ranks_per_machine": rpm,
            "pruning": pruning,
            "kernel": sharded.kernel,
        },
    )
