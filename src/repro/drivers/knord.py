"""knord: distributed k-means over a simulated cluster (Section 7).

A decentralized driver per machine runs the full knori stack (NUMA
binding, partitioned scheduling, optional MTI) on its contiguous shard
of the rows; after each machine's local super-phase, the per-machine
centroid sums and counts meet in an allreduce and every driver
recomputes the same global centroids -- no master, matching the paper's
design. Load is *not* balanced across machines (Section 7 argues the
NUMA placement gains outweigh cross-machine skew), so an iteration
takes as long as its slowest machine plus the collective.

``knord(x, k, pruning=None)`` is the paper's knord-.

This driver is a parameter-translation shim over
:mod:`repro.runtime`: per-shard numerics live in a
:class:`~repro.runtime.ShardedKmeans` fleet of ``NumericsLoop``\\s, the
cluster replay and the allreduce in a
:class:`~repro.runtime.DistributedBackend`, and the iteration skeleton
in the shared :class:`~repro.runtime.IterationLoop`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core import ConvergenceCriteria
from repro.core.distance import rows_to_centroids
from repro.dist import Cluster, NetworkModel, TEN_GBE
from repro.drivers.common import (
    check_pruning,
    check_x_k,
    default_criteria,
    make_scheduler,
    resolve_init,
)
from repro.errors import ConfigError, DatasetError
from repro.mem import MemoryManager
from repro.metrics import RunResult
from repro.runtime import (
    DistributedBackend,
    RunEnv,
    RunObserver,
    ShardedKmeans,
    register_kmeans_memory,
    state_bytes_per_row,
)
from repro.simhw import BindPolicy, CostModel, EC2_C4_8XLARGE


def knord_loop(
    x: np.ndarray, k: int, *, observers: Sequence[RunObserver] = (),
    faults: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None, membership: Any = None,
    autoscaler: Any = None, **cluster_kwargs: Any,
):
    """Assemble a knord run without running it.

    Returns ``(loop, finalize)``: the un-started
    :class:`~repro.runtime.IterationLoop` plus a closure turning its
    :class:`~repro.runtime.LoopResult` into the driver's
    :class:`~repro.metrics.RunResult`. The multi-tenant fair-share
    scheduler (:class:`~repro.elastic.FairShareScheduler`) uses this to
    interleave several jobs' iterations; :func:`knord` is exactly
    ``loop.run()`` between the two. The caller owns the memory-manager
    context -- assemble under :func:`repro.mem.use_manager` when the
    job should account against a specific manager. The keywords are
    :func:`knord`'s, without ``mem``/``mem_budget_bytes``.
    """
    env = RunEnv.resolve(
        observers=observers, faults=faults, retry_policy=retry_policy,
        membership=membership, autoscaler=autoscaler,
    )
    return _assemble(x, k, env, **cluster_kwargs)


def _assemble(
    x: np.ndarray,
    k: int,
    env: RunEnv,
    *,
    n_machines: int = 4,
    pruning: str | None = "mti",
    cost_model: CostModel = EC2_C4_8XLARGE,
    threads_per_machine: int | None = None,
    bind_policy: BindPolicy = BindPolicy.NUMA_BIND,
    scheduler: str = "numa_aware",
    network: NetworkModel = TEN_GBE,
    init: str | np.ndarray = "random",
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
    task_rows: int | None = None,
    cluster: Cluster | None = None,
    empty_cluster: str = "drop",
    kernel: str = "blocked",
    allreduce: str = "tree",
):
    """knord's one assembly: ``(loop, finalize)`` under ``env``."""
    x = np.asarray(x, dtype=np.float64)
    pruning = check_pruning(pruning)
    if pruning == "elkan":
        raise ConfigError("knord supports pruning='mti' or None")
    if empty_cluster == "reseed":
        raise ConfigError(
            "knord supports empty_cluster='drop' or 'error'; reseeding "
            "needs a second collective to pick a global farthest point"
        )
    k = check_x_k(x, k)
    crit = default_criteria(criteria)
    n, d = x.shape

    if cluster is None:
        cluster = Cluster.build(
            n_machines,
            cost_model=cost_model,
            threads_per_machine=threads_per_machine,
            bind_policy=bind_policy,
            network=network,
        )
    p = cluster.n_machines
    if n < p:
        raise DatasetError(f"n={n} rows cannot shard over {p} machines")

    centroids0 = resolve_init(x, k, init, seed)
    sharded = ShardedKmeans(
        x, centroids0, pruning, p, k, empty_cluster=empty_cluster,
        kernel=kernel, allreduce=allreduce,
    )
    schedulers = [make_scheduler(scheduler) for _ in range(p)]
    # Per-machine memory accounting (machines are identical;
    # report machine 0, flagged per-machine in params).
    for machine, shard_n in zip(cluster.machines, sharded.shard_rows()):
        register_kmeans_memory(machine, shard_n, d, k, pruning)

    backend = env.cluster(
        DistributedBackend,
        cluster,
        schedulers,
        sharded,
        d=d,
        k=k,
        task_rows=task_rows,
        state_bytes=state_bytes_per_row(pruning, k),
    )
    loop = env.loop(backend, criteria=crit)

    def finalize(result) -> RunResult:
        assignment = sharded.assignment
        dist = rows_to_centroids(x, sharded.centroids, assignment)
        return result.as_run_result(
            algorithm="knord" if pruning == "mti" else "knord-",
            centroids=sharded.centroids,
            assignment=assignment,
            inertia=float((dist**2).sum()),
            memory_breakdown=(
                cluster.machines[0].memory.component_breakdown()
            ),
            params={
                "n": n,
                "d": d,
                "k": k,
                "n_machines": p,
                "threads_per_machine": cluster.machines[0].n_threads,
                "pruning": pruning,
                "scheduler": scheduler,
                "memory_scope": "per_machine",
                "kernel": sharded.kernel,
                "allreduce": sharded.allreduce,
            },
        )

    return loop, finalize


def knord(
    x: np.ndarray, k: int, *, observers: Sequence[RunObserver] = (),
    faults: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None, membership: Any = None,
    autoscaler: Any = None, mem: str | MemoryManager | None = None,
    mem_budget_bytes: int | None = None, **cluster_kwargs: Any,
) -> RunResult:
    """Distributed NUMA-optimized k-means on a simulated cluster.

    Parameters
    ----------
    x, k, pruning, init, seed, criteria, scheduler, task_rows:
        As in :func:`repro.drivers.knori`. ``pruning="elkan"`` is not
        offered distributed (the paper's knord is MTI-or-nothing).
    n_machines:
        Cluster size; rows are split into contiguous equal shards.
    cost_model, threads_per_machine, bind_policy, network:
        Per-machine hardware and interconnect models (defaults: the
        paper's c4.8xlarge fleet on placement-group 10 GbE).
    cluster:
        Pre-built :class:`Cluster` (overrides the hardware params).
    observers, faults, retry_policy, mem, mem_budget_bytes:
        The run environment (see :meth:`repro.runtime.RunEnv.resolve`;
        the manager also holds the allreduce staging). Node failures
        either degrade (reshard onto survivors; bit-identical results)
        or abort per ``retry_policy.node_failure_mode``; dropped
        allreduce messages charge timeout + retransmission. Slow
        nodes (``straggler`` site) are flagged by per-machine EWMA
        and their shards re-shard onto healthy machines; corrupted
        allreduce payloads are CRC32-detected and retransmitted.
    empty_cluster:
        ``"drop"`` (keep the previous centroid, the default) or
        ``"error"`` (abort when a cluster's *global* count hits
        zero). ``"reseed"`` is not offered distributed -- it would
        need a second collective to agree on the farthest point.
    kernel:
        Per-shard distance kernel strategy (``"blocked"`` | ``"gemm"``,
        see :func:`repro.drivers.knori`).
    allreduce:
        Collective schedule for the centroid reduction: ``"tree"``
        (the default two-phase reduce+broadcast timing) or ``"rect"``
        (communication-avoiding rectangular/1.5D schedule -- fewer,
        larger messages; see :mod:`repro.dist.mpi`). Reduced values
        are bit-identical across schedules; only the charged network
        time and wire bytes differ.
    membership, autoscaler:
        Optional :class:`~repro.elastic.MembershipPlan` and
        :class:`~repro.elastic.Autoscaler` -- the elastic plane.
        Joins reshard onto the new machines, planned leaves and
        noticed preemptions drain their shards to survivors first
        (zero-notice preemption degrades to the node-failure path),
        and the autoscaler turns iteration-time / straggler / memory
        pressure into capacity requests that land only after the
        policy's simulated provisioning latency. Shard count never
        changes, so clustering results are bit-identical to the
        fixed-cluster run for zero-event plans and whenever the final
        membership equals the initial one.
    """
    env = RunEnv.resolve(
        observers=observers, faults=faults, retry_policy=retry_policy,
        membership=membership, autoscaler=autoscaler, mem=mem,
        mem_budget_bytes=mem_budget_bytes,
    )
    with env.use():
        loop, finalize = _assemble(x, k, env, **cluster_kwargs)
        result = loop.run()
    return finalize(result)
