"""knors: semi-external-memory k-means (Section 6).

Holds O(n) state in memory (assignments, MTI bounds, per-thread
centroids) while row data streams from a simulated SSD array through
the SAFS + row-cache stack. The data itself is real -- when given a
path, rows are fetched from the on-disk file through a memmap, so the
out-of-core code path actually touches storage; service times are
modeled.

I/O defaults to the asynchronous pipeline (FlashGraph's behavior):
reads go through the SSD request queue and the prefetcher hides
service time behind the previous iteration's compute once the row
cache knows the active set, which is why knors turns compute-bound
once per-iteration arithmetic outweighs the (cache-reduced) I/O
(Section 8.8). ``io_mode="sync"`` (CLI ``--sync-io``) preserves the
serialized ``max(compute span, I/O service)`` accounting; results and
I/O counters are bit-identical across modes.

Flag mapping to the paper's names:

* ``knors(path, k)`` -- knors (MTI + row cache).
* ``knors(path, k, pruning=None)`` -- knors- (no MTI, RC enabled).
* ``knors(path, k, pruning=None, row_cache_bytes=0)`` -- knors--.

This driver is a parameter-translation shim over the MM plane: it
resolves the data to a row view (a memmap for files, never copied)
and its :class:`~repro.runtime.RunEnv`, builds the machine,
constructs :class:`~repro.runtime.KmeansMM` with one partial per
thread (``n_partitions=T``) under the run's memory manager, runs it
through the SEM assembly (:func:`~repro.runtime.mm.sem_run`: SAFS and
row-cache stack, optional checkpoints) and labels the result.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core import ConvergenceCriteria
from repro.data.matrixfile import MatrixFile
from repro.mem import MemoryManager
from repro.metrics import RunResult
from repro.runtime import KmeansMM, RunEnv, RunObserver, resolve_row_data
from repro.runtime.mm import sem_run
from repro.simhw import BindPolicy, CostModel, FOUR_SOCKET_XEON, SimMachine
from repro.simhw.ssd import OCZ_INTREPID_ARRAY, SsdArray


def knors(
    data: np.ndarray | str | Path | MatrixFile,
    k: int,
    *,
    pruning: str | None = "mti",
    row_cache_bytes: int | None = None,
    page_cache_bytes: int | None = None,
    cache_update_interval: int = 5,
    io_mode: str = "async",
    io_queue_depth: int = 32,
    io_channels: int | None = None,
    ssd: SsdArray = OCZ_INTREPID_ARRAY,
    cost_model: CostModel = FOUR_SOCKET_XEON,
    n_threads: int | None = None,
    bind_policy: BindPolicy = BindPolicy.NUMA_BIND,
    scheduler: str = "numa_aware",
    init: str | np.ndarray = "random",
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
    task_rows: int | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_interval: int = 10,
    resume: bool = False,
    observers: Sequence[RunObserver] = (),
    faults: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    membership: Any = None,
    empty_cluster: str = "drop",
    kernel: str = "blocked",
    mem: str | MemoryManager | None = None,
    mem_budget_bytes: int | None = None,
) -> RunResult:
    """Semi-external-memory k-means over an SSD-resident matrix.

    Parameters
    ----------
    data:
        Path to a knor binary matrix (preferred -- exercises the real
        on-disk path), an open :class:`MatrixFile`, or an in-memory
        array (I/O geometry is still modeled from the row layout).
    k, pruning, init, seed, criteria, scheduler, task_rows:
        As in :func:`repro.drivers.knori`.
    row_cache_bytes:
        Row cache budget; ``None`` defaults to 1/32 of the data size
        (the paper's 512 MB on the 16 GB Friendster-32), 0 disables.
    page_cache_bytes:
        SAFS page cache budget; ``None`` defaults to 1/16 of the data
        size (the paper's 1 GB on Friendster-32).
    cache_update_interval:
        ``I_cache`` -- first row-cache refresh iteration; the gap
        doubles after each refresh. Paper setting: 5.
    io_mode:
        ``"async"`` (default, the paper's FlashGraph behavior) issues
        row fetches through the SSD request queue and hides service
        time behind the previous iteration's compute once the row
        cache knows the active set; ``"sync"`` keeps the serialized
        ``max(span, service)`` accounting. Numerics and cache/request
        counters are bit-identical across modes.
    io_queue_depth, io_channels:
        Async queue geometry (outstanding requests per channel, and
        channel count -- ``None`` means one per SSD). Ignored in sync
        mode.
    ssd:
        SSD array model (default: the paper's 24-SSD chassis).
    checkpoint_dir, checkpoint_interval, resume:
        FlashGraph-style lightweight fault tolerance: persist the O(n)
        in-memory state every ``checkpoint_interval`` iterations to
        ``checkpoint_dir`` (atomic replace); ``resume=True`` continues
        from the newest checkpoint there. Disabled when
        ``checkpoint_dir`` is None, as in the paper's benchmarks.
    observers, faults, retry_policy, membership, mem, mem_budget_bytes:
        The run environment (see :meth:`repro.runtime.RunEnv.resolve`;
        the manager also holds the cache index and checkpoint
        staging). SSD read errors and slow pages are absorbed by the
        retry policy (charged simulated time); worker and
        mid-checkpoint crashes and preemptions resume from the newest
        checkpoint (or rerun from scratch without one) with
        bit-identical results. Injected corruptions (SSD pages, row
        cache lines, checkpoints) are detected by CRC32 verification,
        quarantined and repaired from a clean source -- or abort with
        :class:`~repro.errors.CorruptionError` when repair exhausts
        the retry budget. Stragglers slow simulated threads and engage
        EWMA detection plus rebalancing (simulated time only).
    empty_cluster:
        Policy when a cluster loses all members: ``"drop"`` (keep the
        previous centroid, the default), ``"reseed"`` (revive from the
        farthest point; unpruned algorithm only), or ``"error"``.
    kernel:
        Distance kernel strategy (``"blocked"`` | ``"gemm"``, see
        :func:`repro.drivers.knori`). Clause-1 I/O elision is
        unaffected: both strategies produce identical assignments.
    """
    x, _, _ = resolve_row_data(data)
    env = RunEnv.resolve(
        observers=observers, faults=faults, retry_policy=retry_policy,
        membership=membership, mem=mem, mem_budget_bytes=mem_budget_bytes,
    )
    machine = SimMachine.build(
        cost_model, n_threads=n_threads, bind_policy=bind_policy, ssd=ssd
    )
    with env.use():
        alg = KmeansMM(
            x, k, pruning=pruning, init=init, seed=seed,
            criteria=criteria, empty_cluster=empty_cluster,
            kernel=kernel, n_partitions=machine.n_threads,
        )
    result = sem_run(
        alg, env, machine=machine, scheduler=scheduler,
        row_cache_bytes=row_cache_bytes,
        page_cache_bytes=page_cache_bytes,
        cache_update_interval=cache_update_interval,
        io_mode=io_mode, io_queue_depth=io_queue_depth,
        io_channels=io_channels, task_rows=task_rows,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )

    pruning = alg.loop.pruning
    row_cache_bytes = result.params["row_cache_bytes"]
    if pruning == "mti":
        algo = "knors"
    elif row_cache_bytes > 0:
        algo = "knors-"
    else:
        algo = "knors--"
    return replace(
        result,
        algorithm=algo,
        params={
            "n": alg.n_rows,
            "d": alg.d,
            "k": alg.k,
            "T": machine.n_threads,
            "pruning": pruning,
            "row_cache_bytes": row_cache_bytes,
            "page_cache_bytes": result.params["page_cache_bytes"],
            "cache_update_interval": cache_update_interval,
            "io_mode": io_mode,
            "io_queue_depth": io_queue_depth if io_mode == "async" else None,
            "io_channels": io_channels if io_mode == "async" else None,
            "scheduler": scheduler,
            "kernel": alg.loop.kernel,
        },
    )
