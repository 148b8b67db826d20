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

This driver is a parameter-translation shim over
:mod:`repro.runtime`: it assembles the SAFS/row-cache I/O stack
(:func:`repro.sem.build_row_engine`), a
:class:`~repro.runtime.SemBackend` with an optional
:class:`~repro.runtime.CheckpointHook`, and hands the iteration
skeleton to the shared :class:`~repro.runtime.IterationLoop`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core import ConvergenceCriteria
from repro.data.matrixfile import MatrixFile
from repro.drivers.common import (
    NumericsLoop,
    check_pruning,
    default_criteria,
    make_scheduler,
    resolve_init,
    resolve_memory_manager,
)
from repro.mem import MemoryManager, use_manager
from repro.metrics import RunResult
from repro.runtime import (
    CheckpointHook,
    IterationLoop,
    KmeansSource,
    RunObserver,
    SemBackend,
    register_sem_memory,
    resolve_row_data,
)
from repro.sched.blocks import auto_task_rows
from repro.sem import build_row_engine
from repro.simhw import (
    BindPolicy,
    CostModel,
    FOUR_SOCKET_XEON,
    SimMachine,
)
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
    observers:
        :class:`~repro.runtime.RunObserver` hooks receiving the run's
        trace-event stream (iterations, I/O, task traces, checkpoints).
    faults, retry_policy:
        Optional :class:`~repro.faults.FaultPlan` and
        :class:`~repro.faults.RetryPolicy`. SSD read errors and slow
        pages are absorbed by the retry policy (charged simulated
        time); worker and mid-checkpoint crashes resume from the
        newest checkpoint (or rerun from scratch without one) with
        bit-identical results. Injected corruptions (SSD pages, row
        cache lines, checkpoints, allreduce payloads) are detected by
        CRC32 verification, quarantined and repaired from a clean
        source -- or abort with
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
    mem, mem_budget_bytes:
        Memory manager for the workspace, cache index and checkpoint
        staging buffers (``"numpy"`` | ``"arena"`` | ``"budget"`` | a
        prebuilt manager; see :func:`repro.drivers.knori` and
        :mod:`repro.mem`). Results are bit-identical across managers.
    """
    x, n, d = resolve_row_data(data)
    if k > n:
        from repro.errors import DatasetError

        raise DatasetError(
            f"k={k} clusters cannot exceed the n={n} data rows"
        )
    pruning = check_pruning(pruning)
    crit = default_criteria(criteria)

    machine = SimMachine.build(
        cost_model, n_threads=n_threads, bind_policy=bind_policy, ssd=ssd
    )
    sched = make_scheduler(scheduler)
    t = machine.n_threads
    if task_rows is None:
        task_rows = auto_task_rows(n, t)

    manager = resolve_memory_manager(mem, mem_budget_bytes, observers)
    with use_manager(manager):
        io_engine, row_cache_bytes, page_cache_bytes = build_row_engine(
            ssd, n, d, t,
            row_cache_bytes=row_cache_bytes,
            page_cache_bytes=page_cache_bytes,
            cache_update_interval=cache_update_interval,
            io_mode=io_mode,
            io_queue_depth=io_queue_depth,
            io_channels=io_channels,
            faults=faults,
            retry_policy=retry_policy,
        )
        row_cache = io_engine.row_cache
        register_sem_memory(
            machine, n, d, k, pruning,
            row_cache_bytes=(
                row_cache_bytes if row_cache is not None else 0
            ),
            page_cache_bytes=page_cache_bytes,
        )

        centroids0 = resolve_init(np.asarray(x), k, init, seed)
        loop = NumericsLoop(
            x, centroids0, pruning, n_partitions=t,
            empty_cluster=empty_cluster, kernel=kernel,
        )
        checkpoint = (
            CheckpointHook(
                directory=checkpoint_dir,
                interval=checkpoint_interval,
                algorithm=loop,
                params={"n": n, "d": d, "k": k, "pruning": pruning},
                faults=faults,
            )
            if checkpoint_dir is not None
            else None
        )
        start_it = (
            checkpoint.resume(row_cache)
            if resume and checkpoint is not None
            else 0
        )
        backend = SemBackend(
            machine,
            sched,
            KmeansSource(loop, k),
            io_engine,
            n_rows=n,
            d=d,
            reduction_k=k,
            task_rows=task_rows,
            checkpoint=checkpoint,
            io_mode=io_mode,
            faults=faults,
        )
        result = IterationLoop(
            backend,
            criteria=crit,
            observers=observers,
            start_iteration=start_it,
            faults=faults,
            membership=membership,
        ).run()

    if pruning == "mti":
        algo = "knors"
    elif row_cache is None:
        algo = "knors--"
    else:
        algo = "knors-"
    return result.as_run_result(
        algorithm=algo,
        centroids=loop.centroids,
        assignment=loop.assignment.copy(),
        inertia=loop.inertia(),
        memory_breakdown=machine.memory.component_breakdown(),
        params={
            "n": n,
            "d": d,
            "k": k,
            "T": t,
            "pruning": pruning,
            "row_cache_bytes": row_cache_bytes,
            "page_cache_bytes": page_cache_bytes,
            "cache_update_interval": cache_update_interval,
            "io_mode": io_mode,
            "io_queue_depth": io_queue_depth if io_mode == "async" else None,
            "io_channels": io_channels if io_mode == "async" else None,
            "scheduler": scheduler,
            "kernel": loop.kernel,
        },
    )
