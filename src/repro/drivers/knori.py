"""knori: the NUMA-optimized in-memory k-means module (Section 5).

Runs ||Lloyd's (Algorithm 1) with optional MTI pruning on one simulated
NUMA machine. Per iteration:

1. The exact numerics (assignment + pruning decisions + centroid
   update) are computed for the whole dataset.
2. The dataset's row blocks become tasks (8192 rows each, the paper's
   minimum task size), each stamped with its exact work content and
   the NUMA bank its rows live on.
3. The event-driven engine replays the iteration through the chosen
   scheduler over the machine's bound (or oblivious) threads, charging
   calibrated compute/memory/lock costs, followed by the single global
   barrier and the funnel reduction.

``knori(x, k, pruning=None)`` is the paper's knori-;
``bind_policy=BindPolicy.OBLIVIOUS`` is the Figure 4 baseline;
``scheduler="fifo" | "static"`` are the Figure 5 baselines.

This driver is a parameter-translation shim over the MM plane: it
resolves its :class:`~repro.runtime.RunEnv`, builds the machine,
constructs :class:`~repro.runtime.KmeansMM` with one partial per
thread (``n_partitions=T``) under the run's memory manager, runs it
through the in-memory assembly (:func:`~repro.runtime.mm.inmemory_run`)
and labels the result.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from repro.core import ConvergenceCriteria
from repro.mem import MemoryManager
from repro.metrics import RunResult
from repro.runtime import KmeansMM, RunEnv, RunObserver
from repro.runtime.mm import inmemory_run
from repro.sched.blocks import auto_task_rows
from repro.simhw import (
    BindPolicy,
    CostModel,
    FOUR_SOCKET_XEON,
    SimMachine,
)


def knori(
    x: np.ndarray,
    k: int,
    *,
    pruning: str | None = "mti",
    cost_model: CostModel = FOUR_SOCKET_XEON,
    n_threads: int | None = None,
    bind_policy: BindPolicy = BindPolicy.NUMA_BIND,
    scheduler: str = "numa_aware",
    init: str | np.ndarray = "random",
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
    task_rows: int | None = None,
    machine: SimMachine | None = None,
    observers: Sequence[RunObserver] = (),
    faults: "FaultPlan | None" = None,
    membership: Any = None,
    empty_cluster: str = "drop",
    kernel: str = "blocked",
    mem: str | MemoryManager | None = None,
    mem_budget_bytes: int | None = None,
) -> RunResult:
    """In-memory NUMA-optimized k-means on a simulated machine.

    Parameters
    ----------
    x:
        Data matrix (n, d), float64.
    k:
        Number of clusters.
    pruning:
        ``"mti"`` (the paper's knori), ``None`` (knori-), or
        ``"elkan"`` (full TI baseline, O(nk) memory).
    cost_model:
        Machine to simulate; defaults to the paper's 4-socket Xeon.
    n_threads:
        Worker threads ``T``; defaults to the machine's physical cores.
    bind_policy:
        ``NUMA_BIND`` (paper default) or ``OBLIVIOUS`` (Fig 4 baseline).
    scheduler:
        ``"numa_aware"`` (default), ``"fifo"``, or ``"static"``.
    init, seed:
        Initialization method/array and RNG seed.
    criteria:
        Stopping rules (default: exact convergence, <=100 iterations).
    task_rows:
        Rows per task block (paper minimum: 8192).
    machine:
        Pre-built :class:`SimMachine` (overrides ``cost_model``/
        ``n_threads``/``bind_policy``).
    observers, faults, membership, mem, mem_budget_bytes:
        The run environment (see :meth:`repro.runtime.RunEnv.resolve`).
        Worker crashes and preemptions are answered by a
        deterministic from-scratch rerun (the paper offers no
        in-memory checkpointing); results stay bit-identical to a
        fault-free run. Straggler injections slow simulated threads
        and engage EWMA-based detection plus work rebalancing
        (simulated time only, numerics untouched).
    empty_cluster:
        Policy when a cluster loses all members: ``"drop"`` (keep the
        previous centroid, the default), ``"reseed"`` (revive from the
        farthest point; unpruned algorithm only), or ``"error"``.
    kernel:
        Distance kernel strategy: ``"blocked"`` (default, the bit-exact
        reference) or ``"gemm"`` (norm-caching GEMM expansion;
        identical assignments, ULP-equivalent distances -- see
        :mod:`repro.core.distance`).

    Returns
    -------
    RunResult
        Exact clustering outputs plus per-iteration simulated timing,
        pruning statistics and the memory breakdown.
    """
    x = np.asarray(x, dtype=np.float64)
    env = RunEnv.resolve(
        observers=observers, faults=faults, membership=membership,
        mem=mem, mem_budget_bytes=mem_budget_bytes,
    )
    machine = machine or SimMachine.build(
        cost_model, n_threads=n_threads, bind_policy=bind_policy
    )
    with env.use():
        alg = KmeansMM(
            x, k, pruning=pruning, init=init, seed=seed,
            criteria=criteria, empty_cluster=empty_cluster,
            kernel=kernel, n_partitions=machine.n_threads,
        )
    if task_rows is None:
        task_rows = auto_task_rows(alg.n_rows, machine.n_threads)
    result = inmemory_run(
        alg, env, machine=machine, scheduler=scheduler, task_rows=task_rows,
    )

    pruning = alg.loop.pruning
    algo = {"mti": "knori", "elkan": "knori[elkan]", None: "knori-"}[
        pruning
    ]
    return replace(
        result,
        algorithm=algo,
        params={
            "n": alg.n_rows,
            "d": alg.d,
            "k": alg.k,
            "T": machine.n_threads,
            "pruning": pruning,
            "bind_policy": machine.bind_policy.value,
            "scheduler": scheduler,
            "task_rows": task_rows,
            "kernel": alg.loop.kernel,
        },
    )
