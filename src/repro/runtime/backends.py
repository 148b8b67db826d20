"""Execution backends: the hardware side of the unified runtime.

A backend runs ONE iteration of a numerics source on its substrate and
returns the finished :class:`~repro.metrics.IterationRecord` plus what
the convergence check needs. Three substrates implement the protocol:

* :class:`InMemoryBackend` -- one simulated NUMA machine (knori,
  ``run_mm_inmemory``): task blocks through a scheduler, engine replay,
  barrier + funnel reduction.
* :class:`SemBackend` -- the same machine plus the SAFS + row-cache
  I/O stack (knors, ``run_mm_sem``): sync mode charges
  ``sim = max(span, io) + sync``; async mode routes reads through the
  SSD request queue and hides service time behind the previous
  iteration's compute (prefetch credit); optional checkpoint hook.
* :class:`DistributedBackend` -- a simulated cluster (knord): each
  machine drives its own shard of a :class:`ShardedProgram`, whose
  named accumulator payloads meet in a real tree-summed allreduce,
  every machine recomputing the identical global model
  (decentralized, Section 7). :class:`PureMpiBackend` reuses the same
  sharded program with the paper's NUMA-oblivious per-rank cost model
  (Section 8.9 baseline).

The distributed collective is algorithm-agnostic (clusterNOR's MM
frame): a shard contributes a ``dict[str, ndarray]`` of additive
accumulators -- centroid sums + counts for k-means, weighted
sums/squared sums for GMM, ... -- and the backend reduces each named
array in insertion order, charges one latency for the combined
payload, then hands the reduced accumulators to the program's
``minimize`` hook. :class:`ShardedKmeans` is the first such program;
:class:`~repro.runtime.mm.MMShardedProgram` adapts any
``MMAlgorithm``.

The exact numerics, counters and simulated costs are byte-identical to
the pre-runtime per-driver loops; only the orchestration moved here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import (
    CorruptionError,
    IoSubsystemError,
    NodeFailureError,
    WorkerCrashError,
)
from repro.metrics import IterationRecord
from repro.runtime.observer import RunObserver
from repro.runtime.sources import NumericsSource, StepStats
from repro.sched import build_task_blocks
from repro.sched.blocks import auto_task_rows
from repro.sem.checkpoint import (
    CheckpointState,
    corrupt_checkpoint,
    discard_checkpoint,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.simhw import SimMachine


@dataclass
class IterationOutcome:
    """One executed iteration: its record plus convergence inputs."""

    record: IterationRecord
    n_changed: int
    motion: np.ndarray | None


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the :class:`IterationLoop` drives."""

    #: Total rows governed by this backend (convergence denominator).
    n_rows: int

    def run_iteration(
        self, iteration: int, observer: RunObserver
    ) -> IterationOutcome:  # pragma: no cover - protocol
        ...

    def after_record(
        self, iteration: int, outcome: IterationOutcome,
        observer: RunObserver,
    ) -> None:  # pragma: no cover - protocol
        ...

    def recover(
        self, iteration: int, observer: RunObserver
    ) -> int:  # pragma: no cover - protocol
        """Answer an injected worker crash after ``iteration``.

        Restore resumable state (newest checkpoint, or a from-scratch
        reset) and return the iteration index to replay from. Raises
        :class:`~repro.errors.WorkerCrashError` when the substrate
        cannot recover.
        """
        ...


class InMemoryBackend:
    """Section 5 substrate: scheduler + engine on one NUMA machine.

    With a straggler-capable fault plan attached, a thread may start
    running ``straggler_factor`` slower (timing plane only). A
    per-thread EWMA (:class:`~repro.resilience.StragglerDetector`)
    flags it; the work-stealing scheduler is what re-partitions the
    slow thread's queue onto healthy threads, and the backend surfaces
    that re-partition via ``on_straggler`` / ``on_rebalance``.
    """

    def __init__(
        self,
        machine: SimMachine,
        scheduler: Any,
        source: NumericsSource,
        *,
        n_rows: int,
        d: int,
        reduction_k: int,
        task_rows: int,
        faults: Any = None,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.source = source
        self.n_rows = n_rows
        self.d = d
        self.reduction_k = reduction_k
        self.task_rows = task_rows
        self.faults = faults
        self._straggler_detector = None
        if (
            faults is not None
            and getattr(faults, "straggler_enabled", False)
            and len(machine.threads) >= 2
        ):
            from repro.resilience import StragglerDetector

            # Threads inside a machine are heterogeneous (NUMA-local
            # vs remote banks, remainder blocks): only self-relative
            # drift is a fair straggler signal.
            self._straggler_detector = StragglerDetector(
                len(machine.threads), mode="self"
            )

    def _inject_straggler(
        self, iteration: int, observer: RunObserver
    ) -> None:
        threads = self.machine.threads
        candidates = [
            th.thread_id for th in threads if th.slow_factor == 1.0
        ]
        hit = self.faults.straggler(iteration, candidates)
        if hit is None:
            return
        tid, factor = hit
        threads[tid].slow_factor = factor
        observer.on_fault(
            iteration, "straggler", "slow",
            {"thread": tid, "factor": factor},
        )

    def _observe_stragglers(
        self, iteration: int, trace: Any, observer: RunObserver
    ) -> None:
        # Work stealing balances per-thread *clocks* (a slow thread
        # simply runs fewer tasks), so the observable straggler signal
        # is throughput -- time per row processed: a 4x-slow thread
        # shows 4x cost per row no matter how the scheduler
        # rebalances or how task sizes vary.
        det = self._straggler_detector
        threads = self.machine.threads
        clocks = np.asarray(trace.thread_clocks_ns, dtype=np.float64)
        rows = np.array(
            [th.counters.rows_processed for th in threads],
            dtype=np.float64,
        )
        per_row = np.divide(
            clocks, rows, out=np.zeros_like(clocks), where=rows > 0
        )
        fresh = det.observe(per_row)
        if not fresh:
            return
        for tid in fresh:
            observer.on_straggler(
                iteration, "thread", tid,
                {"ewma_ns": float(det.ewma[tid])},
            )
        flagged = sorted(det.flagged)
        on_flagged = sum(threads[t].counters.tasks_run for t in flagged)
        total = sum(th.counters.tasks_run for th in threads)
        observer.on_rebalance(
            iteration, "thread",
            {"flagged": flagged, "tasks_on_flagged": on_flagged,
             "total_tasks": total, "steals": trace.total_steals},
        )
        observer.on_recovery(
            iteration, "straggler", "rebalanced",
            {"threads": [int(t) for t in fresh]},
        )

    def _replay(
        self,
        stats: StepStats,
        iteration: int = 0,
        observer: RunObserver | None = None,
    ) -> Any:
        """Price one iteration's work on the machine."""
        if self._straggler_detector is not None and observer is not None:
            self._inject_straggler(iteration, observer)
        tasks = build_task_blocks(
            self.n_rows,
            self.d,
            self.machine,
            dist_per_row=stats.dist_per_row,
            needs_data=stats.needs_data,
            task_rows=self.task_rows,
            state_bytes_per_row=stats.state_bytes,
        )
        trace = self.machine.engine.run(
            self.scheduler, tasks, self.machine.threads,
            d=self.d, k=self.reduction_k,
        )
        if self._straggler_detector is not None and observer is not None:
            self._observe_stragglers(iteration, trace, observer)
        return trace

    def run_iteration(
        self, iteration: int, observer: RunObserver
    ) -> IterationOutcome:
        stats = self.source.step(iteration)
        trace = self._replay(stats, iteration, observer)
        observer.on_task_trace(iteration, trace)
        record = IterationRecord(
            iteration=iteration,
            sim_ns=trace.total_ns,
            n_changed=stats.n_changed,
            dist_computations=int(stats.dist_per_row.sum()),
            clause1_rows=stats.clause1_rows,
            clause2_pruned=stats.clause2_pruned,
            clause3_pruned=stats.clause3_pruned,
            busy_fraction=trace.busy_fraction,
            steals=trace.total_steals,
            rows_active=int(stats.needs_data.sum()),
        )
        return IterationOutcome(record, stats.n_changed, stats.motion)

    def after_record(self, iteration, outcome, observer) -> None:
        """In-memory runs have no post-record side effects."""

    def flush_checkpoint(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> bool:
        """Answer a preemption notice: persist resumable state if the
        substrate can. In-memory runs keep no checkpoints -- return
        ``False`` so the notice degrades to the plain crash path."""
        return False

    def recover(self, iteration: int, observer: RunObserver) -> int:
        """In-memory recovery is a deterministic from-scratch rerun
        (the paper offers no in-memory checkpointing)."""
        loop = getattr(self.source, "loop", None)
        if loop is None or not hasattr(loop, "reset"):
            raise WorkerCrashError(
                "in-memory backend cannot recover: source holds no "
                "resettable numerics loop"
            )
        loop.reset()
        return 0


@dataclass
class CheckpointHook:
    """FlashGraph-style lightweight fault tolerance as a SEM backend hook.

    Persists ``algorithm``'s resumable state every ``interval``
    iterations in the one on-disk format (single-atomic-commit
    protocol; see :mod:`repro.sem.checkpoint`). ``algorithm`` is the
    run's ``MMAlgorithm`` (its ``name``, ``export_state()`` and
    ``restore_state(snap)``); the snapshot's ndarrays go into the
    CRC-checked arrays file, everything else into the manifest's
    scalars. With a
    fault plan attached, a save may be killed mid-protocol
    (``checkpoint`` site), which surfaces as a
    :class:`~repro.errors.WorkerCrashError` the iteration loop answers
    through ``backend.recover()``.
    """

    directory: str | Path
    interval: int
    algorithm: Any
    params: dict
    faults: Any = None  # FaultPlan, for mid-save crash points

    def maybe_save(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> None:
        if (iteration + 1) % self.interval != 0:
            return
        self._save(iteration, n_changed, observer)

    def force_save(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> None:
        """Flush a checkpoint now regardless of the interval -- the
        preemption-notice grace window uses this so a planned loss
        never discards a committed iteration. The save runs the same
        single-atomic-commit protocol (and the same fault sites) as an
        interval save."""
        self._save(iteration, n_changed, observer)

    def _save(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> None:
        crash_point = (
            self.faults.checkpoint_crash(iteration)
            if self.faults is not None
            else None
        )
        if crash_point is not None:
            observer.on_fault(
                iteration, "checkpoint", crash_point, {}
            )
        snap = self.algorithm.export_state()
        state = {k: v for k, v in snap.items() if k != "iteration"}
        save_checkpoint(
            self.directory,
            CheckpointState(
                iteration=int(snap["iteration"]),
                algorithm=self.algorithm.name,
                arrays={
                    k: v for k, v in state.items()
                    if isinstance(v, np.ndarray)
                },
                scalars={
                    k: v for k, v in state.items()
                    if not isinstance(v, np.ndarray)
                },
                n_changed=n_changed,
                params=self.params,
            ),
            crash_point=crash_point,
        )
        if self.faults is not None and self.faults.checkpoint_corruption(
            iteration
        ):
            offset = corrupt_checkpoint(self.directory)
            observer.on_fault(
                iteration, "corruption", "checkpoint",
                {"offset": offset},
            )
        observer.on_checkpoint(iteration, self.directory)

    def resume(self, row_cache: Any = None) -> int:
        """Run-start resume (``resume=True``): restore the newest
        checkpoint and return the iteration to start at (0 without
        one). Unlike crash recovery, a corrupt checkpoint here aborts
        with :class:`~repro.errors.CorruptionError` -- the caller asked
        for exactly that state."""
        start = self.try_restore(0, None, quarantine=False) or 0
        if start and row_cache is not None:
            # The cache restarts cold; re-engage at the next scheduled
            # refresh after the resume point.
            row_cache.fast_forward(start - 1)
        return start

    def try_restore(
        self, iteration: int, observer: RunObserver | None,
        *, quarantine: bool = True,
    ) -> int | None:
        """Restore the newest checkpoint into the algorithm, if any.

        Returns the iteration to resume at, or ``None`` when no usable
        checkpoint exists. On crash recovery a checkpoint whose CRC32s
        do not match its arrays is quarantined (never restored) and
        recovery falls back to the caller's from-scratch path --
        slower, still bit-identical. A checkpoint owned by another
        algorithm always fails typed.
        """
        if not has_checkpoint(self.directory):
            return None
        try:
            ckpt = load_checkpoint(self.directory)
        except CorruptionError as exc:
            if not quarantine:
                raise
            observer.on_corruption(
                iteration, "checkpoint", {"error": str(exc)}
            )
            discarded = discard_checkpoint(self.directory)
            observer.on_quarantine(
                iteration, "checkpoint", str(self.directory),
                {"files_removed": discarded},
            )
            return None
        if ckpt.algorithm != self.algorithm.name:
            raise IoSubsystemError(
                f"checkpoint in {self.directory} belongs to algorithm "
                f"{ckpt.algorithm!r}, not {self.algorithm.name!r}"
            )
        self.algorithm.restore_state(
            {"iteration": ckpt.iteration, **ckpt.arrays, **ckpt.scalars}
        )
        return ckpt.iteration


class SemBackend(InMemoryBackend):
    """Section 6 substrate: InMemory compute overlapped with the
    SAFS + row-cache I/O pipeline.

    Two I/O accounting modes (``--sync-io`` / ``--async-io``):

    * ``"sync"`` -- the original serialized formula,
      ``max(span, service) + barrier + reduction``.
    * ``"async"`` -- reads go through the SSD array's request queue
      (amortized per-request cost) and an
      :class:`~repro.simhw.engine.AsyncIoTimeline` hides service time
      behind the previous iteration's compute once the row cache has
      revealed an active set. Numerics and every cache/request counter
      are bit-identical across modes; only simulated time moves.
    """

    def __init__(
        self,
        machine: SimMachine,
        scheduler: Any,
        source: NumericsSource,
        io_engine: Any,
        *,
        n_rows: int,
        d: int,
        reduction_k: int,
        task_rows: int,
        checkpoint: CheckpointHook | None = None,
        io_mode: str = "sync",
        faults: Any = None,
    ) -> None:
        super().__init__(
            machine, scheduler, source,
            n_rows=n_rows, d=d, reduction_k=reduction_k,
            task_rows=task_rows, faults=faults,
        )
        if io_mode not in ("sync", "async"):
            from repro.errors import ConfigError

            raise ConfigError(
                f"io_mode must be 'sync' or 'async', got {io_mode!r}"
            )
        self.io_engine = io_engine
        self.checkpoint = checkpoint
        self.io_mode = io_mode
        from repro.simhw.engine import AsyncIoTimeline

        self.io_timeline = AsyncIoTimeline()

    def run_iteration(
        self, iteration: int, observer: RunObserver
    ) -> IterationOutcome:
        stats = self.source.step(iteration)
        io = self.io_engine.run_iteration(
            iteration, np.flatnonzero(stats.needs_data), observer=observer
        )
        if self.io_mode == "async":
            placement = self.io_timeline.plan(
                io.service_async_ns, prefetchable=io.prefetchable
            )
        else:
            placement = None
        observer.on_io_issue(
            iteration, io.rows_requested, io.pages_from_ssd,
            placement.prefetched if placement is not None else False,
        )
        observer.on_io(iteration, io)
        trace = self._replay(stats, iteration, observer)
        observer.on_task_trace(iteration, trace)
        if placement is not None:
            # Compute waits only behind the service time the prefetcher
            # could not hide; the rest rode under last iteration's span.
            sim_ns = self.io_timeline.commit(
                placement, trace.span_ns,
                trace.barrier_ns, trace.reduction_ns,
            )
            observer.on_io_complete(
                iteration, placement.service_ns,
                placement.hidden_ns, placement.blocked_ns,
            )
        else:
            # Sync I/O overlaps the compute span (Section 6): the longer
            # of the two dominates, then everyone meets at the barrier.
            sim_ns = (
                max(trace.span_ns, io.service_ns)
                + trace.barrier_ns
                + trace.reduction_ns
            )
            observer.on_io_complete(
                iteration, io.service_ns, 0.0, io.service_ns
            )
        record = IterationRecord(
            iteration=iteration,
            sim_ns=sim_ns,
            n_changed=stats.n_changed,
            dist_computations=int(stats.dist_per_row.sum()),
            clause1_rows=stats.clause1_rows,
            clause2_pruned=stats.clause2_pruned,
            clause3_pruned=stats.clause3_pruned,
            busy_fraction=trace.busy_fraction,
            steals=trace.total_steals,
            bytes_requested=io.bytes_requested,
            bytes_read=io.bytes_read,
            io_requests=io.merged_requests,
            cache_hits=io.row_cache_hits,
            cache_misses=io.rows_requested,
            rows_active=io.rows_needed,
        )
        return IterationOutcome(record, stats.n_changed, stats.motion)

    def after_record(self, iteration, outcome, observer) -> None:
        if self.checkpoint is not None:
            self.checkpoint.maybe_save(
                iteration, outcome.n_changed, observer
            )

    def flush_checkpoint(
        self, iteration: int, n_changed: int, observer: RunObserver
    ) -> bool:
        """Answer a preemption notice with an out-of-interval save."""
        if self.checkpoint is None:
            return False
        self.checkpoint.force_save(iteration, n_changed, observer)
        return True

    def recover(self, iteration: int, observer: RunObserver) -> int:
        """Resume from the newest checkpoint (the paper's lightweight
        recovery); fall back to a from-scratch rerun without one.

        The caches restart cold either way -- cache state is pure
        timing, so the replayed numerics stay bit-identical.

        The restore itself is delegated to the checkpoint hook's
        ``try_restore``: the hook hands the loaded arrays and scalars
        to its algorithm's ``restore_state``, which keeps this backend
        algorithm-agnostic.
        """
        resume_at = None
        if self.checkpoint is not None:
            resume_at = self.checkpoint.try_restore(iteration, observer)
        if resume_at is None:
            resume_at = super().recover(iteration, observer)
        rc = getattr(self.io_engine, "row_cache", None)
        if rc is not None:
            rc.clear()
            if resume_at > 0:
                rc.fast_forward(resume_at - 1)
        self.io_engine.safs.page_cache.clear()
        # The async pipeline restarts cold with the caches: banked
        # prefetch credit died with the crashed workers.
        self.io_timeline.reset()
        return resume_at


class ShardedProgram:
    """A sharded MM program: the algorithm side of the distributed
    backends, generalized over named accumulator payloads.

    Subclasses provide the numerics:

    * ``n_rows`` / ``n_shards`` / ``shard_rows()`` -- row geometry;
    * ``step(si)`` -- shard ``si``'s :class:`StepStats` for this
      iteration; the backends call :meth:`step_all`, which steps every
      shard in shard order unless a subclass shares work between them;
    * ``payload(si)`` -- shard ``si``'s additive accumulator
      contribution, a ``dict[str, ndarray]`` with identical keys and
      shapes across shards;
    * ``minimize(reduced)`` -- fold the reduced accumulators into the
      global model (broadcast is implicit: every simulated machine
      recomputes the same model, Section 7);
    * ``reset()`` -- rewind to iteration 0 (crash recovery);
    * ``model_array`` -- the model as one ndarray (the collective's
      corruption-CRC payload).

    The collective itself lives here and is algorithm-agnostic: one
    tree-summed allreduce per named array, in payload insertion order,
    then a single latency charge sized by the combined payload. The
    ``allreduce`` class attribute selects the charged schedule
    (``"tree"`` | ``"rect"``, see :mod:`repro.dist.mpi`); reduced
    values are bit-identical across schedules.
    """

    #: Collective schedule; subclasses/instances may override.
    allreduce = "tree"

    def step_all(self) -> list[StepStats]:
        """Every shard's :class:`StepStats` for this iteration, in
        shard order."""
        return [self.step(si) for si in range(self.n_shards)]

    def reduce_and_broadcast(
        self,
        comm: Any,
        payloads: list[dict[str, np.ndarray]],
        timing_comm: Any = None,
    ) -> tuple[int, int, float]:
        """Allreduce every named accumulator and update the model.

        Returns ``(payload_bytes, wire_bytes, allreduce_ns)``.

        ``timing_comm``, when given, prices the collective's latency
        over a different rank count than the arithmetic ran on. The
        elastic backend uses it after membership churn: the summation
        stays over all ``n_shards`` contributions forever (bit-identity
        of the reduced values), while the charged time follows the
        machines actually alive.
        """
        mode = getattr(self, "allreduce", "tree")
        reduced: dict[str, np.ndarray] = {}
        wire = 0
        # +8: the iteration header rides along with the accumulators.
        payload_bytes = 8
        for key in payloads[0]:
            red = comm.allreduce_sum([p[key] for p in payloads], mode=mode)
            reduced[key] = red.value
            wire += red.bytes_on_wire
            payload_bytes += red.value.nbytes
        clock = comm if timing_comm is None else timing_comm
        allreduce_ns = clock.allreduce_ns(payload_bytes, mode=mode)
        self.minimize(reduced)
        return payload_bytes, wire, allreduce_ns


class ShardedKmeans(ShardedProgram):
    """Per-shard :class:`NumericsLoop` fleet with a shared global view.

    Each shard's loop owns that shard's persistent pruning state; after
    every collective the reduced global centroids are pushed back into
    all loops, so each loop's next step sees exactly what a
    decentralized driver on that machine would. :meth:`step_all` runs
    the fleet's MTI block passes as one host-pool pass.
    """

    def __init__(
        self,
        x: np.ndarray,
        centroids0: np.ndarray,
        pruning: str | None,
        n_shards: int,
        k: int,
        *,
        empty_cluster: str = "drop",
        kernel: str = "blocked",
        allreduce: str = "tree",
    ) -> None:
        from repro.core.distance import check_kernel
        from repro.core.empty import check_empty_cluster_policy
        from repro.dist.mpi import check_allreduce
        from repro.drivers.common import NumericsLoop

        n = x.shape[0]
        self.x = x
        self.n_rows = n
        self.k = k
        self.pruning = pruning
        # A shard legitimately holds zero members of some clusters, so
        # the policy applies to the *global* counts at the allreduce;
        # shard loops always run with the permissive default.
        self.empty_cluster = check_empty_cluster_policy(empty_cluster)
        self.kernel = check_kernel(kernel)
        self.allreduce = check_allreduce(allreduce)
        self._centroids0 = np.array(
            centroids0, dtype=np.float64, copy=True
        )
        self.bounds = np.linspace(0, n, n_shards + 1, dtype=np.int64)
        self.shards = [
            x[self.bounds[i]: self.bounds[i + 1]]
            for i in range(n_shards)
        ]
        self.loops = [
            NumericsLoop(
                shard, centroids0, pruning, n_partitions=1,
                kernel=kernel,
            )
            for shard in self.shards
        ]
        self.centroids = self._centroids0.copy()

    def reset(self) -> None:
        """Rewind every shard loop to the initial centroids (crash
        recovery's from-scratch rerun; sharding is unchanged)."""
        for loop in self.loops:
            loop.reset()
        self.centroids = self._centroids0.copy()

    @property
    def n_shards(self) -> int:
        return len(self.loops)

    def shard_rows(self) -> list[int]:
        return [s.shape[0] for s in self.shards]

    def step_all(self) -> list[StepStats]:
        """Step every shard with one host-pool pass: each shard's MTI
        prologue in shard order, one dispatch over every shard's blocks
        (:func:`~repro.core.mti.run_shared_pass`), then each shard's
        epilogue in shard order. Steps with no block pass (iteration
        0, unpruned) run whole, one shard after another.

        As in KmeansMM, iteration 0 measures every row, so a NaN/inf
        row shows in its distance with no extra pass. The check runs
        once every shard has stepped, so the error names the bad rows
        of every shard, as knori's does."""
        from repro.core.mti import run_shared_pass
        from repro.drivers.common import check_row_dist_finite

        first = self.loops[0].iteration == 0
        begun = [loop.begin() for loop in self.loops]
        steps = [b for b in begun if b is not None]
        if steps:
            run_shared_pass(steps)
        stats = [self.step(si, b) for si, b in enumerate(begun)]
        if first and not all(np.isfinite(st.row_dist).all()
                             for st in stats):
            check_row_dist_finite(
                self.x, np.concatenate([st.row_dist for st in stats]),
                "kmeans",
            )
        return stats

    def step(self, mi: int, begun: Any = None) -> StepStats:
        """Shard ``mi``'s step; ``begun`` is its loop's
        :meth:`~repro.drivers.common.NumericsLoop.begin` with the block
        pass run."""
        num = self.loops[mi].step(begun)
        return StepStats(
            dist_per_row=num.dist_per_row,
            needs_data=num.needs_data,
            n_changed=num.n_changed,
            motion=num.motion,
            clause1_rows=num.clause1_rows,
            clause2_pruned=num.clause2_pruned,
            clause3_pruned=num.clause3_pruned,
            row_dist=num.row_dist,
        )

    def payload(self, mi: int) -> dict[str, np.ndarray]:
        """Shard ``mi``'s accumulators: centroid sums + float counts.

        Key order is the wire order (sums first, then counts), which
        preserves the pre-generalization collective byte-for-byte.
        """
        sums, counts = self.loops[mi].partial_sums_counts()
        return {"sums": sums, "counts": counts.astype(np.float64)}

    def minimize(self, reduced: dict[str, np.ndarray]) -> None:
        """Recompute and install the global centroids from the
        reduced accumulators (the k-means M-step)."""
        counts = reduced["counts"]
        if self.empty_cluster == "error" and not (counts > 0).all():
            from repro.errors import EmptyClusterError

            empty = np.nonzero(counts == 0)[0]
            raise EmptyClusterError(
                f"clusters {empty.tolist()} lost all members globally "
                f"(empty_cluster='error')"
            )
        new_centroids = self.centroids.copy()
        nonzero = counts > 0
        new_centroids[nonzero] = (
            reduced["sums"][nonzero] / counts[nonzero, None]
        )
        self.centroids = new_centroids
        for loop in self.loops:
            loop.centroids = new_centroids

    @property
    def model_array(self) -> np.ndarray:
        return self.centroids

    @property
    def assignment(self) -> np.ndarray:
        return np.concatenate([lp.assignment for lp in self.loops])


class _ShardedBackend:
    """What knord's backend and the pure-MPI baseline share: one
    :meth:`ShardedProgram.step_all` per iteration, the collective tail
    and the from-scratch recovery. Each prices the shards' steps its
    own way between the two."""

    def __init__(
        self, sharded: ShardedProgram, faults: Any, retry_policy: Any
    ) -> None:
        self.sharded = sharded
        self.n_rows = sharded.n_rows
        self.faults = faults
        if retry_policy is None:
            from repro.faults import DEFAULT_RETRY_POLICY

            retry_policy = DEFAULT_RETRY_POLICY
        self.retry_policy = retry_policy

    def _step_shards(
        self,
    ) -> tuple[list[StepStats], list[dict[str, np.ndarray]],
               np.ndarray | None]:
        """Step every shard; return their stats and payloads, in shard
        order, and the last shard motion reported."""
        stats = self.sharded.step_all()
        payloads = [self.sharded.payload(si) for si in range(len(stats))]
        motions = [st.motion for st in stats if st.motion is not None]
        return stats, payloads, motions[-1] if motions else None

    def _collective(
        self,
        iteration: int,
        comm: Any,
        payloads: list[dict[str, np.ndarray]],
        observer: RunObserver,
        timing_comm: Any = None,
    ) -> tuple[int, float]:
        """Reduce the payloads into the model, charge the plan's
        collective faults and report the collective. Returns
        ``(wire_bytes, allreduce_ns)``."""
        payload, wire, allreduce_ns = self.sharded.reduce_and_broadcast(
            comm, payloads, timing_comm=timing_comm,
        )
        if self.faults is not None:
            from repro.faults import faulty_collective_ns

            allreduce_ns = faulty_collective_ns(
                self.faults, self.retry_policy, iteration,
                allreduce_ns, observer,
                payload=self.sharded.model_array,
            )
        observer.on_collective(iteration, payload, wire, allreduce_ns)
        return wire, allreduce_ns

    def after_record(self, iteration, outcome, observer) -> None:
        """Sharded runs have no post-record side effects."""

    def recover(self, iteration: int, observer: RunObserver) -> int:
        """Crash recovery is a from-scratch rerun over the same
        sharding: neither knord (Section 7) nor MPI ranks keep
        checkpoints."""
        self.sharded.reset()
        return 0


class DistributedBackend(_ShardedBackend):
    """Section 7 substrate: one knori-style machine per shard plus the
    cluster allreduce; an iteration takes as long as its slowest
    machine plus the collective.

    With a fault plan attached, two distributed failure modes fire:

    * **node failure** -- a machine dies permanently at an iteration
      boundary. Under ``node_failure_mode="degraded"`` its shards are
      reassigned round-robin to survivors, which then execute several
      shards serially (slower, but the shard-ordered numerics and the
      allreduce tree are untouched, so results stay bit-identical);
      ``"abort"`` raises a clean
      :class:`~repro.errors.NodeFailureError`.
    * **dropped allreduce transmissions** -- each drop charges the
      detection timeout plus a full retransmission.

    The resilience layer adds two degraded modes: a **slow node**
    (``straggler`` site) keeps executing its shards at
    ``straggler_factor`` cost until the per-machine EWMA flags it and
    its shards are re-sharded onto healthy machines -- the cluster
    runs at reduced capacity instead of waiting on the slow node --
    and a **corrupted allreduce payload** (``corruption`` site) is
    CRC32-detected and retransmitted under the retry budget.
    """

    def __init__(
        self,
        cluster: Any,
        schedulers: list[Any],
        sharded: ShardedProgram,
        *,
        d: int,
        k: int,
        task_rows: int | None,
        state_bytes: int,
        faults: Any = None,
        retry_policy: Any = None,
        membership: Any = None,
        autoscaler: Any = None,
    ) -> None:
        super().__init__(sharded, faults, retry_policy)
        self.cluster = cluster
        self.schedulers = schedulers
        self.d = d
        self.k = k
        self.task_rows = task_rows
        self.state_bytes = state_bytes
        #: Which machine executes each shard (reassigned on failure).
        self.shard_owner = list(range(sharded.n_shards))
        self.failed: set[int] = set()
        # -- elastic plane (membership churn / autoscaling) ------------
        self.membership = membership
        self.autoscaler = autoscaler
        #: The backend consumes the membership plan itself; the
        #: iteration loop must not double-draw the same streams.
        self.handles_membership = (
            membership is not None or autoscaler is not None
        )
        #: Machines that left by plan (drain/preempt/scale-down) --
        #: distinct from ``failed`` so counters tell churn from crashes.
        self.departed: set[int] = set()
        #: Preempt-with-notice victims: machine -> last iteration it
        #: completes before the planned loss.
        self._preempt_deadlines: dict[int, int] = {}
        #: Set on the FIRST actual membership change. Until then the
        #: allreduce is priced by the original ``cluster.comm`` on the
        #: exact pre-elastic code path (zero-event plans stay
        #: bit-identical, timing included).
        self._timing_comm: Any = None
        #: Simulated drain/reshard transfer time charged to the next
        #: committing iteration.
        self._boundary_ns = 0.0
        #: Machines running slow (machine -> factor), and the EWMA
        #: detector that flags them for re-sharding.
        self.slowed: dict[int, float] = {}
        self._machine_detector = None
        if (
            faults is not None
            and getattr(faults, "straggler_enabled", False)
            and cluster.n_machines >= 2
        ):
            from repro.resilience import StragglerDetector

            self._machine_detector = StragglerDetector(
                cluster.n_machines
            )

    def _alive(self) -> list[int]:
        return [
            m for m in range(self.cluster.n_machines)
            if m not in self.failed and m not in self.departed
        ]

    def _maybe_fail_node(
        self, iteration: int, observer: RunObserver
    ) -> None:
        """Consult the plan for a machine loss at this boundary."""
        victim = self.faults.node_failure(iteration, self._alive())
        if victim is None:
            return
        observer.on_fault(
            iteration, "node", "fail", {"machine": victim}
        )
        self._fail_machine(iteration, victim, observer)

    def _fail_machine(
        self, iteration: int, victim: int, observer: RunObserver
    ) -> None:
        """Unplanned loss: the machine is gone NOW, its shards reshard
        round-robin onto survivors (or the run aborts cleanly). Both
        node failures and zero-notice preemptions land here."""
        alive = self._alive()
        survivors = [m for m in alive if m != victim]
        if self.retry_policy.node_failure_mode == "abort" or not survivors:
            raise NodeFailureError(
                f"machine {victim} failed at iteration {iteration}"
                + ("" if survivors else " (no survivors)")
            )
        self.failed.add(victim)
        self._preempt_deadlines.pop(victim, None)
        if self._machine_detector is not None:
            # A dead machine must not dilute the healthy-median
            # baseline the straggler detector compares against.
            self._machine_detector.flagged.add(victim)
        moved = [
            s for s, owner in enumerate(self.shard_owner)
            if owner == victim
        ]
        for j, s in enumerate(moved):
            self.shard_owner[s] = survivors[j % len(survivors)]
        if self.handles_membership:
            self._refresh_timing()
        observer.on_recovery(
            iteration, "node", "reshard",
            {"machine": victim, "shards": moved,
             "survivors": len(survivors)},
        )

    # -- elastic plane -------------------------------------------------

    def _refresh_timing(self) -> None:
        """Reprice the collective over the machines actually alive.

        Only called once membership really changed; the arithmetic
        communicator (``cluster.comm``) keeps its original rank count
        forever so reduced values never move."""
        from repro.dist.mpi import SimComm

        self._timing_comm = SimComm(
            max(1, len(self._alive())), self.cluster.network
        )

    def _transfer_ns(self, shards: list[int]) -> float:
        """Simulated time to move ``shards`` over the interconnect
        (rows + per-row resumable state, one bulk message)."""
        if not shards:
            return 0.0
        rows = self.sharded.shard_rows()
        nbytes = sum(
            rows[s] * (self.d * 8 + self.state_bytes) for s in shards
        )
        return self.cluster.network.message_ns(nbytes)

    def _drain_machine(
        self, iteration: int, victim: int, observer: RunObserver,
        *, kind: str,
    ) -> float:
        """Planned loss: move the victim's shards to survivors BEFORE
        it goes away, paying honest transfer time. Nothing is lost --
        every machine holds the full model (decentralized, Section 7),
        so a drain is pure ownership movement."""
        alive = self._alive()
        if victim not in alive or len(alive) <= 1:
            return 0.0
        survivors = [m for m in alive if m != victim]
        moved = [
            s for s, owner in enumerate(self.shard_owner)
            if owner == victim
        ]
        for j, s in enumerate(moved):
            self.shard_owner[s] = survivors[j % len(survivors)]
        self.departed.add(victim)
        self._preempt_deadlines.pop(victim, None)
        if self._machine_detector is not None:
            self._machine_detector.flagged.add(victim)
        self._refresh_timing()
        drain_ns = self._transfer_ns(moved)
        observer.on_scale_down(
            iteration, victim,
            {"kind": kind, "shards": moved, "drain_ns": drain_ns},
        )
        if moved:
            observer.on_recovery(
                iteration, "membership", "reshard-drain",
                {"machine": victim, "shards": moved, "kind": kind},
            )
        return drain_ns

    def _join_machines(
        self, iteration: int, count: int, observer: RunObserver,
        *, why: str,
    ) -> float:
        """Scale-up: provision identical machines and reshard onto the
        joiners (the inverse of the survivor path) until shard load is
        balanced, paying honest transfer time for every moved shard."""
        new = self.cluster.add_machines(count)
        if self._machine_detector is not None:
            self._machine_detector.grow(self.cluster.n_machines)
        self._refresh_timing()
        moves = self._rebalance_onto_joiners()
        join_ns = self._transfer_ns([s for s, _src, _dst in moves])
        for m in new:
            observer.on_scale_up(
                iteration, m, {"why": why, "n_machines": len(self._alive())},
            )
        if moves:
            observer.on_recovery(
                iteration, "membership", "reshard-join",
                {"machines": new, "moves": moves},
            )
        return join_ns

    def _rebalance_onto_joiners(self) -> list[tuple[int, int, int]]:
        """Greedy deterministic balance: repeatedly move the highest-
        index shard off the most-loaded machine onto the least-loaded
        until the spread is <= 1 shard. Ownership is pure timing; the
        shard-ordered numerics and the allreduce are untouched."""
        alive = self._alive()
        load = {m: 0 for m in alive}
        for owner in self.shard_owner:
            if owner in load:
                load[owner] += 1
        moves: list[tuple[int, int, int]] = []
        while True:
            src = max(alive, key=lambda m: (load[m], -m))
            dst = min(alive, key=lambda m: (load[m], m))
            if load[src] - load[dst] <= 1:
                break
            shard = max(
                s for s, owner in enumerate(self.shard_owner)
                if owner == src
            )
            self.shard_owner[shard] = dst
            load[src] -= 1
            load[dst] += 1
            moves.append((int(shard), int(src), int(dst)))
        return moves

    def _pick_drain_victim(self) -> int | None:
        """Scale-down victim: the least-loaded alive machine (ties to
        the highest index -- prefer releasing the newest capacity)."""
        alive = self._alive()
        if len(alive) <= 1:
            return None
        load = {m: 0 for m in alive}
        for owner in self.shard_owner:
            if owner in load:
                load[owner] += 1
        return min(alive, key=lambda m: (load[m], -m))

    def _apply_membership(
        self, iteration: int, observer: RunObserver
    ) -> None:
        """Process every elastic event due at this iteration boundary.

        Order is fixed (expired preempt notices, autoscaler grants and
        releases, then plan events) so the whole trace is a pure
        function of the plan and policy state."""
        ns = 0.0
        for victim in sorted(self._preempt_deadlines):
            if iteration > self._preempt_deadlines[victim]:
                ns += self._drain_machine(
                    iteration, victim, observer, kind="preempt"
                )
        if self.autoscaler is not None:
            grants = self.autoscaler.take_grants()
            if grants:
                ns += self._join_machines(
                    iteration, grants, observer, why="autoscale"
                )
            if self.autoscaler.take_scale_down():
                victim = self._pick_drain_victim()
                if victim is not None:
                    ns += self._drain_machine(
                        iteration, victim, observer, kind="scale-down"
                    )
        if self.membership is not None:
            for ev in self.membership.poll(iteration, self._alive()):
                if ev.kind == "join":
                    ns += self._join_machines(
                        iteration, ev.count, observer, why="plan"
                    )
                elif ev.kind == "leave":
                    ns += self._drain_machine(
                        iteration, ev.machine, observer, kind="leave"
                    )
                elif ev.notice <= 0:
                    # Zero-notice preemption degrades to the unplanned
                    # node-failure path: the machine is simply gone.
                    observer.on_fault(
                        iteration, "node", "preempt",
                        {"machine": ev.machine},
                    )
                    self._fail_machine(iteration, ev.machine, observer)
                elif ev.machine not in self._preempt_deadlines:
                    deadline = iteration + ev.notice - 1
                    self._preempt_deadlines[ev.machine] = deadline
                    observer.on_preempt_notice(
                        iteration, ev.machine, deadline,
                        {"notice": ev.notice},
                    )
        self._boundary_ns += ns

    def _observe_autoscaler(
        self, iteration: int, sim_ns: float
    ) -> None:
        """Feed the finished iteration to the autoscaler policy."""
        from repro.mem import current_manager

        alive = self._alive()
        stragglers = 0
        if self._machine_detector is not None:
            stragglers = sum(
                1 for m in self._machine_detector.flagged if m in alive
            )
        self.autoscaler.observe(
            iteration, sim_ns,
            n_machines=len(alive),
            stragglers=stragglers,
            mem=current_manager().counters(),
        )

    def _maybe_straggle_node(
        self, iteration: int, observer: RunObserver
    ) -> None:
        """Consult the plan for a machine starting to run slow."""
        candidates = [
            m for m in self._alive() if m not in self.slowed
        ]
        hit = self.faults.straggler(iteration, candidates)
        if hit is None:
            return
        victim, factor = hit
        self.slowed[victim] = factor
        for th in self.cluster.machines[victim].threads:
            th.slow_factor = factor
        observer.on_fault(
            iteration, "straggler", "slow",
            {"machine": victim, "factor": factor},
        )

    def _observe_machines(
        self,
        iteration: int,
        machine_ns: dict[int, float],
        observer: RunObserver,
    ) -> None:
        """EWMA-track per-machine times; re-shard off flagged machines.

        A flagged machine keeps running (it is slow, not dead): its
        shards move to the least-loaded healthy machines and the
        cluster continues at reduced capacity. Ownership is pure
        timing -- the shard-ordered numerics and the allreduce tree
        are untouched, so results stay bit-identical.
        """
        det = self._machine_detector
        # Normalize by shards owned: a survivor that adopted a failed
        # machine's shard runs 2x the work serially -- that is load,
        # not sickness, and must not read as straggling.
        owned = np.zeros(det.n_workers)
        for o in self.shard_owner:
            owned[o] += 1
        times = np.zeros(det.n_workers)
        for mi, t in machine_ns.items():
            times[mi] = t / max(1.0, owned[mi])
        fresh = det.observe(times)
        if not fresh:
            return
        for mi in fresh:
            observer.on_straggler(
                iteration, "machine", mi,
                {"ewma_ns": float(det.ewma[mi])},
            )
        healthy = [
            m for m in self._alive() if m not in det.flagged
        ]
        if not healthy:
            return
        moves = []
        for mi in fresh:
            owned = [
                s for s, o in enumerate(self.shard_owner) if o == mi
            ]
            for s in owned:
                target = min(
                    (sum(1 for o in self.shard_owner if o == m), m)
                    for m in healthy
                )[1]
                self.shard_owner[s] = target
                moves.append((int(s), int(mi), int(target)))
        if moves:
            observer.on_rebalance(
                iteration, "machine", {"moves": moves}
            )
            observer.on_recovery(
                iteration, "straggler", "resharded",
                {"machines": [int(m) for m in fresh],
                 "shards": len(moves)},
            )

    def run_iteration(
        self, iteration: int, observer: RunObserver
    ) -> IterationOutcome:
        if self.handles_membership:
            self._apply_membership(iteration, observer)
        if self.faults is not None:
            self._maybe_fail_node(iteration, observer)
            if self._machine_detector is not None:
                self._maybe_straggle_node(iteration, observer)
        stats_all, payloads, motion = self._step_shards()
        n_changed = 0
        machine_ns: dict[int, float] = {}
        dist_total = 0
        clause1 = clause2 = clause3 = 0
        steals = 0
        busy: list[float] = []
        shard_rows = self.sharded.shard_rows()

        for si, stats in enumerate(stats_all):
            mi = self.shard_owner[si]
            machine = self.cluster.machines[mi]
            sn = shard_rows[si]
            tasks = build_task_blocks(
                sn,
                self.d,
                machine,
                dist_per_row=stats.dist_per_row,
                needs_data=stats.needs_data,
                task_rows=(
                    auto_task_rows(sn, machine.n_threads)
                    if self.task_rows is None
                    else min(self.task_rows, max(1, sn))
                ),
                state_bytes_per_row=self.state_bytes,
            )
            trace = machine.engine.run(
                self.schedulers[si], tasks, machine.threads,
                d=self.d, k=self.k,
            )
            observer.on_task_trace(iteration, trace, machine_index=mi)
            # A machine that adopted extra shards runs them serially.
            machine_ns[mi] = machine_ns.get(mi, 0.0) + trace.total_ns
            dist_total += int(stats.dist_per_row.sum())
            clause1 += stats.clause1_rows
            clause2 += stats.clause2_pruned
            clause3 += stats.clause3_pruned
            steals += trace.total_steals
            busy.append(trace.busy_fraction)
            n_changed += stats.n_changed

        if self._machine_detector is not None:
            self._observe_machines(iteration, machine_ns, observer)

        wire, allreduce_ns = self._collective(
            iteration, self.cluster.comm, payloads, observer,
            timing_comm=self._timing_comm,
        )

        boundary_ns, self._boundary_ns = self._boundary_ns, 0.0
        sim_ns = max(machine_ns.values()) + allreduce_ns + boundary_ns
        record = IterationRecord(
            iteration=iteration,
            sim_ns=sim_ns,
            n_changed=n_changed,
            dist_computations=dist_total,
            clause1_rows=clause1,
            clause2_pruned=clause2,
            clause3_pruned=clause3,
            busy_fraction=float(np.mean(busy)),
            steals=steals,
            network_bytes=wire,
            allreduce_ns=allreduce_ns,
            machines_alive=len(self._alive()),
        )
        if self.autoscaler is not None:
            self._observe_autoscaler(iteration, sim_ns)
        return IterationOutcome(record, n_changed, motion)


class PureMpiBackend(_ShardedBackend):
    """Section 8.9 baseline: identical sharded numerics, but one
    single-threaded unpinned rank per core -- per-rank compute pays the
    NUMA penalty and the allreduce spans every rank, not one per
    machine. The knord-vs-MPI gap is therefore pure NUMA dividend."""

    def __init__(
        self,
        comm: Any,
        sharded: ShardedProgram,
        *,
        dist_col_ns: float,
        row_overhead_ns: float,
        numa_penalty: float,
        faults: Any = None,
        retry_policy: Any = None,
        membership: Any = None,
        autoscaler: Any = None,
    ) -> None:
        if getattr(sharded, "allreduce", "tree") != "tree":
            from repro.errors import ConfigError

            raise ConfigError(
                "the pure-MPI baseline supports allreduce='tree' only: "
                "its flat one-rank-per-core space has no "
                "one-rank-per-machine grid for the rectangular schedule"
            )
        if membership is not None or autoscaler is not None:
            from repro.errors import ConfigError

            raise ConfigError(
                "the pure-MPI baseline is a fixed-rank world: MPI "
                "communicators cannot grow or shrink mid-run, so "
                "elastic membership plans and autoscaling are not "
                "supported (use the knord backend)"
            )
        super().__init__(sharded, faults, retry_policy)
        self.comm = comm
        self.dist_col_ns = dist_col_ns
        self.row_overhead_ns = row_overhead_ns
        self.numa_penalty = numa_penalty

    def run_iteration(
        self, iteration: int, observer: RunObserver
    ) -> IterationOutcome:
        stats_all, payloads, motion = self._step_shards()
        n_changed = 0
        rank_ns: list[float] = []
        dist_total = 0
        shard_rows = self.sharded.shard_rows()

        for ri, stats in enumerate(stats_all):
            sn = shard_rows[ri]
            n_dist = int(stats.dist_per_row.sum())
            # Single-threaded rank, unpinned: NUMA penalty, no SMT.
            rank_ns.append(
                (n_dist * self.dist_col_ns + sn * self.row_overhead_ns)
                * self.numa_penalty
            )
            dist_total += n_dist
            n_changed += stats.n_changed

        wire, allreduce_ns = self._collective(
            iteration, self.comm, payloads, observer
        )

        record = IterationRecord(
            iteration=iteration,
            sim_ns=max(rank_ns) + allreduce_ns,
            n_changed=n_changed,
            dist_computations=dist_total,
            network_bytes=wire,
            allreduce_ns=allreduce_ns,
        )
        return IterationOutcome(record, n_changed, motion)
