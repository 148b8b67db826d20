"""Event-driven execution engine for one parallel super-phase.

The engine replays, in simulated time, exactly what the paper's worker
threads do inside one iteration of ||Lloyd's: repeatedly pull a task
from the scheduler, stream the task's rows from whichever bank holds
them, run the (possibly pruned) distance computations, and accumulate
into thread-local centroids. It then charges the single global barrier
and the funnel reduction that ends the iteration.

The *work content* of each task (rows touched, distance computations
after pruning, bytes needed) is computed by the real algorithm before
the engine runs; the engine decides only *when* and *where* the work
happens and what it costs. That split keeps numerics exact while timing
stays a deterministic model.

Event order: the thread with the smallest private clock acts next.
Ties break on thread id, so traces are fully reproducible.

:meth:`IterationEngine.run` prices the *owner phase* -- every event up
to the first one that empties a queue, when each thread is still
popping the front of its own block range -- as array prefix sums, and
replays only the rest (the steal tail) event by event. The split is
exact for three reasons:

* *Two contention values.* A partitioned scheduler's lock contention
  is 1 while no queue is empty and 2 once one is, so every owner-phase
  pop has one fixed lock price (``StaticScheduler`` takes no lock at
  all, and never steals, so its whole run is owner phase).
* *Lexicographic event order.* Events run in ``(clock, thread_id)``
  order and each thread's clock only grows, so the events before the
  first queue-empty event ``E`` are exactly the owner events whose
  start sorts at or before ``E``, and ``E`` is the minimum over
  threads of each one's last-task start.
* *Sequential accumulate.* ``np.add.accumulate`` adds left to right,
  like the event loop's ``+=``, so each thread's clock after ``j``
  owner tasks is bit-identical to ``j`` replayed events.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from operator import attrgetter
from typing import ClassVar, Protocol

import numpy as np

from repro.errors import SchedulerError
from repro.simhw.costmodel import CostModel
from repro.simhw.thread import SimThread, ThreadCounters
from repro.simhw.topology import BindPolicy


@dataclass(frozen=True)
class TaskWork:
    """Exact work content of one task, produced by the algorithm.

    Attributes
    ----------
    task_id:
        Dense index of the task (block of contiguous rows).
    n_rows:
        Rows in the block.
    n_dist:
        Point-centroid distance computations actually performed for the
        block this iteration (after pruning).
    data_bytes:
        Row data that must be streamed from memory for the block.
    state_bytes:
        Per-row algorithm state touched (assignments, bounds).
    home_node:
        NUMA node whose bank holds the block's slice of the dataset.
    """

    task_id: int
    n_rows: int
    n_dist: int
    data_bytes: int
    state_bytes: int
    home_node: int


@dataclass(frozen=True, eq=False)
class TaskBlocks:
    """One iteration's tasks as five int64 arrays, task ``i`` at index ``i``.

    The array form of a ``list[TaskWork]`` whose ``task_id`` is the
    position: building and pricing an iteration makes no per-task
    object. ``len()`` is the task count; iteration gives the per-task
    :class:`TaskWork` view, and :meth:`works` materialises a batch.
    Blocks packed from a list by :meth:`from_works` keep it in
    ``source`` and hand back its objects rather than new ones.
    """

    n_rows: np.ndarray
    n_dist: np.ndarray
    data_bytes: np.ndarray
    state_bytes: np.ndarray
    home_node: np.ndarray
    source: list[TaskWork] | None = field(default=None, repr=False)

    FIELDS: ClassVar[tuple[str, ...]] = (
        "n_rows", "n_dist", "data_bytes", "state_bytes", "home_node",
    )

    @classmethod
    def from_works(cls, tasks: Sequence[TaskWork]) -> "TaskBlocks":
        """Pack hand-built tasks; their ids must be ``0..n-1`` in order."""
        source = list(tasks)
        for pos, task_id in enumerate(map(attrgetter("task_id"), source)):
            if task_id != pos:
                raise SchedulerError(
                    f"task at position {pos} has task_id {task_id}; "
                    "task ids must run 0..n-1 in list order"
                )
        table = np.array(
            list(map(attrgetter(*cls.FIELDS), source)), dtype=np.int64
        ).reshape(-1, len(cls.FIELDS))
        return cls(*table.T, source=source)

    def __len__(self) -> int:
        return len(self.n_rows)

    def __iter__(self):
        return iter(self.works())

    def works(self, ids: np.ndarray | None = None) -> list[TaskWork]:
        """Tasks ``ids`` (all of them by default) as :class:`TaskWork`."""
        if self.source is not None:
            if ids is None:
                return list(self.source)
            return list(map(self.source.__getitem__, ids.tolist()))
        if ids is None:
            ids = np.arange(len(self))
        return list(map(
            TaskWork, ids.tolist(),
            *(getattr(self, f)[ids].tolist() for f in self.FIELDS),
        ))


@lru_cache(maxsize=64)
def _queue_layout(
    n_tasks: int, n_threads: int
) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """owner_of_task's block partition as arrays: thread t's queue is
    tasks ``[bounds[t], bounds[t + 1])``, front first, ``bounds[t] =
    ceil(t n / T)``; task i sits at ``slot[i]`` in ``owner[i]``'s queue.

    A pure function of the two sizes, which repeat from one iteration
    to the next, so it is cached; the arrays are read-only.
    """
    bounds = [-(-t * n_tasks // n_threads) for t in range(n_threads + 1)]
    queue_len = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    owner = np.repeat(np.arange(n_threads), queue_len)
    slot = np.arange(n_tasks) - np.repeat(bounds[:-1], queue_len)
    owner.setflags(write=False)
    slot.setflags(write=False)
    return bounds, queue_len, owner, slot


class TaskScheduler(Protocol):
    """What the engine needs from a scheduler (see :mod:`repro.sched`).

    A scheduler may also offer ``owner_phase()``, returning the lock
    probes of an owner pop for the policies whose ``next_task`` the
    owner-phase prefix models, plus ``steals`` and ``load(queues,
    threads)``; see :class:`repro.sched.BaseScheduler`. Without them
    the engine replays every decision.
    """

    def assign(
        self, tasks: list[TaskWork], threads: list[SimThread]
    ) -> None:  # pragma: no cover - protocol
        """Load a fresh iteration's tasks."""
        ...

    def next_task(
        self, thread: SimThread
    ) -> "ScheduleDecision | None":  # pragma: no cover - protocol
        """Hand ``thread`` its next task, or None when drained."""
        ...


@dataclass(frozen=True)
class ScheduleDecision:
    """One scheduler response: a task plus the locking it cost.

    ``probe_contenders`` lists, for each queue partition the thread
    probed while searching, how many threads contend on that
    partition's lock. ``stolen_from_node`` is the NUMA node of the
    queue the task was finally taken from (for steal accounting).
    """

    task: TaskWork
    probe_contenders: tuple[int, ...] = (1,)
    stolen_from_node: int | None = None
    was_steal: bool = False


@dataclass
class TaskExecution:
    """Trace record: one task run on one thread."""

    task_id: int
    thread_id: int
    start_ns: float
    end_ns: float
    compute_ns: float
    mem_ns: float
    lock_ns: float
    remote: bool


@dataclass
class IterationTrace:
    """Everything the engine learned about one super-phase."""

    thread_clocks_ns: list[float]
    span_ns: float
    barrier_ns: float
    reduction_ns: float
    total_ns: float
    executions: list[TaskExecution] = field(default_factory=list)
    #: Exact totals summed over threads.
    total_rows: int = 0
    total_dist: int = 0
    total_bytes_local: int = 0
    total_bytes_remote: int = 0
    total_steals: int = 0

    @property
    def busy_fraction(self) -> float:
        """Mean thread utilization before the barrier (1.0 = no skew)."""
        if self.span_ns <= 0 or not self.thread_clocks_ns:
            return 1.0
        return sum(self.thread_clocks_ns) / (
            self.span_ns * len(self.thread_clocks_ns)
        )


class IterationEngine:
    """Replays one super-phase of ||Lloyd's in simulated time."""

    def __init__(
        self,
        cost_model: CostModel,
        *,
        bind_policy: BindPolicy = BindPolicy.NUMA_BIND,
        record_executions: bool = False,
    ) -> None:
        self.cost = cost_model
        self.bind_policy = bind_policy
        self.record_executions = record_executions
        # Lock price of each distinct probe pattern under ``cost``.
        self._lock_prices: tuple[CostModel, dict] = (cost_model, {})

    # -- bank concurrency estimate ---------------------------------

    @staticmethod
    def _bank_streams(
        home_node: np.ndarray, thread_nodes: list[int]
    ) -> dict[int, tuple[int, int]]:
        """Estimate (total, remote) concurrent streams per bank.

        The banks are read off ``home_node`` with one ``bincount``, so
        the cost is O(banks x T), not a pass over the tasks.

        Static approximation: every thread whose assigned data lives on
        a bank counts as one stream there; threads on other nodes count
        as remote streams. Under OBLIVIOUS everything sits on node 0 so
        all T threads pile onto one bank -- exactly the saturation
        Figure 4 attributes to NUMA-oblivious allocation.
        """
        banks = np.flatnonzero(np.bincount(home_node)).tolist()
        if len(banks) <= 1:
            # All data in one bank (OBLIVIOUS / NUMA_BIND-to-one-node):
            # every thread must stream from it.
            return {
                bank: (
                    max(1, len(thread_nodes)),
                    len(thread_nodes) - thread_nodes.count(bank),
                )
                for bank in banks
            }
        # Partitioned data: each bank is served mostly by the threads
        # bound to its node (steals are the exception, not the steady
        # state, so they do not change the concurrency estimate).
        return {bank: (max(1, thread_nodes.count(bank)), 0) for bank in banks}

    # -- main loop ---------------------------------------------------

    def run(
        self,
        scheduler: TaskScheduler,
        tasks: TaskBlocks | Sequence[TaskWork],
        threads: list[SimThread],
        *,
        d: int,
        k: int,
        reduction: bool = True,
    ) -> IterationTrace:
        """Execute one super-phase and return its trace.

        ``d``/``k`` size the centroid merge at the end; set
        ``reduction=False`` for phases that do not merge (e.g. an
        assignment-only pass). A hand-built ``list[TaskWork]`` is
        packed into :class:`TaskBlocks` first, so there is one pricing
        path.

        For a scheduler that declares its owner phase (see
        :meth:`repro.sched.BaseScheduler.owner_phase`), every event up
        to the first one that empties a queue is priced in arrays: each
        task's compute, memory and task time on its owner thread, one
        ``np.add.accumulate`` over the threads laid out padded
        ``(T, max_queue)`` for the clocks, the first queue-empty event
        ``E`` as the lexicographic minimum of each thread's last-task
        start, and every owner event at or before ``E`` committed at
        once (see the module docstring for why that is exact). The
        scheduler is then loaded with only the remaining tasks and the
        event loop replays the steal tail. Any other scheduler has
        every decision replayed.

        The event loop folds per-task cost-model calls into
        per-iteration constants and per-node bandwidth tables, prices
        each distinct lock-probe pattern once, and bypasses the heap
        while only one thread remains runnable. Event order and every
        simulated charge are bit-identical to the straight-line
        reference event loop kept in ``tests/oracles.py``
        (conformance-tested on recorded and generated task sets).
        """
        if not threads:
            raise SchedulerError("engine needs at least one thread")
        if not isinstance(tasks, TaskBlocks):
            tasks = TaskBlocks.from_works(tasks)
        n_tasks = len(tasks)
        n_threads = len(threads)
        thread_nodes = [th.node for th in threads]
        overlap = self.bind_policy is not BindPolicy.OBLIVIOUS
        cost = self.cost
        smt_mult = cost.smt_compute_mult(n_threads)
        migration_mult = (
            cost.migration_compute_mult(n_threads)
            if self.bind_policy is BindPolicy.OBLIVIOUS
            else 1.0
        )

        # -- per-iteration cost tables --------------------------------
        # One distance column (dist_comp_ns is linear in n_dist) and
        # one row of bookkeeping; the (a + b) * smt * mig evaluation
        # order below matches the CostModel call chain exactly.
        col_ns = cost.dist_comp_ns(d, 1)
        row_ns = cost.row_overhead_ns
        # Effective (local, remote) bandwidth per bank: the min() chain
        # of CostModel.mem_stream_ns evaluated once per bank instead of
        # once per task.
        line_bytes = cost.cache_line_bytes
        line_lat = cost.remote_line_latency_ns
        mem_table: dict[int, tuple[float, float]] = {}
        for bank, (streams_t, streams_r) in self._bank_streams(
            tasks.home_node, thread_nodes
        ).items():
            bw_local = min(
                cost.per_core_bw, cost.bank_bw / max(1, streams_t)
            )
            bw_remote = min(
                bw_local, cost.interconnect_bw / max(1, streams_r)
            )
            mem_table[bank] = (bw_local, bw_remote)
        # Distinct probe patterns are few (schedulers emit a handful of
        # tuple shapes); price each once per cost model.
        if self._lock_prices[0] is not cost:
            self._lock_prices = (cost, {})
        lock_table: dict[tuple[int, ...], float] = self._lock_prices[1]

        executions: list[TaskExecution] = []
        record_executions = self.record_executions
        owner_phase = getattr(scheduler, "owner_phase", None)
        probes = owner_phase() if owner_phase is not None else None
        if probes is None:
            for th in threads:
                th.clock_ns = 0.0
                th.counters = ThreadCounters()
            scheduler.assign(tasks.works(), threads)
            n_committed = 0
        else:
            lock_ns = lock_table.get(probes)
            if lock_ns is None:
                lock_ns = lock_table[probes] = sum(
                    cost.lock_wait_ns(c) for c in probes
                )
            n_committed, tail = self._commit_owner_phase(
                tasks, threads, thread_nodes, probes, lock_ns,
                steals=scheduler.steals,
                prices=(col_ns, row_ns, smt_mult, migration_mult),
                mem_table=mem_table,
                executions=executions if record_executions else None,
            )
            scheduler.load(tail, threads)

        seen_tasks: set[int] = set()
        next_task = scheduler.next_task

        def execute(thread: SimThread, decision: ScheduleDecision) -> None:
            task = decision.task
            if task.task_id in seen_tasks:
                raise SchedulerError(
                    f"task {task.task_id} dispatched twice"
                )
            seen_tasks.add(task.task_id)

            probes = decision.probe_contenders
            lock_ns = lock_table.get(probes)
            if lock_ns is None:
                lock_ns = sum(cost.lock_wait_ns(c) for c in probes)
                lock_table[probes] = lock_ns
            c = thread.counters
            c.queue_probes += len(probes)
            c.lock_wait_ns += lock_ns
            if decision.was_steal:
                if decision.stolen_from_node == thread.node:
                    c.steals_local_node += 1
                else:
                    c.steals_remote_node += 1

            compute_ns = (
                task.n_dist * col_ns + task.n_rows * row_ns
            ) * smt_mult * migration_mult
            remote = task.home_node != thread.node
            nbytes = task.data_bytes + task.state_bytes
            if nbytes <= 0:
                mem_ns = 0.0
            else:
                bw_local, bw_remote = mem_table[task.home_node]
                if remote:
                    n_lines = math.ceil(nbytes / line_bytes)
                    mem_ns = (
                        nbytes / bw_remote * 1e9
                        + 0.3 * n_lines * line_lat
                    )
                else:
                    mem_ns = nbytes / bw_local * 1e9
            # A remote block cannot ride the local-bank prefetch
            # pipeline: remote accesses serialize against compute, so
            # stolen-remote tasks (and everything under the oblivious
            # policy) lose the overlap.
            if overlap and not remote:
                task_ns = (
                    compute_ns if compute_ns > mem_ns else mem_ns
                )
            else:
                task_ns = compute_ns + mem_ns
            start = thread.clock_ns
            # Straggler plane: an injected slowdown stretches this
            # thread's execution. Guarded so the fault-free arithmetic
            # is untouched (bit-identical clean runs).
            sf = thread.slow_factor
            if sf != 1.0:
                thread.clock_ns = start + (lock_ns + task_ns) * sf
            else:
                thread.clock_ns = start + (lock_ns + task_ns)

            c.tasks_run += 1
            c.rows_processed += task.n_rows
            c.dist_computations += task.n_dist
            if remote:
                c.bytes_remote += nbytes
            else:
                c.bytes_local += nbytes

            if record_executions:
                executions.append(
                    TaskExecution(
                        task_id=task.task_id,
                        thread_id=thread.thread_id,
                        start_ns=start,
                        end_ns=thread.clock_ns,
                        compute_ns=compute_ns,
                        mem_ns=mem_ns,
                        lock_ns=lock_ns,
                        remote=remote,
                    )
                )

        # -- event loop -----------------------------------------------
        # Each runnable thread holds exactly one heap entry; drained
        # threads are simply not re-pushed, so no stale entries exist.
        # Once its last task is out, a modelled scheduler parks every
        # thread, so the loop ends there rather than asking each one; a
        # replayed scheduler is asked until it says so itself.
        heap: list[tuple[float, int]] = [
            (th.clock_ns, th.thread_id) for th in threads
        ]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        n_last = None if probes is None else n_tasks - n_committed
        n_active = 0 if n_last == 0 else n_threads
        while n_active:
            if n_active == 1:
                # One runnable thread: every remaining event is its
                # next task, so the heap ordering is vacuous -- drain
                # the scheduler directly without push/pop churn.
                thread = threads[heap[0][1]]
                while (decision := next_task(thread)) is not None:
                    execute(thread, decision)
                break
            _, tid = heappop(heap)
            thread = threads[tid]
            decision = next_task(thread)
            if decision is None:
                n_active -= 1
                continue
            execute(thread, decision)
            if len(seen_tasks) == n_last:
                break
            heappush(heap, (thread.clock_ns, tid))

        if n_committed + len(seen_tasks) != n_tasks:
            raise SchedulerError(
                f"scheduler drained with "
                f"{n_committed + len(seen_tasks)}/{n_tasks} "
                "tasks dispatched"
            )

        span = max(th.clock_ns for th in threads)
        barrier = self.cost.barrier_ns(n_threads)
        red = (
            self.cost.reduction_ns(k, d, n_threads) if reduction else 0.0
        )
        totals = [th.counters for th in threads]
        return IterationTrace(
            thread_clocks_ns=[th.clock_ns for th in threads],
            span_ns=span,
            barrier_ns=barrier,
            reduction_ns=red,
            total_ns=span + barrier + red,
            executions=executions,
            total_rows=sum(c.rows_processed for c in totals),
            total_dist=sum(c.dist_computations for c in totals),
            total_bytes_local=sum(c.bytes_local for c in totals),
            total_bytes_remote=sum(c.bytes_remote for c in totals),
            total_steals=sum(
                c.steals_local_node + c.steals_remote_node for c in totals
            ),
        )

    def _commit_owner_phase(
        self,
        tasks: TaskBlocks,
        threads: list[SimThread],
        thread_nodes: list[int],
        probes: tuple[int, ...],
        lock_ns: float,
        *,
        steals: bool,
        prices: tuple[float, float, float, float],
        mem_table: dict[int, tuple[float, float]],
        executions: list[TaskExecution] | None,
    ) -> tuple[int, list[list[TaskWork]]]:
        """Commit the owner phase: every event up to and including the
        first one that empties a queue (every event if nobody steals).

        Sets each thread's clock and counters to their values after its
        committed events, appends those events' records in event order
        when ``executions`` is given, and returns the committed count
        plus each thread's remaining queue, front first. Each step
        keeps ``execute``'s operation order, so the values are
        bit-identical to replaying the events one at a time. The cost
        is a fixed number of numpy calls plus O(T) Python.
        """
        n_tasks = len(tasks)
        n_threads = len(threads)
        col_ns, row_ns, smt_mult, migration_mult = prices
        cost = self.cost
        bounds, queue_len, owner, slot = _queue_layout(n_tasks, n_threads)

        # Every task priced on its owner thread with execute's
        # operations in execute's order (a * b == b * a and x + 0.0 ==
        # x exactly, which the in-place forms rely on).
        home = tasks.home_node
        remote = home != np.array(thread_nodes)[owner]
        compute = tasks.n_dist * col_ns
        compute += tasks.n_rows * row_ns
        compute *= smt_mult
        compute *= migration_mult
        nbytes = tasks.data_bytes + tasks.state_bytes
        # Per-node bandwidth; a node that holds no task's data is never
        # looked up, so its placeholder is never read.
        bw_local, bw_remote = np.array(
            [mem_table.get(b, (1.0, 1.0)) for b in range(max(mem_table) + 1)]
            if mem_table else [(1.0, 1.0)]
        ).T
        mem = nbytes / np.where(remote, bw_remote[home], bw_local[home])
        mem *= 1e9
        if remote.any():
            lines = np.ceil(nbytes / cost.cache_line_bytes)
            lines *= 0.3
            lines *= cost.remote_line_latency_ns
            mem += np.where(remote, lines, 0.0)
        mem[nbytes <= 0] = 0.0
        if self.bind_policy is BindPolicy.OBLIVIOUS:
            advance = compute + mem
        else:
            # maximum() differs from execute's ``compute if compute >
            # mem else mem`` only on NaN or -0.0, which no charge is.
            advance = np.where(
                remote, compute + mem, np.maximum(compute, mem)
            )
        advance += lock_ns
        slow = [th.slow_factor for th in threads]
        if any(sf != 1.0 for sf in slow):
            # x * 1.0 == x, so unstretched threads need no guard here.
            advance *= np.array(slow)[owner]

        # Threads padded to (T, longest queue + 1), column 0 the zero
        # start: one sequential accumulate per row turns the charges
        # into each thread's clock after every event.
        clock = np.zeros((n_threads, max(queue_len) + 1))
        clock[owner, slot + 1] = advance
        np.add.accumulate(clock, axis=1, out=clock)
        start = clock[owner, slot]
        if not steals:
            committed = np.ones(n_tasks, dtype=bool)
        elif n_tasks < n_threads:
            # Some queue starts empty: contention is 2 from the first
            # event, and stealers start at once. Replay everything.
            committed = np.zeros(n_tasks, dtype=bool)
        else:
            # E, the first queue-empty event, is the earliest last-task
            # start in (clock, thread id) order; argmin takes the lowest
            # thread id among equal clocks. An event at E's clock
            # precedes E only on a lower thread id.
            last = start[np.array(bounds[1:]) - 1]
            t_e = int(last.argmin())
            s_e = last[t_e]
            committed = start <= s_e
            after_e = bounds[t_e + 1]
            committed[after_e:] = start[after_e:] < s_e
        # Start clocks only grow along a queue, so each thread's
        # committed tasks are a prefix of its range.
        n_done = np.bincount(owner[committed], minlength=n_threads)

        # Integer counters: the same padded accumulate, read at n_done.
        local_bytes = np.where(remote, 0, nbytes)
        tally = np.zeros((4, n_threads, len(clock[0])), dtype=np.int64)
        tally[:, owner, slot + 1] = (
            tasks.n_rows, tasks.n_dist, local_bytes, nbytes - local_bytes,
        )
        np.add.accumulate(tally, axis=2, out=tally)
        tids = np.arange(n_threads)
        done = n_done.tolist()
        waits = list(accumulate([lock_ns] * max(done), initial=0.0))
        for th, clock_ns, n, rows, dist, local_b, remote_b in zip(
            threads, clock[tids, n_done].tolist(), done,
            *tally[:, tids, n_done].tolist(),
        ):
            th.clock_ns = clock_ns
            th.counters = ThreadCounters(
                tasks_run=n,
                rows_processed=rows,
                dist_computations=dist,
                bytes_local=local_b,
                bytes_remote=remote_b,
                queue_probes=n * len(probes),
                lock_wait_ns=waits[n],
            )

        if executions is not None:
            ids = committed.nonzero()[0]
            ids = ids[np.lexsort((ids, owner[ids], start[ids]))]
            executions.extend(map(
                TaskExecution,
                ids.tolist(), owner[ids].tolist(), start[ids].tolist(),
                clock[owner[ids], slot[ids] + 1].tolist(),
                compute[ids].tolist(), mem[ids].tolist(),
                [lock_ns] * len(ids), remote[ids].tolist(),
            ))

        rest = iter(tasks.works((~committed).nonzero()[0]))
        return sum(done), [
            list(islice(rest, q - n)) for q, n in zip(queue_len, done)
        ]


@dataclass(frozen=True)
class IoPlacement:
    """Where one iteration's I/O service time lands relative to compute.

    ``hidden_ns`` was absorbed by the prefetcher ahead of the compute
    front (issued early against banked overlap credit); ``blocked_ns``
    is what compute must still wait behind. ``hidden + blocked`` always
    equals the batch's async service time, so the I/O *work* charged is
    never altered -- only its overlap with compute.
    """

    service_ns: float
    hidden_ns: float
    blocked_ns: float
    prefetched: bool


class AsyncIoTimeline:
    """Cross-iteration overlap ledger for the async I/O pipeline.

    The row-cache refresh tells the prefetcher which rows are *active*;
    from then on the engine knows iteration ``i+1``'s fetch set before
    iteration ``i``'s compute finishes, so SAFS can issue those reads
    under the running compute. The ledger models that without moving
    any real state: each iteration banks *credit* equal to the compute
    time its I/O did not consume (``wall - blocked``), and the next
    prefetchable batch may hide up to that much service time.

    Iteration 0 (and every iteration until the row cache has been
    populated once) has no known-ahead active set, so nothing hides and
    the accounting degenerates to the sync formula
    ``max(span, service) + barrier + reduction``.

    The ledger is pure timing plane: it never touches cache contents or
    hit/miss counters, so numerics and I/O tallies stay bit-identical
    to ``--sync-io`` by construction.
    """

    def __init__(self) -> None:
        self.credit_ns = 0.0
        self.hidden_total_ns = 0.0
        self.blocked_total_ns = 0.0

    def reset(self) -> None:
        """Forget banked credit (crash recovery restarts the pipeline
        cold, matching the caches)."""
        self.credit_ns = 0.0

    def plan(self, service_ns: float, *, prefetchable: bool) -> IoPlacement:
        """Split a batch's service time into hidden and blocked parts."""
        if service_ns < 0:
            raise SchedulerError(f"negative service time {service_ns}")
        hidden = min(service_ns, self.credit_ns) if prefetchable else 0.0
        return IoPlacement(
            service_ns=service_ns,
            hidden_ns=hidden,
            blocked_ns=service_ns - hidden,
            prefetched=hidden > 0.0,
        )

    def commit(
        self,
        placement: IoPlacement,
        span_ns: float,
        barrier_ns: float,
        reduction_ns: float,
    ) -> float:
        """Account one iteration; returns its simulated wall time.

        Compute waits only behind the blocked remainder; the wall time
        the iteration still spends computing (``wall - blocked``) is
        banked as prefetch credit for the next iteration's reads.
        """
        wall = max(span_ns, placement.blocked_ns) + barrier_ns + reduction_ns
        self.credit_ns = wall - placement.blocked_ns
        self.hidden_total_ns += placement.hidden_ns
        self.blocked_total_ns += placement.blocked_ns
        return wall


@dataclass
class ProvisionRequest:
    """One outstanding capacity request on the provisioning timeline."""

    requested_at_ns: float
    ready_at_ns: float
    count: int


class ProvisionTimeline:
    """Request→grant latency ledger for elastic capacity.

    Cloud capacity is not instant: a machine requested at simulated
    time ``T`` boots, joins the placement group and becomes usable
    only at ``T + provision_ns``. This timeline models that honestly
    on the simulated clock the iteration records already carry --
    callers ``advance()`` it by each iteration's wall time, ``request``
    capacity against the current clock, and ``take_ready()`` machines
    whose provisioning latency has fully elapsed.

    Pure timing plane, fully deterministic: no randomness, no real
    clock, so an autoscaler's grant schedule is a pure function of the
    iteration times that drove it.
    """

    def __init__(self, provision_ns: float) -> None:
        if provision_ns < 0:
            raise SchedulerError(
                f"provision_ns must be >= 0, got {provision_ns}"
            )
        self.provision_ns = provision_ns
        self.now_ns = 0.0
        self.pending: list[ProvisionRequest] = []
        self.granted = 0

    def advance(self, delta_ns: float) -> None:
        """Move the simulated clock forward (one iteration's wall)."""
        if delta_ns < 0:
            raise SchedulerError(f"negative time advance {delta_ns}")
        self.now_ns += delta_ns

    def request(self, count: int = 1) -> ProvisionRequest:
        """Ask for ``count`` machines; they ready at now + latency."""
        if count < 1:
            raise SchedulerError(f"count must be >= 1, got {count}")
        req = ProvisionRequest(
            requested_at_ns=self.now_ns,
            ready_at_ns=self.now_ns + self.provision_ns,
            count=count,
        )
        self.pending.append(req)
        return req

    @property
    def outstanding(self) -> int:
        """Machines requested but not yet granted."""
        return sum(r.count for r in self.pending)

    def take_ready(self) -> int:
        """Grant every request whose latency has elapsed; returns the
        machine count granted now (requests are consumed in order)."""
        ready = [r for r in self.pending if r.ready_at_ns <= self.now_ns]
        if not ready:
            return 0
        self.pending = [
            r for r in self.pending if r.ready_at_ns > self.now_ns
        ]
        count = sum(r.count for r in ready)
        self.granted += count
        return count
