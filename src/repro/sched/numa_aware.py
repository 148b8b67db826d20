"""NUMA-aware partitioned priority task queue (Figure 2).

knori's default scheduler. The queue is partitioned into ``T`` parts,
one per worker, each guarded by its own lock. A task's priority for a
given thread is determined by where its data lives: node-local tasks
are high priority, remote tasks low. The acquisition protocol follows
Section 5.2:

1. Take from your own partition if it has work (always node-local).
2. Otherwise cycle once through the other partitions *on your NUMA
   node* -- stolen work stays local, costing no remote traffic.
3. Only after that single high-priority cycle fails, settle for a
   (possibly lower-priority) task from a remote partition. This
   trade-off "avoids starvation and ensures threads are idle for
   negligible periods".

Compared to :class:`repro.sched.fifo.FifoScheduler`, the only change is
the steal *order* -- yet that is what preserves memory locality under
pruning skew, which is the entire point of Figure 5.
"""

from __future__ import annotations

from repro.sched.base import BaseScheduler
from repro.simhw.engine import ScheduleDecision, TaskWork
from repro.simhw.thread import SimThread


class NumaAwareScheduler(BaseScheduler):
    """Partitioned priority queue with local-node-first stealing."""

    def __init__(self) -> None:
        super().__init__()
        self._steal_orders: list[list[int]] = []

    def assign(self, tasks: list[TaskWork], threads: list[SimThread]) -> None:
        """Load the queues and fix each thread's steal order for the
        iteration: same-node partitions first, then remote, both in
        deterministic id order starting after the thread."""
        super().assign(tasks, threads)
        n = self._n_threads
        nodes = self._thread_nodes
        self._steal_orders = []
        for tid in range(n):
            ring = [(tid + s) % n for s in range(1, n)]
            local = [v for v in ring if nodes[v] == nodes[tid]]
            remote = [v for v in ring if nodes[v] != nodes[tid]]
            self._steal_orders.append(local + remote)

    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Own partition, then same-node victims, then remote."""
        if self._drained():
            return None
        tid = thread.thread_id
        # Contention on a partition lock: its owner plus any prowling
        # stealers that reached it. Partitioning keeps this near 1.
        prowlers_share = self._contenders()
        if self._queues[tid]:
            return ScheduleDecision(
                task=self._pop(tid),
                probe_contenders=(prowlers_share,),
            )
        probes: list[int] = [prowlers_share]
        for victim in self._steal_orders[tid]:
            probes.append(prowlers_share)
            if self._queues[victim]:
                # Steal from the *back* of the victim's queue: the
                # owner keeps working the front, minimizing interference.
                return ScheduleDecision(
                    task=self._pop(victim, back=True),
                    probe_contenders=tuple(probes),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        return None
