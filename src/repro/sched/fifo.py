"""FIFO work-stealing scheduler (NUMA-oblivious stealing).

The Figure 5 baseline: threads first drain the tasks local to their own
partition, then steal from straggler threads *whose data resides on any
NUMA node* -- the stealing order ignores topology, so a stolen task is
usually remote. Every queue access takes that partition's lock; an idle
thread probing partitions in id order is exactly the scan a FIFO
stealing pool performs.
"""

from __future__ import annotations

from repro.sched.base import BaseScheduler
from repro.simhw.engine import ScheduleDecision
from repro.simhw.thread import SimThread


class FifoScheduler(BaseScheduler):
    """Partitioned queues, steal from anyone in thread-id order."""

    # No queue empty yet: no prowlers, so one contender per lock.
    owner_probes = (1,)

    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Own queue first, then steal from any backlog in id order."""
        if self._drained():
            return None
        tid = thread.thread_id
        # Prowling stealers spread over T partition locks; the expected
        # contention on any one lock is their per-lock share.
        contenders = self._contenders()
        if self._queues[tid]:
            return ScheduleDecision(
                task=self._pop(tid),
                probe_contenders=(contenders,),
            )
        # Steal scan: walk partitions in id order starting after ours --
        # topology-oblivious, so the first victim found is usually on a
        # different NUMA node (the stolen task's data is remote).
        probes: list[int] = [contenders]  # the failed probe of our own
        for step in range(1, self._n_threads):
            victim = (tid + step) % self._n_threads
            probes.append(contenders)
            if self._queues[victim]:
                return ScheduleDecision(
                    task=self._pop(victim),
                    probe_contenders=tuple(probes),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        return None
