"""Static pre-assignment scheduler.

Each thread receives its ``n/T`` contiguous rows up front and never
takes a lock: there is no queue to contend on and no stealing. The
paper notes this is *sufficient for optimal performance when MTI
pruning is disabled* -- uniform work needs no balancing -- but it
collapses under pruning skew (Figure 5), because a thread whose
partition holds the "hard" rows finishes long after its peers.
"""

from __future__ import annotations

from repro.sched.base import BaseScheduler
from repro.simhw.engine import ScheduleDecision
from repro.simhw.thread import SimThread


class StaticScheduler(BaseScheduler):
    """No locks, no stealing: drain your own preassigned queue."""

    # No lock and no stealing: the whole run is the owner phase.
    owner_probes = ()
    steals = False

    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Drain the caller's preassigned queue; never steal."""
        tid = thread.thread_id
        if not self._queues[tid]:
            return None
        # Static assignment has no shared state, hence no lock probes.
        return ScheduleDecision(task=self._pop(tid), probe_contenders=())
