"""Task schedulers for the ||Lloyd's super-phase.

The paper compares three policies (Section 8.4, Figure 5):

* **static** -- each thread is pre-assigned ``n/T`` contiguous rows; no
  queue, no locks, no stealing. Optimal when work per row is uniform
  (MTI disabled).
* **FIFO** -- per-thread queues with unrestricted work stealing: an idle
  thread takes the next task from any backlog, regardless of where the
  task's data lives.
* **NUMA-aware partitioned priority queue** (knori's default, Figure 2)
  -- the queue is partitioned per thread, each partition has its own
  lock, and idle threads steal from partitions bound to the *same NUMA
  node first*, falling back to remote partitions only after one full
  priority-seeking cycle. This keeps stolen work node-local, which is
  what preserves the memory-locality optimization once MTI skews the
  per-task work.

All schedulers consume :class:`repro.simhw.TaskWork` items and answer
the engine's ``next_task`` calls with
:class:`repro.simhw.ScheduleDecision` records that carry exact lock
probe counts, so queue contention is charged faithfully. Each policy
also declares the lock price of its *owner phase* (every pop before a
queue empties, see :meth:`BaseScheduler.owner_phase`), which the engine
prices in arrays before it asks for any decision.
"""

from repro.sched.base import BaseScheduler, owner_of_task
from repro.sched.static import StaticScheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.numa_aware import NumaAwareScheduler
from repro.sched.blocks import build_task_blocks, DEFAULT_TASK_ROWS

__all__ = [
    "BaseScheduler",
    "owner_of_task",
    "StaticScheduler",
    "FifoScheduler",
    "NumaAwareScheduler",
    "build_task_blocks",
    "DEFAULT_TASK_ROWS",
]
