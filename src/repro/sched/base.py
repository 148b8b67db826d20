"""Scheduler base class and shared helpers."""

from __future__ import annotations

import abc
from collections import deque

from repro.errors import SchedulerError
from repro.simhw.engine import ScheduleDecision, TaskWork
from repro.simhw.thread import SimThread


def owner_of_task(task_id: int, n_tasks: int, n_threads: int) -> int:
    """Thread that owns a task under the paper's block partitioning.

    Tasks are contiguous row blocks in dataset order; thread ``t`` owns
    the ``t``-th equal share of them, mirroring Figure 1's layout where
    thread ``t``'s data partition is rows ``[t*alpha, (t+1)*alpha)``.
    """
    if n_tasks <= 0:
        raise SchedulerError("no tasks to own")
    if not 0 <= task_id < n_tasks:
        raise SchedulerError(f"task_id {task_id} out of range")
    return min(task_id * n_threads // n_tasks, n_threads - 1)


class BaseScheduler(abc.ABC):
    """Common queue bookkeeping for all three scheduling policies.

    Every decision is O(1) apart from the steal scan itself: the number
    of empty queues is kept incrementally by :meth:`_pop` (the only way
    a task leaves a queue), so the contention estimate and the
    all-drained early exit need no scan over the partitions.

    A policy declares ``owner_probes`` next to its ``next_task`` when,
    while no queue is empty, that ``next_task`` pops the front of the
    caller's own queue at that lock-probe price. The engine then prices
    this owner phase in arrays (see :meth:`owner_phase`).
    """

    #: Lock probes of one owner pop while no queue is empty, declared
    #: by the class that defines the modelled ``next_task``.
    owner_probes: tuple[int, ...] | None = None
    #: Whether a thread whose own queue is empty steals; if not, the
    #: owner phase is the whole run.
    steals: bool = True

    def __init__(self) -> None:
        self._queues: list[deque[TaskWork]] = []
        self._thread_nodes: list[int] = []
        self._n_threads = 0
        self._n_empty = 0

    def owner_phase(self) -> tuple[int, ...] | None:
        """The ``owner_probes`` of the class that defines ``next_task``.

        ``None`` -- the engine replays every decision -- unless that
        class declared them, so a subclass that overrides ``next_task``
        (a test double, a new policy) opts out until it declares its
        own.
        """
        for cls in type(self).__mro__:
            if "next_task" in vars(cls):
                return vars(cls).get("owner_probes")
        return None

    def assign(self, tasks: list[TaskWork], threads: list[SimThread]) -> None:
        """Load a fresh iteration's tasks into per-thread queues."""
        if not threads:
            raise SchedulerError("assign() needs at least one thread")
        queues: list[list[TaskWork]] = [[] for _ in threads]
        n_tasks, n_threads = len(tasks), len(threads)
        for task in tasks:
            queues[owner_of_task(task.task_id, n_tasks, n_threads)].append(task)
        self.load(queues, threads)

    def load(
        self, queues: list[list[TaskWork]], threads: list[SimThread]
    ) -> None:
        """Install one queue per thread, front first: what :meth:`assign`
        builds, or what is left after the engine committed the owner
        phase."""
        if len(queues) != len(threads) or not threads:
            raise SchedulerError(
                f"load() needs one queue per thread, got {len(queues)} "
                f"queues for {len(threads)} threads"
            )
        self._n_threads = len(threads)
        self._thread_nodes = [th.node for th in threads]
        self._queues = [deque(q) for q in queues]
        self._n_empty = sum(1 for q in self._queues if not q)

    def queue_lengths(self) -> list[int]:
        """Remaining tasks per partition (for tests and introspection)."""
        return [len(q) for q in self._queues]

    def _drained(self) -> bool:
        """Every partition is empty: the caller parks at the barrier."""
        return self._n_empty == self._n_threads

    def _contenders(self) -> int:
        """Expected contention on one partition lock: its owner plus
        the prowling stealers (threads whose own queue is empty), spread
        over the ``T`` partition locks."""
        return 1 + (self._n_empty + self._n_threads - 1) // self._n_threads

    def _pop(self, victim: int, *, back: bool = False) -> TaskWork:
        """Take a task from partition ``victim`` (its front, or its back
        for a steal that leaves the owner the front) and keep the
        empty-queue count current."""
        queue = self._queues[victim]
        task = queue.pop() if back else queue.popleft()
        if not queue:
            self._n_empty += 1
        return task

    @abc.abstractmethod
    def next_task(self, thread: SimThread) -> ScheduleDecision | None:
        """Hand ``thread`` its next task, or ``None`` when it should
        park at the barrier."""
