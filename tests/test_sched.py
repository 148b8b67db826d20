"""Schedulers: completeness, steal ordering, and priority invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.sched import (
    BaseScheduler,
    FifoScheduler,
    NumaAwareScheduler,
    StaticScheduler,
    build_task_blocks,
    owner_of_task,
)
from repro.sched.blocks import auto_task_rows
from repro.simhw import FOUR_SOCKET_XEON, SimMachine, TaskWork
from repro.simhw.engine import IterationEngine, ScheduleDecision
from repro.simhw.thread import spawn_threads
from repro.simhw.topology import BindPolicy

from tests.oracles import build_task_blocks_loop


def make_tasks(n, home=None):
    return [
        TaskWork(i, 10, 100, 640, 120, home if home is not None else i % 4)
        for i in range(n)
    ]


def make_threads(t):
    return spawn_threads(
        FOUR_SOCKET_XEON.topology, t, BindPolicy.NUMA_BIND
    )


def drain(sched, tasks, threads, order=None):
    """Round-robin drain; returns {thread_id: [task_ids]}."""
    sched.assign(tasks, threads)
    got = {th.thread_id: [] for th in threads}
    active = list(threads) if order is None else [threads[i] for i in order]
    while active:
        still = []
        for th in active:
            dec = sched.next_task(th)
            if dec is not None:
                got[th.thread_id].append(dec.task.task_id)
                still.append(th)
        active = still
    return got


@pytest.mark.parametrize(
    "sched_cls", [StaticScheduler, FifoScheduler, NumaAwareScheduler]
)
def test_every_task_dispatched_exactly_once(sched_cls):
    tasks = make_tasks(37)
    threads = make_threads(5)
    got = drain(sched_cls(), tasks, threads)
    all_ids = sorted(i for ids in got.values() for i in ids)
    assert all_ids == list(range(37))


def test_owner_of_task_block_structure():
    owners = [owner_of_task(i, 16, 4) for i in range(16)]
    assert owners == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4


def test_owner_of_task_validation():
    with pytest.raises(SchedulerError):
        owner_of_task(0, 0, 4)
    with pytest.raises(SchedulerError):
        owner_of_task(16, 16, 4)


def test_static_never_steals():
    tasks = make_tasks(16)
    threads = make_threads(4)
    sched = StaticScheduler()
    sched.assign(tasks, threads)
    # Exhaust thread 0's own queue; it must then get None even though
    # other queues still hold work.
    while (dec := sched.next_task(threads[0])) is not None:
        assert not dec.was_steal
    assert sum(sched.queue_lengths()) == 12


def test_static_no_lock_probes():
    tasks = make_tasks(8)
    threads = make_threads(4)
    sched = StaticScheduler()
    sched.assign(tasks, threads)
    dec = sched.next_task(threads[0])
    assert dec.probe_contenders == ()


def test_fifo_steals_from_any_node():
    tasks = make_tasks(16)
    threads = make_threads(4)
    sched = FifoScheduler()
    sched.assign(tasks, threads)
    # Drain thread 3's own queue, then steal: FIFO scans in id order
    # from tid+1, so the first steal victim is thread 0 (remote node).
    for _ in range(4):
        sched.next_task(threads[3])
    dec = sched.next_task(threads[3])
    assert dec.was_steal
    assert dec.stolen_from_node == threads[0].node
    assert dec.stolen_from_node != threads[3].node


def test_numa_aware_steals_local_node_first():
    threads = make_threads(8)  # 2 threads per node
    tasks = make_tasks(32)
    sched = NumaAwareScheduler()
    sched.assign(tasks, threads)
    # Thread 0 and 1 share node 0. Drain thread 0's own queue.
    while sched.queue_lengths()[0] > 0:
        sched.next_task(threads[0])
    dec = sched.next_task(threads[0])
    assert dec.was_steal
    assert dec.stolen_from_node == threads[0].node  # local-node victim


def test_numa_aware_falls_back_to_remote():
    threads = make_threads(8)
    tasks = make_tasks(32)
    sched = NumaAwareScheduler()
    sched.assign(tasks, threads)
    # Empty both node-0 queues entirely.
    for tid in (0, 1):
        while sched.queue_lengths()[tid] > 0:
            sched.next_task(threads[tid])
    dec = sched.next_task(threads[0])
    assert dec.was_steal
    assert dec.stolen_from_node != threads[0].node
    # The probe list shows it scanned its local partitions first.
    assert len(dec.probe_contenders) > 2


def test_numa_aware_steals_from_back():
    threads = make_threads(2)
    tasks = make_tasks(8)
    sched = NumaAwareScheduler()
    sched.assign(tasks, threads)
    # Thread 1 owns tasks 4..7; drain thread 0 then steal: the steal
    # takes the *back* of the victim queue (task 7), not the front.
    for _ in range(4):
        sched.next_task(threads[0])
    dec = sched.next_task(threads[0])
    assert dec.task.task_id == 7


def test_fifo_steals_from_front():
    threads = make_threads(2)
    tasks = make_tasks(8)
    sched = FifoScheduler()
    sched.assign(tasks, threads)
    for _ in range(4):
        sched.next_task(threads[0])
    dec = sched.next_task(threads[0])
    assert dec.task.task_id == 4


def test_assign_requires_threads():
    with pytest.raises(SchedulerError):
        NumaAwareScheduler().assign(make_tasks(4), [])


@settings(max_examples=30, deadline=None)
@given(
    n_tasks=st.integers(1, 60),
    n_threads=st.integers(1, 16),
    drain_order_seed=st.integers(0, 100),
)
def test_completeness_under_any_drain_order(
    n_tasks, n_threads, drain_order_seed
):
    rng = np.random.default_rng(drain_order_seed)
    tasks = make_tasks(n_tasks)
    threads = make_threads(n_threads)
    order = rng.permutation(n_threads).tolist()
    for cls in (StaticScheduler, FifoScheduler, NumaAwareScheduler):
        got = drain(cls(), tasks, threads, order=order)
        ids = sorted(i for ids in got.values() for i in ids)
        assert ids == list(range(n_tasks))


class TestBuildTaskBlocks:
    def test_block_aggregation(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=4)
        n = 1000
        dist = np.arange(n, dtype=np.int64) % 7
        needs = np.arange(n) % 3 == 0
        tasks = build_task_blocks(
            n, 8, machine, dist_per_row=dist, needs_data=needs,
            task_rows=128,
        )
        assert len(tasks) == 8
        assert sum(t.n_rows for t in tasks) == n
        assert sum(t.n_dist for t in tasks) == int(dist.sum())
        assert sum(t.data_bytes for t in tasks) == int(needs.sum()) * 64

    def test_home_nodes_partitioned(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=8)
        tasks = build_task_blocks(
            800, 8, machine,
            dist_per_row=np.full(800, 5), task_rows=100,
        )
        assert [t.home_node for t in tasks] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_validation(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=2)
        with pytest.raises(SchedulerError):
            build_task_blocks(0, 8, machine, dist_per_row=np.zeros(0))
        with pytest.raises(SchedulerError):
            build_task_blocks(10, 8, machine, dist_per_row=None)
        with pytest.raises(SchedulerError):
            build_task_blocks(
                10, 8, machine, dist_per_row=np.zeros(5)
            )
        with pytest.raises(SchedulerError):
            build_task_blocks(
                10, 8, machine, dist_per_row=np.zeros(10),
                needs_data=np.ones(3, dtype=bool),
            )

    def test_rejects_non_integer_counts(self):
        machine = SimMachine.build(FOUR_SOCKET_XEON, n_threads=2)
        with pytest.raises(SchedulerError, match="integer"):
            build_task_blocks(10, 8, machine, dist_per_row=np.ones(10))

    @pytest.mark.parametrize(
        "policy", [BindPolicy.NUMA_BIND, BindPolicy.OBLIVIOUS]
    )
    @pytest.mark.parametrize(
        "n_rows,task_rows",
        [
            (1000, 128),  # short last block
            (1024, 128),  # exact multiple
            (50, 128),  # n_rows < task_rows: one short block
            (1, 1),
            (262144, 8192),
        ],
    )
    @pytest.mark.parametrize("with_needs", [True, False])
    def test_matches_per_block_loop(
        self, policy, n_rows, task_rows, with_needs
    ):
        machine = SimMachine.build(
            FOUR_SOCKET_XEON, n_threads=48, bind_policy=policy
        )
        rng = np.random.default_rng(n_rows)
        dist = rng.integers(0, 17, n_rows).astype(np.int32)
        needs = rng.random(n_rows) < 0.6 if with_needs else None
        kwargs = dict(
            dist_per_row=dist, needs_data=needs, task_rows=task_rows,
            state_bytes_per_row=12,
        )
        got = build_task_blocks(n_rows, 16, machine, **kwargs)
        want = build_task_blocks_loop(n_rows, 16, machine, **kwargs)
        assert got == want
        for g, w in zip(got, want):
            for f in ("n_rows", "n_dist", "data_bytes", "state_bytes",
                      "home_node"):
                assert type(getattr(g, f)) is type(getattr(w, f)), f

    @settings(max_examples=100, deadline=None)
    @given(
        n_rows=st.integers(1, 3000),
        task_rows=st.integers(1, 600),
        n_threads=st.integers(1, 64),
        oblivious=st.booleans(),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.int32, np.int64, np.uint8]),
    )
    def test_matches_per_block_loop_fuzzed(
        self, n_rows, task_rows, n_threads, oblivious, seed, dtype
    ):
        machine = SimMachine.build(
            FOUR_SOCKET_XEON, n_threads=n_threads,
            bind_policy=(
                BindPolicy.OBLIVIOUS if oblivious else BindPolicy.NUMA_BIND
            ),
        )
        rng = np.random.default_rng(seed)
        kwargs = dict(
            dist_per_row=rng.integers(0, 200, n_rows).astype(dtype),
            needs_data=rng.random(n_rows) < 0.5,
            task_rows=task_rows,
        )
        assert build_task_blocks(
            n_rows, 3, machine, **kwargs
        ) == build_task_blocks_loop(n_rows, 3, machine, **kwargs)

    def test_auto_task_rows_bounds(self):
        assert auto_task_rows(1_000_000_000, 48) == 8192
        assert auto_task_rows(1000, 48) == 64
        assert 64 <= auto_task_rows(65536, 48) <= 8192
        with pytest.raises(SchedulerError):
            auto_task_rows(0, 4)


# -- pinned against the pre-O(1) schedulers -------------------------------
#
# Verbatim copies of the schedulers' decision code from before the
# empty-queue count, the per-assign steal order and the drained early
# exit. The engine conformance test (run vs run_reference) drives the
# same scheduler on both sides, so only a pin against the old decisions
# catches a wrong contention count or steal order.


class _OldQueueScan(BaseScheduler):
    def _n_prowling(self) -> int:
        """Threads whose own queue is empty -- the potential stealers
        contending on everyone else's partition lock."""
        return sum(1 for q in self._queues if not q)


class _OldStatic(_OldQueueScan):
    def next_task(self, thread):
        """Drain the caller's preassigned queue; never steal."""
        queue = self._queues[thread.thread_id]
        if not queue:
            return None
        # Static assignment has no shared state, hence no lock probes.
        return ScheduleDecision(task=queue.popleft(), probe_contenders=())


class _OldFifo(_OldQueueScan):
    def next_task(self, thread):
        """Own queue first, then steal from any backlog in id order."""
        tid = thread.thread_id
        own = self._queues[tid]
        # Prowling stealers spread over T partition locks; the expected
        # contention on any one lock is their per-lock share.
        contenders = 1 + (
            self._n_prowling() + self._n_threads - 1
        ) // self._n_threads
        if own:
            return ScheduleDecision(
                task=own.popleft(),
                probe_contenders=(contenders,),
            )
        # Steal scan: walk partitions in id order starting after ours --
        # topology-oblivious, so the first victim found is usually on a
        # different NUMA node (the stolen task's data is remote).
        probes: list[int] = [contenders]  # the failed probe of our own
        for step in range(1, self._n_threads):
            victim = (tid + step) % self._n_threads
            queue = self._queues[victim]
            probes.append(contenders)
            if queue:
                task = queue.popleft()
                return ScheduleDecision(
                    task=task,
                    probe_contenders=tuple(probes),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        return None


class _OldNumaAware(_OldQueueScan):
    def _steal_order(self, thread):
        """Partitions to probe: same-node first, then remote, both in
        deterministic id order starting after the caller."""
        tid = thread.thread_id
        node = thread.node
        ring = [(tid + s) % self._n_threads for s in range(1, self._n_threads)]
        local = [v for v in ring if self._thread_nodes[v] == node]
        remote = [v for v in ring if self._thread_nodes[v] != node]
        return local + remote

    def next_task(self, thread):
        """Own partition, then same-node victims, then remote."""
        tid = thread.thread_id
        own = self._queues[tid]
        # Contention on a partition lock: its owner plus any prowling
        # stealers that reached it. Partitioning keeps this near 1.
        prowlers_share = 1 + (
            self._n_prowling() + self._n_threads - 1
        ) // self._n_threads
        if own:
            return ScheduleDecision(
                task=own.popleft(),
                probe_contenders=(prowlers_share,),
            )
        probes: list[int] = [prowlers_share]
        for victim in self._steal_order(thread):
            queue = self._queues[victim]
            probes.append(prowlers_share)
            if queue:
                # Steal from the *back* of the victim's queue: the
                # owner keeps working the front, minimizing interference.
                task = queue.pop()
                return ScheduleDecision(
                    task=task,
                    probe_contenders=tuple(probes),
                    stolen_from_node=self._thread_nodes[victim],
                    was_steal=True,
                )
        return None


def _skewed_tasks(n_tasks, seed):
    """Heavy-tailed work per task (pruning skew), some tasks free."""
    rng = np.random.default_rng(seed)
    dist = (rng.pareto(1.2, n_tasks) * 400).astype(np.int64)
    dist[rng.random(n_tasks) < 0.2] = 0
    rows = rng.integers(1, 200, n_tasks)
    return [
        TaskWork(i, int(rows[i]), int(dist[i]), int(rows[i]) * 64 * (i % 3),
                 int(rows[i]) * 12, i * 4 // n_tasks)
        for i in range(n_tasks)
    ]


@pytest.mark.parametrize("policy", [BindPolicy.NUMA_BIND, BindPolicy.OBLIVIOUS])
@pytest.mark.parametrize("n_tasks", [3, 47, 300])
@pytest.mark.parametrize("n_threads", [1, 5, 48])
@pytest.mark.parametrize(
    "new_cls,old_cls",
    [
        (StaticScheduler, _OldStatic),
        (FifoScheduler, _OldFifo),
        (NumaAwareScheduler, _OldNumaAware),
    ],
)
def test_decisions_match_pre_o1_scheduler(
    new_cls, old_cls, n_threads, n_tasks, policy
):
    engine = IterationEngine(
        FOUR_SOCKET_XEON, bind_policy=policy, record_executions=True
    )
    tasks = _skewed_tasks(n_tasks, seed=n_threads * 1000 + n_tasks)
    runs = []
    for cls in (old_cls, new_cls):
        threads = spawn_threads(FOUR_SOCKET_XEON.topology, n_threads, policy)
        trace = engine.run(cls(), tasks, threads, d=16, k=32)
        runs.append((trace, [th.counters for th in threads]))
    (old, old_counters), (new, new_counters) = runs
    assert new.executions == old.executions
    assert new_counters == old_counters
    assert new.total_ns == old.total_ns
    assert new.total_steals == old.total_steals


@pytest.mark.parametrize(
    "sched_cls", [StaticScheduler, FifoScheduler, NumaAwareScheduler]
)
def test_empty_queue_count_tracks_the_queues(sched_cls):
    """The incremental count equals a full scan after every decision,
    steals included (a stale count only shows in contention when no
    queue was empty yet, so the pin above can miss it)."""
    rng = np.random.default_rng(5)
    threads = make_threads(6)
    sched = sched_cls()
    sched.assign(make_tasks(9), threads)
    assert sched._n_empty == sched.queue_lengths().count(0)
    while any(sched.queue_lengths()):
        sched.next_task(threads[int(rng.integers(6))])
        assert sched._n_empty == sched.queue_lengths().count(0)
