"""Event-driven iteration engine: dispatch, accounting, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.sched import FifoScheduler, NumaAwareScheduler, StaticScheduler
from repro.simhw import (
    BindPolicy,
    FOUR_SOCKET_XEON,
    IterationEngine,
    TaskWork,
)
from repro.simhw.thread import spawn_threads


def make_tasks(n_tasks, n_dist=100, home_nodes=None):
    return [
        TaskWork(
            task_id=i,
            n_rows=10,
            n_dist=n_dist,
            data_bytes=640,
            state_bytes=120,
            home_node=home_nodes[i] if home_nodes else i % 4,
        )
        for i in range(n_tasks)
    ]


def run(n_threads, tasks, policy=BindPolicy.NUMA_BIND, sched=None,
        record=False):
    engine = IterationEngine(
        FOUR_SOCKET_XEON, bind_policy=policy, record_executions=record
    )
    threads = spawn_threads(FOUR_SOCKET_XEON.topology, n_threads, policy)
    return engine.run(
        sched or StaticScheduler(), tasks, threads, d=8, k=10
    )


def test_all_tasks_executed_once():
    trace = run(4, make_tasks(16))
    assert trace.total_rows == 160
    assert trace.total_dist == 1600


def test_trace_totals_reset_between_runs():
    engine = IterationEngine(FOUR_SOCKET_XEON)
    threads = spawn_threads(FOUR_SOCKET_XEON.topology, 4,
                            BindPolicy.NUMA_BIND)
    sched = StaticScheduler()
    t1 = engine.run(sched, make_tasks(8), threads, d=8, k=10)
    t2 = engine.run(sched, make_tasks(8), threads, d=8, k=10)
    assert t1.total_rows == t2.total_rows == 80


def test_more_threads_faster_span():
    tasks = make_tasks(64)
    t1 = run(1, tasks)
    t8 = run(8, tasks)
    assert t8.span_ns < t1.span_ns
    # Near-linear at uniform work.
    assert t1.span_ns / t8.span_ns > 5.0


def test_skewed_work_creates_skewed_span():
    """Static scheduling of skewed tasks leaves threads idle."""
    tasks = make_tasks(16)
    # Make the first quarter of tasks 50x heavier.
    heavy = [
        TaskWork(t.task_id, t.n_rows, t.n_dist * (50 if i < 4 else 1),
                 t.data_bytes, t.state_bytes, t.home_node)
        for i, t in enumerate(tasks)
    ]
    static = run(4, heavy, sched=StaticScheduler())
    stealing = run(4, heavy, sched=NumaAwareScheduler())
    assert stealing.span_ns < static.span_ns
    assert static.busy_fraction < 0.8
    assert stealing.busy_fraction > static.busy_fraction


def test_oblivious_slower_than_bound():
    tasks = make_tasks(64)
    aware = run(16, tasks)
    oblivious_tasks = [
        TaskWork(t.task_id, t.n_rows, t.n_dist, t.data_bytes,
                 t.state_bytes, 0)
        for t in tasks
    ]
    oblivious = run(16, oblivious_tasks, policy=BindPolicy.OBLIVIOUS)
    assert oblivious.total_ns > aware.total_ns


def test_remote_bytes_accounted():
    # All tasks on node 0, threads on all nodes -> most bytes remote.
    tasks = make_tasks(16, home_nodes=[0] * 16)
    trace = run(8, tasks, sched=NumaAwareScheduler())
    assert trace.total_bytes_remote > 0


def test_local_bytes_when_partitioned():
    trace = run(8, make_tasks(16))
    assert trace.total_bytes_local > 0


def test_barrier_and_reduction_charged():
    trace = run(8, make_tasks(8))
    assert trace.barrier_ns > 0
    assert trace.reduction_ns > 0
    assert trace.total_ns == pytest.approx(
        trace.span_ns + trace.barrier_ns + trace.reduction_ns
    )


def test_no_reduction_when_disabled():
    engine = IterationEngine(FOUR_SOCKET_XEON)
    threads = spawn_threads(FOUR_SOCKET_XEON.topology, 4,
                            BindPolicy.NUMA_BIND)
    trace = engine.run(
        StaticScheduler(), make_tasks(8), threads, d=8, k=10,
        reduction=False,
    )
    assert trace.reduction_ns == 0.0


def test_execution_records():
    trace = run(2, make_tasks(6), record=True)
    assert len(trace.executions) == 6
    for ex in trace.executions:
        assert ex.end_ns >= ex.start_ns
        assert ex.compute_ns > 0


def test_empty_threads_rejected():
    engine = IterationEngine(FOUR_SOCKET_XEON)
    with pytest.raises(SchedulerError):
        engine.run(StaticScheduler(), make_tasks(4), [], d=8, k=10)


def test_deterministic_traces():
    t1 = run(8, make_tasks(32), sched=NumaAwareScheduler())
    t2 = run(8, make_tasks(32), sched=NumaAwareScheduler())
    assert t1.total_ns == t2.total_ns
    assert t1.thread_clocks_ns == t2.thread_clocks_ns


def test_single_thread_executes_serially():
    trace = run(1, make_tasks(10))
    assert trace.busy_fraction == pytest.approx(1.0)
    assert trace.barrier_ns == 0.0


def test_remote_task_loses_prefetch_overlap():
    """A stolen/remote block cannot overlap memory with compute: its
    task time is the sum, a local one's is the max."""
    cm = FOUR_SOCKET_XEON
    engine = IterationEngine(cm)
    threads = spawn_threads(cm.topology, 4, BindPolicy.NUMA_BIND)
    # One fat task; home node either local to thread 0 or remote.
    local = [TaskWork(0, 100, 5000, 1 << 16, 0, threads[0].node)]
    remote_node = (threads[0].node + 1) % cm.topology.n_nodes
    remote = [TaskWork(0, 100, 5000, 1 << 16, 0, remote_node)]
    sched = StaticScheduler()
    t_local = engine.run(sched, local, threads[:1], d=8, k=10)
    t_remote = engine.run(sched, remote, threads[:1], d=8, k=10)
    compute = cm.dist_comp_ns(8, 5000) + cm.rows_overhead_ns(100)
    mem_local = cm.mem_stream_ns(1 << 16, remote=False, streams_on_bank=1)
    # Local: overlapped -> span is max(compute, mem).
    assert t_local.span_ns == pytest.approx(max(compute, mem_local))
    # Remote: additive and with remote charges -> strictly larger.
    assert t_remote.span_ns > t_local.span_ns
    assert t_remote.span_ns > compute


# -- optimized loop vs reference loop conformance -------------------


def _trace_key(trace):
    """Everything observable about a trace, for exact comparison."""
    from dataclasses import asdict

    return (
        trace.thread_clocks_ns,
        trace.span_ns,
        trace.barrier_ns,
        trace.reduction_ns,
        trace.total_ns,
        trace.total_rows,
        trace.total_dist,
        trace.total_bytes_local,
        trace.total_bytes_remote,
        trace.total_steals,
        [asdict(e) for e in trace.executions],
    )


def _mixed_tasks(n_tasks, n_nodes):
    """Non-uniform work so steals, remote streams and ties all occur."""
    return [
        TaskWork(
            task_id=i,
            n_rows=10 + (i % 7),
            n_dist=100 + 13 * i,
            data_bytes=640 + 64 * i,
            state_bytes=120,
            home_node=i % n_nodes,
        )
        for i in range(n_tasks)
    ]


@pytest.mark.parametrize("policy", [BindPolicy.NUMA_BIND,
                                    BindPolicy.OBLIVIOUS])
@pytest.mark.parametrize("sched_cls", [StaticScheduler,
                                       NumaAwareScheduler])
@pytest.mark.parametrize("n_threads", [1, 3, 8])
def test_run_matches_reference(policy, sched_cls, n_threads):
    """The optimized event loop is bit-identical to the kept-verbatim
    reference loop: same event order, same simulated charges, same
    counters -- across bind policies, schedulers and thread counts."""
    cm = FOUR_SOCKET_XEON
    tasks = _mixed_tasks(23, cm.topology.n_nodes)
    engine = IterationEngine(
        cm, bind_policy=policy, record_executions=True
    )
    threads = spawn_threads(cm.topology, n_threads, policy)
    t_new = engine.run(sched_cls(), tasks, threads, d=8, k=10)
    threads = spawn_threads(cm.topology, n_threads, policy)
    t_ref = engine.run_reference(sched_cls(), tasks, threads, d=8, k=10)
    assert _trace_key(t_new) == _trace_key(t_ref)


def test_run_matches_reference_fifo_shared_queue():
    """FIFO's single shared queue exercises the contended-lock pricing
    and the end-of-phase single-runnable-thread drain."""
    from repro.sched import FifoScheduler

    cm = FOUR_SOCKET_XEON
    tasks = _mixed_tasks(40, cm.topology.n_nodes)
    engine = IterationEngine(cm, record_executions=True)
    threads = spawn_threads(cm.topology, 6, BindPolicy.NUMA_BIND)
    t_new = engine.run(FifoScheduler(), tasks, threads, d=12, k=7)
    threads = spawn_threads(cm.topology, 6, BindPolicy.NUMA_BIND)
    t_ref = engine.run_reference(
        FifoScheduler(), tasks, threads, d=12, k=7
    )
    assert _trace_key(t_new) == _trace_key(t_ref)


def test_run_matches_reference_single_bank():
    """All data on one bank (the Figure 4 oblivious regime): every
    thread streams remotely except the bank's own node."""
    cm = FOUR_SOCKET_XEON
    tasks = _mixed_tasks(16, 1)  # everything homed on node 0
    engine = IterationEngine(
        cm, bind_policy=BindPolicy.OBLIVIOUS, record_executions=True
    )
    threads = spawn_threads(cm.topology, 8, BindPolicy.OBLIVIOUS)
    t_new = engine.run(StaticScheduler(), tasks, threads, d=8, k=10)
    threads = spawn_threads(cm.topology, 8, BindPolicy.OBLIVIOUS)
    t_ref = engine.run_reference(
        StaticScheduler(), tasks, threads, d=8, k=10
    )
    assert _trace_key(t_new) == _trace_key(t_ref)


@settings(max_examples=200, deadline=None)
@given(
    sched_cls=st.sampled_from(
        [StaticScheduler, FifoScheduler, NumaAwareScheduler]
    ),
    policy=st.sampled_from([BindPolicy.NUMA_BIND, BindPolicy.OBLIVIOUS]),
    n_threads=st.integers(1, 48),
    n_tasks=st.integers(0, 150),
    work=st.sampled_from(["skewed", "uniform", "zero", "mixed"]),
    n_banks=st.sampled_from([1, 2, 4]),
    slow=st.lists(st.sampled_from([1.0, 1.0, 0.5, 2.0, 3.7]),
                  min_size=48, max_size=48),
    record=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_run_matches_reference_generated(
    sched_cls, policy, n_threads, n_tasks, work, n_banks, slow, record,
    seed,
):
    """On generated task sets the owner-phase prefix plus the steal
    tail equals the reference loop bit for bit: trace, record order and
    every thread's counters. ``n_tasks < n_threads`` starts with empty
    queues; ``uniform`` and ``zero`` work makes clock ties across and
    within threads; ``slow`` stretches some threads."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(1, 300, n_tasks)
    dist = (rng.pareto(1.2, n_tasks) * 500).astype(np.int64)
    if work == "uniform":
        rows[:], dist[:] = 64, 640
    elif work == "zero":
        rows[:], dist[:] = 0, 0
    elif work == "mixed":
        free = rng.random(n_tasks) < 0.4
        rows[free], dist[free] = 0, 0
    tasks = [
        TaskWork(
            task_id=i,
            n_rows=int(rows[i]),
            n_dist=int(dist[i]),
            data_bytes=int(rows[i]) * 128 * int(rng.integers(0, 2)),
            state_bytes=int(rows[i]) * 12,
            home_node=int(rng.integers(0, n_banks)),
        )
        for i in range(n_tasks)
    ]
    cm = FOUR_SOCKET_XEON
    engine = IterationEngine(
        cm, bind_policy=policy, record_executions=record
    )
    sides = []
    for replay in (engine.run, engine.run_reference):
        threads = spawn_threads(cm.topology, n_threads, policy)
        for th, sf in zip(threads, slow):
            th.slow_factor = sf
        trace = replay(sched_cls(), tasks, threads, d=16, k=8)
        sides.append((_trace_key(trace), [th.counters for th in threads]))
    assert sides[0] == sides[1]


def test_owner_phase_leaves_the_scheduler_only_the_tail():
    """Uniform local work: every thread starts its last task at the
    same clock, so the first queue-empty event is thread 0's, and the
    ties on higher threads are all that is left for the scheduler."""
    cm = FOUR_SOCKET_XEON
    n_threads, per_thread = 8, 8
    threads = spawn_threads(cm.topology, n_threads, BindPolicy.NUMA_BIND)
    tasks = make_tasks(
        n_threads * per_thread,
        home_nodes=[threads[i // per_thread].node
                    for i in range(n_threads * per_thread)],
    )
    sched = NumaAwareScheduler()
    calls = []
    next_task = sched.next_task
    sched.next_task = lambda th: calls.append(th.thread_id) or next_task(th)
    trace = IterationEngine(cm).run(sched, tasks, threads, d=8, k=10)
    assert calls == list(range(1, n_threads))
    ref_threads = spawn_threads(cm.topology, n_threads, BindPolicy.NUMA_BIND)
    ref = IterationEngine(cm).run_reference(
        NumaAwareScheduler(), tasks, ref_threads, d=8, k=10
    )
    assert _trace_key(trace) == _trace_key(ref)
    assert [th.counters for th in threads] == [
        th.counters for th in ref_threads
    ]


def test_run_reference_rejects_double_dispatch():
    class DoubleScheduler(StaticScheduler):
        def next_task(self, thread):
            decision = super().next_task(thread)
            if decision is not None:
                self._replay = decision
            elif getattr(self, "_replay", None) is not None:
                decision, self._replay = self._replay, None
            return decision

    cm = FOUR_SOCKET_XEON
    engine = IterationEngine(cm)
    threads = spawn_threads(cm.topology, 1, BindPolicy.NUMA_BIND)
    with pytest.raises(SchedulerError):
        engine.run(DoubleScheduler(), make_tasks(3), threads, d=8, k=10)
    with pytest.raises(SchedulerError):
        engine.run_reference(
            DoubleScheduler(), make_tasks(3), threads, d=8, k=10
        )
