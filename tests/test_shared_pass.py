"""One host-pool pass per distributed iteration.

``ShardedKmeans.step_all`` runs every shard's MTI prologue in shard
order, one :func:`repro.core.mti.run_shared_pass` over all the shards'
blocks, then every epilogue in shard order. These tests pin that the
shared pass changes who runs a block and when, never what a run
computes: knord and ``mpi_lloyd`` give the bits of stepping the shards
one at a time (``ShardedProgram.step_all``, the default), at 1, 2, 3
and 5 host threads, also with a shard that clause 1 skips whole and a
shard of one block; an iteration dispatches once; a failing block is
raised only once every thread has stopped, and recovery replays the
run bit for bit; a memory budget too small for a shard's buffer fails
as it does one shard at a time.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro import ConvergenceCriteria, knord
from repro.baselines import mpi_lloyd
from repro.core import distance, mti
from repro.drivers.knord import knord_loop
from repro.errors import MemoryBudgetError, WorkerCrashError
from repro.mem import BudgetedManager
from repro.runtime import RunObserver, ShardedKmeans, ShardedProgram

WORKER_COUNTS = (1, 2, 3, 5)
MACHINES = (1, 2, 3, 4)
CRIT = ConvergenceCriteria(max_iters=8)


def blobs(n, d, k, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    return np.ascontiguousarray(x)


def one_at_a_time(monkeypatch):
    """Step the shards one after another, each with its own pass."""
    monkeypatch.setattr(ShardedKmeans, "step_all", ShardedProgram.step_all)


def outcome(result):
    return {
        "assignment": result.assignment,
        "centroids": result.centroids,
        "inertia": result.inertia,
        "iterations": result.iterations,
        "converged": result.converged,
        "records": [dataclasses.asdict(r) for r in result.records],
    }


def assert_same(a, b):
    assert a.keys() == b.keys()
    for name, want in a.items():
        got = b[name]
        if isinstance(want, np.ndarray):
            assert want.dtype == got.dtype, name
            assert np.array_equal(want, got), name
        else:
            assert want == got, name


def run_driver(driver, x, k, machines, **kwargs):
    if driver == "knord":
        return knord(x, k, n_machines=machines, seed=3, criteria=CRIT,
                     **kwargs)
    return mpi_lloyd(x, k, n_machines=machines, ranks_per_machine=2,
                     seed=3, criteria=CRIT, **kwargs)


def record_shared_passes(monkeypatch):
    """Per shared pass: each prologue's block count (0: no blocks)."""
    passes = []
    real = mti.run_shared_pass

    def recording(steps):
        passes.append([
            0 if st.blocks is None else st.blocks.n_blocks for st in steps
        ])
        return real(steps)

    monkeypatch.setattr(mti, "run_shared_pass", recording)
    return passes


@pytest.mark.parametrize("driver", ["knord", "mpi_lloyd"])
@pytest.mark.parametrize("machines", MACHINES)
def test_shared_pass_matches_one_shard_at_a_time(monkeypatch, driver,
                                                 machines):
    x = blobs(4000, 4, 7, seed=machines)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 96 * 8 * 4)
    monkeypatch.setattr(mti, "WORKERS", 1)
    with monkeypatch.context() as serial:
        one_at_a_time(serial)
        want = outcome(run_driver(driver, x, 7, machines))
    passes = record_shared_passes(monkeypatch)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(mti, "WORKERS", workers)
        assert_same(want, outcome(run_driver(driver, x, 7, machines)))
    # Every shard ran blocks in some pass, several in one pass.
    assert passes and max(max(p) for p in passes) > 1


def skewed_shards():
    """Three shards of 200 rows: shard 0 is one repeated point, which
    clause 1 skips whole after iteration 0; shard 1 is another repeated
    point plus ten rows near the origin, one block; shard 2 is rows
    near the origin, several blocks."""
    rng = np.random.default_rng(5)
    x = np.empty((600, 2))
    x[:200] = [50.0, 50.0]
    x[200:390] = [-50.0, 50.0]
    x[390:400] = rng.normal(scale=0.5, size=(10, 2))
    x[400:] = np.vstack([
        rng.normal(loc=(-3.0, 0.0), size=(100, 2)),
        rng.normal(loc=(3.0, 0.0), size=(100, 2)),
    ])
    init = np.array([
        [50.0, 50.0], [-50.0, 50.0], x[390], x[400], x[500],
    ])
    return x, init


def test_skipped_shard_and_single_block_shard(monkeypatch):
    x, init = skewed_shards()
    monkeypatch.setattr(mti, "BLOCK_BYTES", 64 * 8 * 2)

    def run():
        return outcome(knord(x, 5, n_machines=3, init=init, criteria=CRIT))

    monkeypatch.setattr(mti, "WORKERS", 1)
    with monkeypatch.context() as serial:
        one_at_a_time(serial)
        want = run()
    passes = record_shared_passes(monkeypatch)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(mti, "WORKERS", workers)
        assert_same(want, run())
    assert passes
    for blocks in passes:
        assert blocks[0] == 0  # clause 1 skipped the whole shard
        assert blocks[1] == 1  # one block
    assert passes[0][2] > 1


def test_iteration_dispatches_once(monkeypatch):
    """After iteration 0 every knord MTI iteration makes exactly one
    host-pool dispatch, over every shard's blocks."""
    x = blobs(6000, 4, 6, seed=11)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 128 * 8 * 4)
    monkeypatch.setattr(mti, "WORKERS", 2)
    it = [None]
    calls: dict[int, list[int]] = {}
    real = mti.run_blocks

    class Iterations(RunObserver):
        def on_iteration_start(self, iteration):
            it[0] = iteration

    def counting(n_blocks, run, bufs):
        calls.setdefault(it[0], []).append(n_blocks)
        return real(n_blocks, run, bufs)

    monkeypatch.setattr(mti, "run_blocks", counting)
    passes = record_shared_passes(monkeypatch)
    result = knord(x, 6, n_machines=4, seed=2, criteria=CRIT,
                   observers=[Iterations()])
    assert result.iterations > 2
    assert 0 not in calls
    assert sorted(calls) == list(range(1, result.iterations))
    for (iteration, n_blocks), blocks in zip(sorted(calls.items()), passes):
        assert n_blocks == [sum(blocks)], iteration
        assert len(blocks) == 4 and min(blocks) > 1, iteration


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_failing_block_waits_and_recovery_replays(monkeypatch, workers):
    """A block of shard 2 fails at iteration 2 while a later block of
    the same pass is still running. The failure leaves the shared pass
    only once no block runs, and the run recovers from scratch to the
    bits of a run without the failure."""
    x = blobs(4000, 4, 6, seed=13)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 128 * 8 * 4)
    monkeypatch.setattr(mti, "WORKERS", workers)

    def run():
        loop, finalize = knord_loop(x, 6, n_machines=4, seed=4,
                                    criteria=CRIT)
        return loop, finalize

    loop, finalize = run()
    want = outcome(finalize(loop.run()))

    loop, finalize = run()
    shards = loop.backend.sharded.loops
    real_run = mti._BlockPass.run
    real_pass = mti.run_shared_pass
    lock = threading.Lock()
    running = [0]
    failed, finished, at_raise = [], [], []
    # Block 0 fails only once block 1 has started, so another thread
    # still runs a block of the pass when the failure happens.
    block1_started = threading.Event()

    def flaky(self, blk, buf):
        with lock:
            running[0] += 1
        try:
            if self.state is shards[2]._state and shards[2].iteration == 2:
                if blk == 0 and not failed:
                    failed.append(blk)
                    assert block1_started.wait(timeout=30)
                    raise WorkerCrashError("block 0 of shard 2 failed")
                if blk == 1 and len(failed) == 1 and not finished:
                    block1_started.set()
                    time.sleep(0.2)
                    real_run(self, blk, buf)
                    finished.append(blk)
                    return
            real_run(self, blk, buf)
        finally:
            with lock:
                running[0] -= 1

    def watched(steps):
        try:
            real_pass(steps)
        except WorkerCrashError:
            at_raise.append(running[0])
            raise

    monkeypatch.setattr(mti._BlockPass, "run", flaky)
    monkeypatch.setattr(mti, "run_shared_pass", watched)
    got = outcome(finalize(loop.run()))
    assert failed == [0] and finished == [1]
    assert at_raise == [0]
    assert_same(want, got)


def test_budget_too_small_for_a_shard_buffer(monkeypatch):
    """A budget that holds every buffer but a shard's distance buffer
    fails with the error of stepping the shards one at a time, before
    any block runs."""
    x = blobs(4000, 4, 16, seed=17)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 256 * 8 * 4)
    # Several iteration-0 blocks: they take plain temporaries, so the
    # distance buffer is first taken by iteration 1's prologue.
    monkeypatch.setattr(distance, "BLOCK_BYTES", 256 * 8 * 4)
    monkeypatch.setattr(mti, "WORKERS", 2)
    ran = []
    real = mti._BlockPass.run

    def counting(self, blk, buf):
        ran.append(blk)
        real(self, blk, buf)

    monkeypatch.setattr(mti._BlockPass, "run", counting)

    def failure():
        with pytest.raises(MemoryBudgetError) as info:
            knord(x, 16, n_machines=4, seed=1, criteria=CRIT,
                  mem=BudgetedManager(40_000))
        return str(info.value)

    with monkeypatch.context() as serial:
        one_at_a_time(serial)
        want = failure()
    assert failure() == want
    # Two threads' 256-row slices of a (rows, 16) float64 buffer.
    assert "allocation of 65536 backing bytes" in want
    assert ran == []


def test_stress_buffers_never_shared(monkeypatch):
    """Five threads on hundreds of two-row blocks of four shards,
    switching threads every microsecond: every block runs once, no
    two running blocks ever hold the same buffer, and the run is the
    bits of stepping the shards one at a time."""
    x = blobs(1600, 3, 6, seed=19)
    monkeypatch.setattr(mti, "BLOCK_BYTES", 2 * 8 * 3)
    monkeypatch.setattr(mti, "WORKERS", 5)
    crit = ConvergenceCriteria(max_iters=3)

    def run():
        return outcome(knord(x, 6, n_machines=4, seed=6, criteria=crit))

    with monkeypatch.context() as serial:
        one_at_a_time(serial)
        want = run()
    real = mti._BlockPass.run
    lock = threading.Lock()
    held: set[int] = set()
    shared, claims = [], []

    def checking(self, blk, buf):
        key = id(buf)
        with lock:
            if key in held:
                shared.append(blk)
            held.add(key)
            claims.append((id(self), blk))
        try:
            real(self, blk, buf)
        finally:
            with lock:
                held.discard(key)

    monkeypatch.setattr(mti._BlockPass, "run", checking)
    passes = record_shared_passes(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        got = run()
        assert time.perf_counter() - started < 60
    finally:
        sys.setswitchinterval(interval)
    assert_same(want, got)
    assert shared == []
    assert len(claims) == len(set(claims)) == sum(map(sum, passes))
    assert min(map(sum, passes)) > 100
