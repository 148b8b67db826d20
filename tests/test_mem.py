"""Unit tests for the pluggable memory-manager plane (repro.mem).

Covers the manager protocol itself: arena pooling and size classes,
capacity-preserving ``ensure_capacity``, the budgeted manager's hard
cap + LRU spill, the manager stack, observer events, and the
weakref-observed x_sq cache in DistanceWorkspace.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.workspace import DistanceWorkspace
from repro.errors import ConfigError, MemoryBudgetError
from repro.mem import (
    ArenaManager,
    BudgetedManager,
    DEFAULT_MANAGER,
    MANAGER_NAMES,
    NumpyManager,
    build_manager,
    check_manager,
    current_manager,
    use_manager,
)
from repro.runtime import RecordingObserver


class TestNumpyManager:
    def test_alloc_shapes_and_dtype(self):
        m = NumpyManager()
        a = m.alloc((3, 4), np.float64, tag="t")
        assert a.shape == (3, 4) and a.dtype == np.float64

    def test_zero_fill(self):
        m = NumpyManager()
        a = m.alloc((64,), np.int64, tag="t", zero=True)
        assert not a.any()

    def test_accounting(self):
        m = NumpyManager()
        a = m.alloc((128,), np.float64, tag="t")
        c = m.counters()
        assert c.live_bytes == a.nbytes
        assert c.peak_bytes == a.nbytes
        assert c.n_allocs == 1
        m.free(a)
        c = m.counters()
        assert c.live_bytes == 0 and c.n_frees == 1
        # Peak is monotone.
        assert c.peak_bytes == a.nbytes

    def test_pool_stats(self):
        m = NumpyManager()
        a = m.alloc((16,), np.float64, tag="t")
        s = m.pool_stats()
        assert s.live_blocks == 1 and s.live_bytes == a.nbytes
        assert s.pooled_blocks == 0


class TestArenaManager:
    def test_reuse_same_size_class(self):
        m = ArenaManager()
        a = m.alloc((100,), np.float64, tag="t")
        m.free(a)
        b = m.alloc((100,), np.float64, tag="t")
        c = m.counters()
        assert c.n_reuses == 1
        assert c.backing_allocs == 1
        assert b.shape == (100,)

    def test_reuse_across_shapes_in_class(self):
        # 90*8=720 B and 100*8=800 B share the 1024 B class.
        m = ArenaManager()
        a = m.alloc((100,), np.float64, tag="t")
        m.free(a)
        m.alloc((90,), np.float64, tag="t")
        assert m.counters().backing_allocs == 1

    def test_no_reuse_across_classes(self):
        m = ArenaManager()
        a = m.alloc((100,), np.float64, tag="t")
        m.free(a)
        m.alloc((1000,), np.float64, tag="t")
        assert m.counters().backing_allocs == 2

    def test_zero_requested_is_zeroed_on_reuse(self):
        m = ArenaManager()
        a = m.alloc((32,), np.float64, tag="t")
        a.fill(7.0)
        m.free(a)
        b = m.alloc((32,), np.float64, tag="t", zero=True)
        assert not b.any()

    def test_owns(self):
        m = ArenaManager()
        a = m.alloc((8,), np.float64, tag="t")
        assert m.owns(a)
        assert not m.owns(np.zeros(8))

    def test_trim_empties_pool(self):
        m = ArenaManager()
        a = m.alloc((100,), np.float64, tag="t")
        m.free(a)
        assert m.pool_stats().pooled_blocks == 1
        freed = m.trim()
        assert freed > 0
        assert m.pool_stats().pooled_blocks == 0
        # Post-trim allocation needs fresh backing.
        m.alloc((100,), np.float64, tag="t")
        assert m.counters().backing_allocs == 2

    def test_free_foreign_array_is_counted_noop(self):
        # Foreign frees are tolerated (escaping buffers change hands)
        # but tracked, and never pollute the pool.
        m = ArenaManager()
        m.free(np.zeros(8))
        assert m.unknown_frees == 1
        assert m.pool_stats().pooled_blocks == 0
        assert m.counters().n_frees == 0


class TestEnsureCapacity:
    @pytest.mark.parametrize("mgr", [NumpyManager, ArenaManager])
    def test_first_call_allocates(self, mgr):
        m = mgr()
        a = m.ensure_capacity(None, (10,), np.float64, tag="t")
        assert a.shape[0] >= 10

    @pytest.mark.parametrize("mgr", [NumpyManager, ArenaManager])
    def test_no_realloc_when_capacity_sufficient(self, mgr):
        m = mgr()
        a = m.ensure_capacity(None, (100,), np.float64, tag="t")
        b = m.ensure_capacity(a, (50,), np.float64, tag="t")
        assert b is a
        assert m.counters().n_allocs == 1

    def test_growth_reallocates(self):
        m = ArenaManager()
        a = m.ensure_capacity(None, (10,), np.float64, tag="t")
        b = m.ensure_capacity(a, (1000,), np.float64, tag="t")
        assert b.shape[0] >= 1000
        assert b is not a

    def test_dtype_change_reallocates(self):
        m = ArenaManager()
        a = m.ensure_capacity(None, (10,), np.float64, tag="t")
        b = m.ensure_capacity(a, (10,), np.int64, tag="t")
        assert b.dtype == np.int64

    def test_steady_state_zero_backing_allocs(self):
        # The grow-guard contract: a repeating alloc/ensure cycle
        # stops hitting the OS after the first round.
        m = ArenaManager()
        buf = None
        for _ in range(50):
            buf = m.ensure_capacity(buf, (257,), np.float64, tag="t")
        assert m.counters().backing_allocs == 1


class TestBudgetedManager:
    def test_within_budget_behaves_like_arena(self):
        m = BudgetedManager(1 << 20)
        a = m.alloc((100,), np.float64, tag="t")
        m.free(a)
        m.alloc((100,), np.float64, tag="t")
        c = m.counters()
        assert c.n_reuses == 1 and c.spill_count == 0

    def test_spill_under_pressure(self):
        # Budget fits one 4 KiB block; the second forces a spill.
        m = BudgetedManager(6 * 1024)
        a = m.alloc((512,), np.float64, tag="a")
        a.fill(1.0)
        b = m.alloc((512,), np.float64, tag="b")
        c = m.counters()
        assert c.spill_count >= 1
        assert c.spill_ns > 0
        # Spill is accounting + simulated time only: data intact.
        assert (a == 1.0).all()
        b.fill(2.0)
        assert (b == 2.0).all()

    def test_touch_spills_back_in(self):
        m = BudgetedManager(6 * 1024)
        a = m.alloc((512,), np.float64, tag="a")
        m.alloc((512,), np.float64, tag="b")  # spills a out
        spills_out = m.counters().spill_count
        m.touch(a)  # must spill b out and a back in
        assert m.counters().spill_count > spills_out

    def test_request_larger_than_budget_raises(self):
        m = BudgetedManager(1024)
        with pytest.raises(MemoryBudgetError):
            m.alloc((1 << 20,), np.float64, tag="t")

    def test_budget_never_silently_grows(self):
        m = BudgetedManager(32 * 1024)
        live = [m.alloc((512,), np.float64, tag=f"t{i}")
                for i in range(8)]
        # Resident stays under cap even with more live than budget.
        for i in range(8, 16):
            live.append(m.alloc((512,), np.float64, tag=f"t{i}"))
        c = m.counters()
        assert c.spill_count > 0
        assert c.budget_bytes == 32 * 1024

    def test_free_spilled_block_has_no_io_charge(self):
        m = BudgetedManager(6 * 1024)
        a = m.alloc((512,), np.float64, tag="a")
        m.alloc((512,), np.float64, tag="b")
        ns_before = m.counters().spill_ns
        m.free(a)  # a is spilled; dropping it costs nothing
        assert m.counters().spill_ns == ns_before


class TestManagerStack:
    def test_default_is_numpy(self):
        assert current_manager() is DEFAULT_MANAGER
        assert isinstance(DEFAULT_MANAGER, NumpyManager)

    def test_use_manager_pushes_and_pops(self):
        m = ArenaManager()
        with use_manager(m):
            assert current_manager() is m
        assert current_manager() is DEFAULT_MANAGER

    def test_use_manager_none_is_noop(self):
        before = current_manager()
        with use_manager(None) as got:
            assert current_manager() is before
            assert got is before

    def test_nesting(self):
        a, b = ArenaManager(), NumpyManager()
        with use_manager(a):
            with use_manager(b):
                assert current_manager() is b
            assert current_manager() is a

    def test_pop_on_exception(self):
        m = ArenaManager()
        with pytest.raises(RuntimeError):
            with use_manager(m):
                raise RuntimeError("boom")
        assert current_manager() is DEFAULT_MANAGER


class TestBuildManager:
    def test_names(self):
        assert MANAGER_NAMES == ("numpy", "arena", "budget")

    def test_build_numpy_and_arena(self):
        assert isinstance(build_manager("numpy"), NumpyManager)
        assert isinstance(build_manager("arena"), ArenaManager)

    def test_build_budget_needs_bytes(self):
        with pytest.raises(ConfigError):
            build_manager("budget")
        m = build_manager("budget", budget_bytes=1 << 20)
        assert isinstance(m, BudgetedManager)

    def test_instance_passthrough(self):
        m = ArenaManager()
        assert build_manager(m) is m

    def test_none_passthrough(self):
        assert build_manager(None) is None

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_manager("slab")

    def test_check_manager(self):
        assert check_manager("arena") == "arena"
        with pytest.raises(ConfigError):
            check_manager("slab")


class TestObserverEvents:
    def test_alloc_free_events(self):
        m = ArenaManager()
        rec = RecordingObserver()
        m.attach_observer(rec)
        a = m.alloc((100,), np.float64, tag="ws/test")
        m.free(a)
        m.alloc((100,), np.float64, tag="ws/test")
        names = [e.name for e in rec.events]
        assert names == ["alloc", "free", "alloc"]
        first, _, again = rec.events
        assert first.payload["tag"] == "ws/test"
        assert first.payload["reused"] is False
        assert again.payload["reused"] is True

    def test_spill_events(self):
        m = BudgetedManager(6 * 1024)
        rec = RecordingObserver()
        m.attach_observer(rec)
        a = m.alloc((512,), np.float64, tag="a")
        m.alloc((512,), np.float64, tag="b")
        m.touch(a)
        spills = [e for e in rec.events if e.name == "spill"]
        assert len(spills) >= 2
        dirs = {e.payload["direction"] for e in spills}
        assert dirs == {"out", "in"}
        assert all(e.payload["ns"] > 0 for e in spills)


class TestWorkspaceIntegration:
    def test_workspace_release_drains_manager(self):
        m = ArenaManager()
        ws = DistanceWorkspace(4, 8, mem=m)
        x = np.random.default_rng(0).normal(size=(64, 8))
        c = np.random.default_rng(1).normal(size=(4, 8))
        ws.ensure(c)
        ws.x_sq(x)
        ws.dist_buffer(64)
        assert m.counters().live_bytes > 0
        ws.release()
        assert m.counters().live_bytes == 0

    def test_x_sq_cache_is_weakref_observed(self):
        # Satellite 1: the norm cache must not pin the data matrix.
        m = ArenaManager()
        ws = DistanceWorkspace(4, 8, mem=m)
        x = np.random.default_rng(0).normal(size=(64, 8))
        ws.x_sq(x)
        wr = weakref.ref(x)
        live_with_cache = m.counters().live_bytes
        del x
        gc.collect()
        assert wr() is None, "workspace must not keep x alive"
        # The norms buffer was handed back to the manager too.
        assert m.counters().live_bytes < live_with_cache

    def test_x_sq_cache_hit(self):
        m = ArenaManager()
        ws = DistanceWorkspace(4, 8, mem=m)
        x = np.random.default_rng(0).normal(size=(64, 8))
        n1 = ws.x_sq(x)
        n2 = ws.x_sq(x)
        assert n1 is n2
        np.testing.assert_array_equal(
            n1, np.einsum("ij,ij->i", x, x)
        )

    def test_workspace_dead_finalizer_does_not_crash(self):
        m = ArenaManager()
        ws = DistanceWorkspace(4, 8, mem=m)
        x = np.random.default_rng(0).normal(size=(16, 8))
        ws.x_sq(x)
        del ws
        gc.collect()
        del x
        gc.collect()  # finalizer fires with the workspace gone


class TestPageCacheRelease:
    def test_clear_keeps_backing_release_frees(self):
        from repro.sem.pagecache import PageCache

        m = ArenaManager()
        pc = PageCache(1 << 16, 4096, mem=m)
        pc.admit_batch(np.array([1, 5, 9], dtype=np.int64))
        assert m.counters().live_bytes > 0
        pc.clear()
        # clear() keeps pooled backing for the next epoch...
        assert m.counters().live_bytes > 0
        pc.release()
        # ...release() hands everything back.
        assert m.counters().live_bytes == 0

    @staticmethod
    def _serve_stream(pc, rng, n_batches):
        """Serve-shaped traffic: 1-8 skewed pages per batch, probe then
        admit the misses (the ``Safs.fetch_rows`` order)."""
        for _ in range(n_batches):
            m = int(rng.integers(1, 9))
            pages = np.minimum(
                (rng.pareto(1.0, size=m) * 150).astype(np.int64), 8191
            )
            hit = pc.lookup_batch(pages)
            pc.admit_batch(pages[~hit])

    def test_steady_state_batches_allocate_nothing(self):
        from repro.sem.pagecache import PageCache

        m = ArenaManager()
        pc = PageCache(512 * 4096, 4096, mem=m)
        rng = np.random.default_rng(3)
        pc.admit_batch(np.array([8191]))  # table covers every page id
        self._serve_stream(pc, rng, 2_000)  # warm-up: fill, size the log
        assert len(pc) == 512
        before = m.counters()
        self._serve_stream(pc, rng, 2_000)
        after = m.counters()
        assert after.backing_allocs == before.backing_allocs
        assert after.n_allocs == before.n_allocs
        assert after.live_bytes == before.live_bytes

    def test_clear_pools_and_release_frees_after_serve_stream(self):
        from repro.sem.pagecache import PageCache

        m = ArenaManager()
        pc = PageCache(512 * 4096, 4096, mem=m)
        rng = np.random.default_rng(4)
        self._serve_stream(pc, rng, 2_000)
        live = m.counters().live_bytes
        assert live > 0
        pc.clear()
        assert len(pc) == 0 and pc.pages_lru_order() == []
        # clear() keeps the table and log; refilling reuses them.
        assert m.counters().live_bytes == live
        backing = m.counters().backing_allocs
        self._serve_stream(pc, rng, 500)
        assert m.counters().backing_allocs == backing
        pc.release()
        assert m.counters().live_bytes == 0
        assert len(pc) == 0 and pc.pages_lru_order() == []


def test_default_manager_untouched_by_suite():
    """Nothing in the codebase may leave a manager pushed."""
    assert current_manager() is DEFAULT_MANAGER
