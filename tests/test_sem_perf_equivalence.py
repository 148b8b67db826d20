"""The SEM perf rework must be a pure speedup: the batch-LRU page
cache, vectorized SAFS fetch path and vectorized row-cache refresh are
compared against the frozen pre-change implementations in
``tests/oracles.py``, and the async I/O pipeline against ``--sync-io``
accounting -- every counter bit-identical, only simulated time moves."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sem.safs as safs_mod
from repro import knors
from repro.core import ConvergenceCriteria
from repro.faults import FaultPlan, FaultSpec
from tests.oracles import (
    LegacyPageCache,
    LegacyRowCache,
    LegacySafs,
)
from repro.sem import PageCache, RowCache, Safs
from repro.simhw.ssd import OCZ_INTREPID_ARRAY


def _cache_state(cache):
    return (cache.hits, cache.misses, len(cache),
            cache.pages_lru_order())


def _drive_pair(legacy, batch, streams):
    """Run identical page streams through both caches, checking state
    after every batch (not just at the end)."""
    for pages in streams:
        miss = [p for p in pages.tolist() if not legacy.lookup(p)]
        for p in miss:
            legacy.admit(p)
        hit = batch.lookup_batch(pages)
        batch.admit_batch(pages[~hit])
        assert _cache_state(legacy) == _cache_state(batch)


class TestPageCacheEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("capacity_pages", [1, 7, 64, 500])
    def test_random_streams(self, seed, capacity_pages):
        rng = np.random.default_rng(seed)
        streams = [
            np.unique(rng.integers(0, 800, size=rng.integers(1, 400)))
            for _ in range(12)
        ]
        _drive_pair(
            LegacyPageCache(capacity_pages * 4096, 4096),
            PageCache(capacity_pages * 4096, 4096),
            streams,
        )

    def test_interleaved_single_ops(self):
        """Per-page lookup/admit (the scalar wrappers) match too."""
        rng = np.random.default_rng(9)
        legacy = LegacyPageCache(5 * 4096, 4096)
        batch = PageCache(5 * 4096, 4096)
        for _ in range(600):
            p = int(rng.integers(0, 20))
            if rng.random() < 0.5:
                assert legacy.lookup(p) == batch.lookup(p)
            else:
                legacy.admit(p)
                batch.admit(p)
            assert _cache_state(legacy) == _cache_state(batch)

    def test_duplicate_pages_in_one_admit(self):
        """Within one batch the *last* occurrence sets recency, exactly
        like admitting the pages one by one."""
        legacy = LegacyPageCache(3 * 4096, 4096)
        batch = PageCache(3 * 4096, 4096)
        pages = [1, 2, 1, 3, 2, 1]
        for p in pages:
            legacy.admit(p)
        batch.admit_batch(np.array(pages, dtype=np.int64))
        assert _cache_state(legacy) == _cache_state(batch)


def _apply(legacy, batch, op, pages, probes):
    """One operation on both caches, then every observable compared.

    The legacy cache has no batch discard: popping each page from its
    OrderedDict is the sequential definition."""
    if op == "lookup":
        want = [legacy.lookup(p) for p in pages.tolist()]
        assert batch.lookup_batch(pages).tolist() == want
    elif op == "admit":
        for p in pages.tolist():
            legacy.admit(p)
        batch.admit_batch(pages)
    elif op == "discard":
        popped = sum(
            legacy._pages.pop(p, False) is None for p in set(pages.tolist())
        )
        assert batch.discard_batch(pages) == popped
    else:
        legacy.clear()
        batch.clear()
    assert _cache_state(legacy) == _cache_state(batch)
    for p in [*pages.tolist(), *probes]:
        assert legacy.contains(p) == batch.contains(p)


_OPS = ("lookup", "admit", "discard", "clear")


class TestPageCacheProperty:
    """Hypothesis-driven streams through the page-indexed cache and the
    OrderedDict cache side by side."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pages=st.integers(600, 4_000),
        p_discard=st.floats(0.0, 0.05),
        p_clear=st.sampled_from([0.0, 0.0005]),
    )
    def test_serve_shape(self, seed, n_pages, p_discard, p_clear):
        """1-8 skewed pages per batch into 512 pages, for long enough
        that the stamp log compacts several times."""
        rng = np.random.default_rng(seed)
        legacy = LegacyPageCache(512 * 4096, 4096)
        batch = PageCache(512 * 4096, 4096)
        probes = rng.integers(0, n_pages, size=8).tolist()
        compactions, tail = 0, 0
        for _ in range(2_500):
            m = int(rng.integers(1, 9))
            # Heavy-tailed ids: a hot head that hits plus a long tail
            # that keeps the cache evicting; duplicates included.
            pages = np.minimum(
                (rng.pareto(1.0, size=m) * 150).astype(np.int64), n_pages
            )
            u = rng.random()
            op = ("clear" if u < p_clear else
                  "discard" if u < p_clear + p_discard else "lookup")
            _apply(legacy, batch, op, pages, probes)
            if op == "lookup":
                miss = np.array(
                    [p for p in pages.tolist() if not legacy.contains(p)],
                    dtype=np.int64,
                )
                _apply(legacy, batch, "admit", miss, probes)
            compactions += batch._tail < tail
            tail = batch._tail
        assert compactions >= 3

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 24),
        ops=st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                # A hot range (hits, duplicates) mixed with a wide one.
                st.lists(st.integers(0, 40) | st.integers(0, 5_000),
                         min_size=0, max_size=80),
            ),
            min_size=1, max_size=40,
        ),
    )
    def test_knors_shape(self, capacity, ops):
        """Batches larger than the capacity, duplicates, and ids past
        the current table size, so the page table keeps growing."""
        legacy = LegacyPageCache(capacity * 4096, 4096)
        batch = PageCache(capacity * 4096, 4096)
        probes = [0, 1, 4_999, 5_000]
        for op, pages in ops:
            _apply(legacy, batch, op, np.array(pages, dtype=np.int64),
                   probes)


def _batch_tuple(b):
    return (b.rows_requested, b.bytes_requested, b.pages_needed,
            b.page_cache_hits, b.pages_from_ssd, b.merged_requests,
            b.bytes_read, b.service_ns, b.io_retries, b.fault_delay_ns)


class TestSafsEquivalence:
    ROW_BYTES = [8, 64, 512, 3000, 4096, 5000]

    @pytest.mark.parametrize("row_bytes", ROW_BYTES)
    def test_fetch_rows_counters(self, row_bytes):
        rng = np.random.default_rng(17)
        n_rows = 20_000
        legacy = LegacySafs(OCZ_INTREPID_ARRAY,
                            page_cache_bytes=256 * 4096)
        new = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=256 * 4096)
        for it in range(4):
            rows = np.unique(rng.integers(0, n_rows, size=3_000))
            a = legacy.fetch_rows(rows, row_bytes, iteration=it)
            b = new.fetch_rows(rows, row_bytes, iteration=it)
            assert _batch_tuple(a) == _batch_tuple(b)
            # No queue attached: async service collapses to sync.
            assert b.service_async_ns == b.service_ns

    @pytest.mark.parametrize("row_bytes", ROW_BYTES)
    def test_pages_of_rows(self, row_bytes):
        rng = np.random.default_rng(23)
        legacy = LegacySafs(OCZ_INTREPID_ARRAY, page_cache_bytes=0)
        new = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=0)
        rows = np.unique(rng.integers(0, 50_000, size=2_000))
        np.testing.assert_array_equal(
            legacy.pages_of_rows(rows, row_bytes),
            new.pages_of_rows(rows, row_bytes),
        )

    def test_pages_of_rows_chunked_expansion(self, monkeypatch):
        """Page-spanning rows through a tiny chunk budget: the chunked
        walk must agree with the legacy full-matrix expansion."""
        monkeypatch.setattr(safs_mod, "_EXPAND_CELLS", 16)
        legacy = LegacySafs(OCZ_INTREPID_ARRAY, page_cache_bytes=0)
        new = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=0)
        rng = np.random.default_rng(5)
        for row_bytes in (4096, 5000, 9000, 20_000):
            rows = np.unique(rng.integers(0, 500, size=120))
            np.testing.assert_array_equal(
                legacy.pages_of_rows(rows, row_bytes),
                new.pages_of_rows(rows, row_bytes),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 3_000), min_size=1, max_size=300),
        order=st.sampled_from(["unique", "sorted", "unsorted"]),
        row_bytes=st.one_of(
            st.sampled_from([8, 128, 192, 256, 4095, 4096, 4097, 9000]),
            st.integers(1, 20_000),
        ),
        data_offset=st.sampled_from([0, 28, 256, 4096]),
        expand_cells=st.sampled_from([16, 1 << 20]),
    )
    def test_pages_of_rows_property(
        self, rows, order, row_bytes, data_offset, expand_cells
    ):
        """Sorted rows take the ``diff`` dedupe, unsorted ones the
        ``np.unique`` fallback; both, with duplicate rows, with rows
        below and above the page size and through a tiny chunk budget,
        give the legacy expansion's distinct sorted pages."""
        rows = np.array(rows, dtype=np.int64)
        if order == "unique":
            rows = np.unique(rows)
        elif order == "sorted":
            rows = np.sort(rows)
        legacy = LegacySafs(OCZ_INTREPID_ARRAY, page_cache_bytes=0,
                            data_offset=data_offset)
        new = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=0,
                   data_offset=data_offset)
        with mock.patch.object(safs_mod, "_EXPAND_CELLS", expand_cells):
            got = new.pages_of_rows(rows, row_bytes)
        want = legacy.pages_of_rows(rows, row_bytes)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # The same pages as the dense first..last expansion.
        page = OCZ_INTREPID_ARRAY.page_bytes
        first = (data_offset + rows * row_bytes) // page
        last = (data_offset + (rows + 1) * row_bytes - 1) // page
        np.testing.assert_array_equal(got, np.unique(np.concatenate(
            [np.arange(f, l + 1) for f, l in zip(first, last)]
        )))

    def test_merge_requests_sorted_contract(self):
        rng = np.random.default_rng(3)
        pages = np.unique(rng.integers(0, 10_000, size=4_000))
        assert Safs.merge_requests(pages) == \
            LegacySafs.merge_requests(pages)

    @pytest.mark.parametrize("fault_seed", [0, 3, 11])
    def test_fetch_rows_with_faults(self, fault_seed):
        spec = FaultSpec(ssd_error_rate=0.4, ssd_slow_rate=0.4)
        rng = np.random.default_rng(31)

        def run(cls):
            safs = cls(OCZ_INTREPID_ARRAY,
                       page_cache_bytes=64 * 4096,
                       faults=FaultPlan(spec, seed=fault_seed))
            rng_local = np.random.default_rng(31)
            return [
                _batch_tuple(safs.fetch_rows(
                    np.unique(rng_local.integers(0, 8_000, size=1_500)),
                    512, iteration=it,
                ))
                for it in range(6)
            ]

        assert run(LegacySafs) == run(Safs)


class TestServeShapedFetch:
    """Serve-sized batches (a few sorted rows) through a small page
    cache with the async queue attached. The fetch path drives the
    page cache through its private cores, so check it against the
    legacy counters, the legacy LRU state after every batch, and the
    queue price taken directly from the SSD model."""

    @pytest.mark.parametrize("row_bytes,data_offset", [
        (128, 0), (256, 0), (128, 256), (192, 0), (256, 28),
    ])
    def test_matches_legacy_and_queue_price(self, row_bytes, data_offset):
        from repro.simhw.ssd import AsyncIoQueue

        queue = AsyncIoQueue(queue_depth=32)
        legacy = LegacySafs(OCZ_INTREPID_ARRAY, page_cache_bytes=40 * 4096,
                            data_offset=data_offset)
        new = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=40 * 4096,
                   data_offset=data_offset, io_queue=queue)
        rng = np.random.default_rng(row_bytes + data_offset)
        widened = 0
        for it in range(300):
            # Mostly 0-8 rows; every 25th batch is wide enough for more
            # than one request per SSD channel.
            size = 600 if it % 25 == 0 else int(rng.integers(0, 9))
            rows = np.unique(rng.integers(0, 60_000, size=size))
            a = legacy.fetch_rows(rows, row_bytes, iteration=it)
            b = new.fetch_rows(rows, row_bytes, iteration=it)
            assert _batch_tuple(a) == _batch_tuple(b)
            assert _cache_state(legacy.page_cache) == \
                _cache_state(new.page_cache)
            want = OCZ_INTREPID_ARRAY.read_async(
                b.merged_requests, b.pages_from_ssd, queue
            ).service_ns
            assert b.service_async_ns == want
            widened += b.service_async_ns < b.service_ns
        assert widened > 0

    def test_negative_rows_fail_typed(self):
        """The fetch path skips the page cache's public validation, so
        it checks the lowest page itself."""
        from repro.errors import IoSubsystemError

        safs = Safs(OCZ_INTREPID_ARRAY, page_cache_bytes=8 * 4096)
        with pytest.raises(IoSubsystemError, match="page id -2 is negative"):
            safs.fetch_rows(np.array([-40, 3]), 128)
        assert len(safs.page_cache) == 0

    @pytest.mark.parametrize("n_requests,pages", [
        (0, 0), (1, 1), (3, 40), (24, 24), (25, 30), (500, 900),
    ])
    def test_async_read_is_sync_until_the_queue_widens(
        self, n_requests, pages
    ):
        from repro.simhw.ssd import AsyncIoQueue

        ssd, queue = OCZ_INTREPID_ARRAY, AsyncIoQueue(queue_depth=32)
        sync = ssd.read(n_requests, pages)
        async_ = ssd.read_async(n_requests, pages, queue)
        assert (async_.n_requests, async_.pages_read, async_.bytes_read) \
            == (sync.n_requests, sync.pages_read, sync.bytes_read)
        q_eff = ssd.queue_parallelism(n_requests, queue)
        bw = pages * ssd.page_bytes / ssd.array_bw * 1e9
        iops = n_requests / ssd.array_iops * 1e9
        assert sync.service_ns == max(bw, iops)
        assert async_.service_ns == max(bw, iops / q_eff)
        if q_eff == 1:
            assert async_.service_ns == sync.service_ns


class TestRowCacheEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_parts", [1, 4, 16])
    def test_refresh_matches_legacy(self, seed, n_parts):
        # Capacity divisible by partitions: the remainder fix is a
        # no-op, so legacy and vectorized admit identical row sets.
        n_rows, cap_rows = 50_000, 8 * n_parts * 100
        rng = np.random.default_rng(seed)
        legacy = LegacyRowCache(cap_rows * 8, 8, n_rows,
                                n_partitions=n_parts)
        new = RowCache(cap_rows * 8, 8, n_rows, n_partitions=n_parts)
        it = legacy.update_interval
        for _ in range(4):
            active = np.unique(rng.integers(0, n_rows, size=20_000))
            assert legacy.refresh(it, active) == new.refresh(it, active)
            np.testing.assert_array_equal(legacy._cached, new._cached)
            assert legacy._next_refresh == new._next_refresh
            it = new._next_refresh

    def test_empty_partitions(self):
        """More partitions than rows: searchsorted on repeated bounds
        must still land every row in the right partition."""
        legacy = LegacyRowCache(10 * 8, 8, 6, n_partitions=10)
        new = RowCache(10 * 8, 8, 6, n_partitions=10)
        active = np.arange(6)
        assert legacy.refresh(5, active) == new.refresh(5, active)
        np.testing.assert_array_equal(legacy._cached, new._cached)


def _io_digest(res):
    return [
        (r.cache_hits, r.cache_misses, r.io_requests,
         r.bytes_requested, r.bytes_read, r.rows_active)
        for r in res.records
    ]


class TestAsyncSyncConformance:
    """The tentpole invariant: identical numerics and counters across
    I/O modes; only simulated time moves, and only downward."""

    def _pair(self, x, **kw):
        crit = ConvergenceCriteria(max_iters=10)
        sync = knors(x, 4, seed=0, criteria=crit, io_mode="sync", **kw)
        asyn = knors(x, 4, seed=0, criteria=crit, io_mode="async", **kw)
        return sync, asyn

    def _assert_identical(self, sync, asyn):
        np.testing.assert_array_equal(sync.assignment, asyn.assignment)
        np.testing.assert_array_equal(sync.centroids, asyn.centroids)
        assert sync.iterations == asyn.iterations
        assert sync.converged == asyn.converged
        assert _io_digest(sync) == _io_digest(asyn)

    def test_clean_run(self, blobs):
        sync, asyn = self._pair(blobs)
        self._assert_identical(sync, asyn)
        assert asyn.sim_seconds <= sync.sim_seconds

    @pytest.mark.parametrize("pruning", [None, "mti"])
    def test_pruning_modes(self, blobs, pruning):
        sync, asyn = self._pair(blobs, pruning=pruning)
        self._assert_identical(sync, asyn)
        assert asyn.sim_seconds <= sync.sim_seconds

    def test_async_strictly_faster_when_io_bound(self):
        """On an I/O-heavy configuration the pipeline must actually
        hide service time, not just tie (the Figure 6-7 claim)."""
        rng = np.random.default_rng(4)
        centers = rng.normal(scale=8.0, size=(8, 16))
        x = centers[rng.integers(8, size=8_000)] \
            + rng.normal(size=(8_000, 16))
        crit = ConvergenceCriteria(max_iters=8)
        init = x[rng.choice(8_000, size=8, replace=False)].copy()
        sync = knors(x, 8, init=init, criteria=crit, io_mode="sync")
        asyn = knors(x, 8, init=init, criteria=crit, io_mode="async")
        self._assert_identical(sync, asyn)
        assert asyn.sim_seconds < sync.sim_seconds

    @pytest.mark.parametrize("fault_seed", [1, 7])
    def test_fault_runs_stay_identical(self, blobs, fault_seed):
        """Fault delay is computed from the sync service time, so
        injected faults cannot desynchronize the two modes."""
        spec = FaultSpec(ssd_error_rate=0.2, ssd_slow_rate=0.2)
        sync, asyn = self._pair(
            blobs, faults=FaultPlan(spec, seed=fault_seed)
        )
        self._assert_identical(sync, asyn)
        assert asyn.sim_seconds <= sync.sim_seconds

    def test_queue_depth_one_matches_sync_time(self, blobs):
        """A depth-1 queue amortizes nothing; with no amortization and
        a cold prefetcher the first iteration's wall matches sync."""
        crit = ConvergenceCriteria(max_iters=3)
        sync = knors(blobs, 4, seed=0, criteria=crit, io_mode="sync")
        asyn = knors(blobs, 4, seed=0, criteria=crit, io_mode="async",
                     io_queue_depth=1)
        assert asyn.records[0].sim_ns == sync.records[0].sim_ns
