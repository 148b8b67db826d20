"""Page cache, SAFS request handling, and the partitioned row cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IoSubsystemError
from repro.sem import PageCache, RowCache, Safs
from repro.simhw.ssd import OCZ_INTREPID_ARRAY


class TestPageCache:
    def test_lru_eviction(self):
        pc = PageCache(capacity_bytes=3 * 4096, page_bytes=4096)
        for p in (1, 2, 3):
            assert not pc.lookup(p)
            pc.admit(p)
        pc.lookup(1)  # refresh page 1
        pc.admit(4)  # evicts 2 (LRU)
        assert pc.contains(1)
        assert not pc.contains(2)
        assert pc.contains(3)
        assert pc.contains(4)

    def test_capacity_zero_admits_nothing(self):
        pc = PageCache(0, 4096)
        pc.admit(1)
        assert len(pc) == 0
        assert not pc.lookup(1)

    def test_hit_miss_counters(self):
        pc = PageCache(10 * 4096, 4096)
        pc.lookup(5)
        pc.admit(5)
        pc.lookup(5)
        assert pc.hits == 1
        assert pc.misses == 1

    def test_clear(self):
        pc = PageCache(10 * 4096, 4096)
        pc.admit(1)
        pc.clear()
        assert len(pc) == 0

    def test_invalid_params(self):
        with pytest.raises(IoSubsystemError):
            PageCache(100, 0)
        with pytest.raises(IoSubsystemError):
            PageCache(-1, 4096)

    def test_readmit_is_noop(self):
        pc = PageCache(2 * 4096, 4096)
        pc.admit(1)
        pc.admit(1)
        assert len(pc) == 1

    def test_capacity_zero_batch_ops(self):
        pc = PageCache(0, 4096)
        pages = np.array([1, 2, 3], dtype=np.int64)
        pc.admit_batch(pages)
        assert len(pc) == 0
        np.testing.assert_array_equal(
            pc.lookup_batch(pages), [False, False, False]
        )
        assert pc.misses == 3
        assert pc.pages_lru_order() == []

    def test_exact_eviction_order_interleaved(self):
        """pages_lru_order tracks recency through mixed batch lookups
        and admissions, and eviction takes exactly the LRU tail."""
        pc = PageCache(4 * 4096, 4096)
        pc.admit_batch(np.array([10, 20, 30, 40]))
        assert pc.pages_lru_order() == [10, 20, 30, 40]
        # A batch hit restamps the hit pages, in argument order.
        pc.lookup_batch(np.array([30, 10]))
        assert pc.pages_lru_order() == [20, 40, 30, 10]
        # Admitting two new pages evicts the two least recent (20, 40).
        pc.admit_batch(np.array([50, 60]))
        assert pc.pages_lru_order() == [30, 10, 50, 60]
        assert not pc.contains(20)
        assert not pc.contains(40)
        # Re-admitting a resident page only refreshes it.
        pc.admit_batch(np.array([30]))
        assert pc.pages_lru_order() == [10, 50, 60, 30]

    def test_table_grows_past_largest_page(self):
        """Page ids far past every earlier one are tracked, not
        aliased, and the resident set survives the table growth."""
        pc = PageCache(4 * 4096, 4096)
        pc.admit_batch(np.array([0, 3]))
        pc.admit_batch(np.array([100_000]))
        assert pc.pages_lru_order() == [0, 3, 100_000]
        assert not pc.lookup(5_000_000)
        assert pc.lookup_batch(np.array([3, 100_000])).tolist() == [
            True, True]
        assert pc.pages_lru_order() == [0, 3, 100_000]
        assert not pc.contains(99_999)
        assert pc.discard_batch(np.array([7_000_000, 100_000])) == 1
        assert pc.pages_lru_order() == [0, 3]

    def test_discard_counts_distinct_resident_pages(self):
        pc = PageCache(4 * 4096, 4096)
        pc.admit_batch(np.array([5, 7, 9]))
        assert pc.discard_batch(np.array([5, 5, 7, 8, 7])) == 2
        assert len(pc) == 1 and pc.pages_lru_order() == [9]
        # The freed slots are reusable without evicting page 9.
        pc.admit_batch(np.array([1, 2, 3]))
        assert pc.pages_lru_order() == [9, 1, 2, 3]


BATCH_OPS = ("lookup_batch", "admit_batch", "discard_batch")


class TestPageIdValidation:
    """Bad page ids fail typed, name the id and leave the cache as it
    was. A page-indexed table would otherwise read -1 as its last page,
    and a float id would be truncated silently."""

    def _warm(self):
        pc = PageCache(4 * 4096, 4096)
        pc.admit_batch(np.array([0, 1, 7]))
        pc.lookup_batch(np.array([1, 9]))
        return pc

    @staticmethod
    def _state(pc):
        return pc.hits, pc.misses, len(pc), pc.pages_lru_order()

    @pytest.mark.parametrize("op", BATCH_OPS)
    def test_negative_id_rejected(self, op):
        pc = self._warm()
        before = self._state(pc)
        with pytest.raises(IoSubsystemError, match=r"page id -1 is negative"):
            getattr(pc, op)(np.array([2, -1, 3]))
        assert self._state(pc) == before
        # -1 must not alias the last table slot (page 7 is resident).
        assert pc.contains(7) and not pc.contains(-1)

    @pytest.mark.parametrize("op", BATCH_OPS)
    @pytest.mark.parametrize("pages", [[2.5, 1.0], [1.0], ["3"], [True]])
    def test_non_integer_id_rejected(self, op, pages):
        pc = self._warm()
        before = self._state(pc)
        with pytest.raises(IoSubsystemError, match="is not an integer") as e:
            getattr(pc, op)(np.array(pages))
        assert repr(np.array(pages).flat[0]) in str(e.value)
        assert self._state(pc) == before

    def test_scalar_wrappers_reject_bad_ids(self):
        pc = self._warm()
        with pytest.raises(IoSubsystemError, match="-4"):
            pc.lookup(-4)
        with pytest.raises(IoSubsystemError, match="1.5"):
            pc.admit(1.5)

    def test_zero_capacity_still_validates(self):
        pc = PageCache(0, 4096)
        with pytest.raises(IoSubsystemError, match="-2"):
            pc.lookup_batch(np.array([-2]))
        with pytest.raises(IoSubsystemError, match="0.5"):
            pc.admit_batch(np.array([0.5]))

    @pytest.mark.parametrize("op", BATCH_OPS)
    def test_empty_batch_of_any_dtype_is_accepted(self, op):
        pc = self._warm()
        before = self._state(pc)
        getattr(pc, op)(np.array([]))
        assert self._state(pc) == before

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint64])
    def test_other_integer_dtypes_accepted(self, dtype):
        pc = PageCache(4 * 4096, 4096)
        pc.admit_batch(np.array([4, 2], dtype=dtype))
        assert pc.lookup_batch(np.array([2, 3], dtype=dtype)).tolist() == [
            True, False]
        assert pc.pages_lru_order() == [4, 2]


class TestSafs:
    def make(self, cache_pages=16):
        return Safs(
            OCZ_INTREPID_ARRAY, page_cache_bytes=cache_pages * 4096
        )

    def test_pages_of_rows_geometry(self):
        safs = self.make()
        # 64-byte rows: 64 rows per 4K page.
        pages = safs.pages_of_rows(np.array([0, 1, 63]), 64)
        np.testing.assert_array_equal(pages, [0])
        pages = safs.pages_of_rows(np.array([0, 64, 128]), 64)
        np.testing.assert_array_equal(pages, [0, 1, 2])

    def test_row_spanning_two_pages(self):
        safs = self.make()
        # 3000-byte rows: row 1 spans pages 0..1.
        pages = safs.pages_of_rows(np.array([1]), 3000)
        np.testing.assert_array_equal(pages, [0, 1])

    def test_empty_request(self):
        safs = self.make()
        batch = safs.fetch_rows(np.array([], dtype=np.int64), 64)
        assert batch.bytes_read == 0
        assert batch.service_ns == 0.0

    def test_merge_requests_runs(self):
        assert Safs.merge_requests(np.array([1, 2, 3, 7, 8, 20])) == 3
        assert Safs.merge_requests(np.array([], dtype=np.int64)) == 0
        assert Safs.merge_requests(np.array([5])) == 1

    def test_fragmentation_amplifies_reads(self):
        """Sparse row requests read far more bytes than requested --
        the Figure 6 req-vs-read gap."""
        safs = self.make(cache_pages=0)
        # Every 64th row of 64-byte rows: one row per page.
        rows = np.arange(0, 64 * 100, 64)
        batch = safs.fetch_rows(rows, 64)
        assert batch.bytes_requested == 100 * 64
        assert batch.bytes_read == 100 * 4096
        assert batch.bytes_read / batch.bytes_requested == 64.0

    def test_page_cache_absorbs_repeat_reads(self):
        safs = self.make(cache_pages=200)
        rows = np.arange(0, 1000)
        first = safs.fetch_rows(rows, 64)
        second = safs.fetch_rows(rows, 64)
        assert first.pages_from_ssd > 0
        assert second.pages_from_ssd == 0
        assert second.page_cache_hits == second.pages_needed

    def test_invalid_row_bytes(self):
        safs = self.make()
        with pytest.raises(IoSubsystemError):
            safs.pages_of_rows(np.array([0]), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
        row_bytes=st.sampled_from([8, 64, 256, 512]),
    )
    def test_pages_cover_all_rows(self, rows, row_bytes):
        safs = self.make()
        arr = np.array(sorted(set(rows)), dtype=np.int64)
        pages = set(safs.pages_of_rows(arr, row_bytes).tolist())
        for r in arr:
            first = r * row_bytes // 4096
            last = (r * row_bytes + row_bytes - 1) // 4096
            assert first in pages and last in pages


class TestRowCache:
    def test_refresh_schedule_doubles(self):
        rc = RowCache(1 << 20, 64, 10_000, update_interval=5)
        scheduled = [i for i in range(200) if rc.should_refresh(i)]
        assert scheduled == [5]
        rc.refresh(5, np.arange(100))
        assert rc.should_refresh(15)  # 5 + 10
        rc.refresh(15, np.arange(100))
        assert rc.should_refresh(35)  # 15 + 20

    def test_refresh_out_of_schedule_raises(self):
        rc = RowCache(1 << 20, 64, 1000)
        with pytest.raises(IoSubsystemError):
            rc.refresh(3, np.arange(10))

    def test_lookup_hits_after_refresh(self):
        rc = RowCache(1 << 20, 64, 1000)
        active = np.arange(0, 500)
        rc.refresh(5, active)
        mask = rc.lookup(np.array([0, 100, 499, 500, 999]))
        np.testing.assert_array_equal(
            mask, [True, True, True, False, False]
        )
        assert rc.hits == 3
        assert rc.misses == 2

    def test_capacity_respected_per_partition(self):
        # Capacity for 8 rows, 4 partitions -> 2 rows per partition.
        rc = RowCache(8 * 64, 64, 400, n_partitions=4)
        admitted = rc.refresh(5, np.arange(400))
        assert admitted == 8
        assert rc.cached_rows == 8
        # Each partition admitted its first 2 rows.
        assert rc.lookup(np.array([0]))[0]
        assert rc.lookup(np.array([100]))[0]
        assert not rc.lookup(np.array([50]))[0]

    def test_refresh_flushes_old_contents(self):
        rc = RowCache(1 << 20, 64, 1000)
        rc.refresh(5, np.arange(0, 100))
        rc.refresh(15, np.arange(500, 600))
        assert not rc.lookup(np.array([0]))[0]
        assert rc.lookup(np.array([550]))[0]

    def test_zero_capacity(self):
        rc = RowCache(0, 64, 100)
        rc.refresh(5, np.arange(100))
        assert rc.cached_rows == 0

    def test_clear_resets_schedule(self):
        rc = RowCache(1 << 20, 64, 100, update_interval=5)
        rc.refresh(5, np.arange(10))
        rc.clear()
        assert rc.should_refresh(5)
        assert rc.cached_rows == 0

    def test_invalid_params(self):
        for kwargs in (
            dict(row_bytes=0),
            dict(n_rows=0),
            dict(n_partitions=0),
            dict(update_interval=0),
        ):
            full = dict(
                capacity_bytes=100, row_bytes=8, n_rows=10,
                n_partitions=1, update_interval=5,
            )
            full.update(kwargs)
            with pytest.raises(IoSubsystemError):
                RowCache(
                    full["capacity_bytes"], full["row_bytes"],
                    full["n_rows"],
                    n_partitions=full["n_partitions"],
                    update_interval=full["update_interval"],
                )

    def test_quota_remainder_distributed(self):
        """capacity % partitions is not dropped: 10 rows over 4
        partitions gives quotas 3, 3, 2, 2."""
        rc = RowCache(10 * 64, 64, 400, n_partitions=4)
        np.testing.assert_array_equal(
            rc.partition_quotas(), [3, 3, 2, 2]
        )
        admitted = rc.refresh(5, np.arange(400))
        assert admitted == 10
        assert rc.cached_rows == 10

    def test_partition_occupancy(self):
        rc = RowCache(8 * 64, 64, 400, n_partitions=4)
        # Activity only in partitions 0 ([0,100)) and 2 ([200,300)).
        rc.refresh(5, np.array([0, 1, 2, 250]))
        np.testing.assert_array_equal(
            rc.partition_occupancy(), [2, 0, 1, 0]
        )
        assert rc.partition_occupancy().sum() == rc.cached_rows

    def test_fast_forward_matches_executed_schedule(self):
        """Skipping refreshes via fast_forward lands on the same next
        scheduled iteration as actually executing them."""
        for upto in (5, 15, 35, 36, 74, 75, 200):
            executed = RowCache(1 << 20, 64, 1000, update_interval=5)
            it = executed.update_interval
            while it <= upto:
                executed.refresh(it, np.arange(10))
                it = executed._next_refresh
            skipped = RowCache(1 << 20, 64, 1000, update_interval=5)
            skipped.fast_forward(upto)
            assert skipped._next_refresh == executed._next_refresh
            assert skipped._gap == executed._gap

    def test_populated_flag(self):
        rc = RowCache(1 << 20, 64, 1000)
        assert not rc.populated
        rc.refresh(5, np.arange(10))
        assert rc.populated
        rc.clear()
        assert not rc.populated

    @settings(max_examples=30, deadline=None)
    @given(
        capacity_rows=st.integers(0, 200),
        n_parts=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    def test_never_exceeds_capacity(self, capacity_rows, n_parts, seed):
        rng = np.random.default_rng(seed)
        rc = RowCache(
            capacity_rows * 64, 64, 1000, n_partitions=n_parts
        )
        active = np.unique(rng.integers(0, 1000, size=300))
        rc.refresh(5, active)
        assert rc.cached_rows <= capacity_rows
        assert rc.cached_bytes <= capacity_rows * 64
