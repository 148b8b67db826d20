"""The assignment-query path: answering "which cluster is this point
in?" under simulated user traffic.

A :class:`ServePlane` owns a fitted model (centroids + Sculley counts)
and the same hardware stack the batch runners build -- a
:class:`~repro.simhw.machine.SimMachine`, SAFS with its page cache,
and one shared :class:`~repro.core.workspace.DistanceWorkspace`. The
row engine has no row cache: the paper's row cache pins an
*iterative* active set (Section 6.2.2), and a query stream has none.
Traffic comes from a seeded
:class:`~repro.simhw.serving.ArrivalProcess`; the
:class:`~repro.simhw.serving.OpenLoopBatcher` coalesces concurrent
arrivals into dispatch batches.

Per batch, the plane:

1. hands the batch's sorted distinct row ids to
   ``RowEngine.run_iteration``, which checks them and sends them all
   to ``Safs.fetch_rows``. SAFS maps rows to pages -- one integer
   division when the row size divides the page size and the header
   offset, as for serve's 128 B rows -- probes and admits the page
   cache through its private cores (the pages are already sorted,
   distinct and valid, and the misses are exactly the pages to
   admit), and prices the merged reads on the SSD model. The fault
   plane's SSD-error and page-corruption machinery applies verbatim,
   with the batch index standing in for the iteration number (the
   cache-line corruption site needs a row cache, so it fires on knors
   only);
2. gathers the batch's rows from ``x`` once and assigns them with
   ``nearest_centroid`` through the shared workspace: a batch of up
   to ``BLOCK_BYTES // (8 * d)`` rows (8,192 at d=16; ``max_batch``
   defaults to 256) is one block, so the kernel runs inline -- one
   GEMM with the batch's own row count, no dispatch, matrices
   validated once per call. A
   non-finite minimum distance sends the batch's suspect rows to
   ``check_row_dist_finite``, which fails typed naming the global
   rows that hold NaN/inf and those whose squared norm overflows
   float64 (the centroids are checked finite at construction, so only
   such rows can give one). It then prices the distance work on the
   simhw engine (``reduction=False`` -- an assignment-only pass merges
   nothing). That price is a pure function of the batch size --
   machine, scheduler, ``d`` and ``k`` are fixed, and the engine
   resets every thread's clock and counters per run -- so the plane
   memoises it per size: a serve run pays one engine run per distinct
   batch size, not one per batch, with bit-identical latencies;
3. folds any ingest arrivals, taken from the rows already gathered,
   into the centroids with the same vectorized mini-batch update the
   :class:`MiniBatchMM` driver uses, continuing the per-center
   learning-rate schedule (a fold whose centers do not repeat, the
   common case, is one pass with nothing to group), and keeps the
   counts' running total for the ``on_ingest`` event instead of
   summing them;
4. completes the batch on the open-loop clock, accruing per-arrival
   latency, and emits ``on_query`` / ``on_ingest`` observer events.

The two-plane invariant holds throughout: the page cache and faults
shape *simulated time only* -- the returned assignments are
bit-identical with the page cache on or off, and (with no ingest)
equal to a batch ``nearest_centroid`` over the same rows.
``tests/test_serve.py`` pins both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.baselines.minibatch import minibatch_update
from repro.core.distance import nearest_centroid
from repro.core.workspace import DistanceWorkspace
from repro.drivers.common import check_row_dist_finite, reject_rows
from repro.errors import ConfigError, DatasetError
from repro.metrics.latency import latency_percentiles
from repro.runtime.observer import RunObserver, chain_observers
from repro.simhw.serving import (
    ArrivalProcess,
    ArrivalTrace,
    OpenLoopBatcher,
    _check_max_batch,
)


def _check_counts(counts, k: int) -> np.ndarray:
    """Sculley counts as a fresh int64 ``(k,)`` vector (zeros for
    ``None``); a negative or non-integral entry, which the first fold
    would turn into a division by zero or a silent truncation, raises
    :class:`ConfigError` naming the entries."""
    if counts is None:
        return np.zeros(k, dtype=np.int64)
    raw = np.asarray(counts)
    if raw.shape != (k,):
        raise ConfigError(f"counts shape {raw.shape} != ({k},)")
    if raw.dtype.kind not in "iufb":
        raise ConfigError(f"counts must be numeric, got dtype {raw.dtype}")
    if raw.dtype.kind == "f":
        bad = ~(np.isfinite(raw) & (raw == np.floor(raw)))
        if bad.any():
            idx = np.flatnonzero(bad)
            raise ConfigError(
                f"counts must be integers; entries {idx.tolist()} are "
                f"{raw[idx].tolist()}"
            )
    neg = np.flatnonzero(raw < 0)
    if neg.size:
        raise ConfigError(
            f"counts must be >= 0; entries {neg.tolist()} are "
            f"{raw[neg].tolist()}"
        )
    return np.array(raw, dtype=np.int64, copy=True)


@dataclass
class ServeResult:
    """One serve run's answers plus its simulated-time accounting."""

    algorithm: str
    n_arrivals: int
    n_queries: int
    n_ingested: int
    n_batches: int
    assignments: np.ndarray
    rows: np.ndarray
    is_ingest: np.ndarray
    latency_ns: np.ndarray
    percentiles: dict[str, float]
    sim_seconds: float
    io_service_ns: float
    compute_ns: float
    rows_requested: int
    pages_from_ssd: int
    bytes_read: int
    centroids: np.ndarray
    counts: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def query_latency_ns(self) -> np.ndarray:
        """Latencies of the query (non-ingest) arrivals only."""
        return self.latency_ns[~self.is_ingest]

    def to_dict(self) -> dict:
        """JSON-safe rollup (scalars and percentiles, no arrays)."""
        return {
            "algorithm": self.algorithm,
            "n_arrivals": self.n_arrivals,
            "n_queries": self.n_queries,
            "n_ingested": self.n_ingested,
            "n_batches": self.n_batches,
            "latency": dict(self.percentiles),
            "sim_seconds": self.sim_seconds,
            "io_service_ns": self.io_service_ns,
            "compute_ns": self.compute_ns,
            "rows_requested": self.rows_requested,
            "pages_from_ssd": self.pages_from_ssd,
            "bytes_read": self.bytes_read,
            "params": dict(self.params),
        }


class ServePlane:
    """A live serving endpoint over a fitted clustering model."""

    def __init__(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        *,
        counts: np.ndarray | None = None,
        ssd: Any = None,
        cost_model: Any = None,
        n_threads: int | None = None,
        bind_policy: Any = None,
        scheduler: str = "numa_aware",
        page_cache_bytes: int | None = None,
        io_queue_depth: int = 32,
        max_batch: int = 256,
        batch_window_ns: float = 50_000.0,
        observers: Sequence[RunObserver] = (),
        faults: Any = None,
        retry_policy: Any = None,
        kernel: str = "blocked",
        tenant: str | None = None,
        mem: Any = None,
        mem_budget_bytes: int | None = None,
    ) -> None:
        from repro.drivers.common import make_scheduler
        from repro.runtime.env import RunEnv
        from repro.runtime.memory import register_mm_memory
        from repro.sem import build_row_engine
        from repro.simhw import SimMachine
        from repro.simhw.ssd import OCZ_INTREPID_ARRAY

        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        if x.ndim != 2:
            raise DatasetError(f"x must be 2-D, got shape {x.shape}")
        centroids = np.array(centroids, dtype=np.float64, copy=True)
        if centroids.ndim != 2 or centroids.shape[1] != x.shape[1]:
            raise DatasetError(
                f"centroids shape {centroids.shape} incompatible with "
                f"data dimension {x.shape[1]}"
            )
        reject_rows(
            ~np.isfinite(centroids).all(axis=1), "centroids",
            "rows contain NaN/inf",
        )
        max_batch = _check_max_batch(max_batch)
        if not (np.isfinite(batch_window_ns) and batch_window_ns >= 0):
            raise ConfigError(
                f"batch_window_ns must be finite and >= 0, got "
                f"{batch_window_ns}"
            )
        n, d = x.shape
        k = centroids.shape[0]
        self.x = x
        self.n_rows = n
        self.d = d
        self.k = k
        self.centroids = centroids
        self.counts = _check_counts(counts, k)
        self.max_batch = max_batch
        self.batch_window_ns = float(batch_window_ns)
        #: Owning tenant in a multi-tenant deployment; stamped into
        #: every ``on_query`` / ``on_ingest`` event detail so a shared
        #: observer can attribute load per tenant.
        self.tenant = tenant

        ssd = ssd or OCZ_INTREPID_ARRAY
        self.machine = SimMachine.build(
            cost_model, n_threads=n_threads, bind_policy=bind_policy, ssd=ssd
        )
        self._sched = make_scheduler(scheduler)
        # The serving plane's env outlives __init__: serve() pushes its
        # manager again so streaming-path allocations stay pooled/capped.
        self.env = RunEnv.resolve(
            observers=observers, faults=faults, retry_policy=retry_policy,
            mem=mem, mem_budget_bytes=mem_budget_bytes,
        )
        with self.env.use():
            # No row cache: it pins an iterative active set (Section
            # 6.2.2), and a query stream has none.
            self.io, _, page_cache_bytes = build_row_engine(
                ssd, n, d, self.machine.n_threads,
                row_cache_bytes=0,
                page_cache_bytes=page_cache_bytes,
                io_queue_depth=io_queue_depth,
                faults=self.env.faults,
                retry_policy=self.env.retry_policy,
            )
            register_mm_memory(
                self.machine, n, d,
                state_bytes_per_row=4,
                model_slots=k,
                resident_rows=False,
                page_cache_bytes=page_cache_bytes,
            )
            self.workspace = DistanceWorkspace(k, d, kernel=kernel)
        self.kernel = self.workspace.kernel
        self.observer = chain_observers(self.env.observers)
        self.batch_index = 0
        #: Batch size -> simulated compute price, filled lazily by
        #: :meth:`_price_compute` as ``serve`` meets each size.
        self._compute_ns: dict[int, float] = {}

    def _price_compute(self, m: int) -> float:
        """Simulated nanoseconds to assign ``m`` rows on the machine
        (an assignment-only pass: no centroid reduction).

        The price depends on ``m`` alone -- machine, scheduler, ``d``
        and ``k`` are fixed for the plane's life, and each engine run
        starts from reset thread clocks and counters -- so every batch
        size is priced once and memoised.
        """
        ns = self._compute_ns.get(m)
        if ns is not None:
            return ns
        from repro.sched.blocks import auto_task_rows, build_task_blocks

        tasks = build_task_blocks(
            m, self.d, self.machine,
            dist_per_row=np.full(m, self.k, dtype=np.int64),
            needs_data=np.ones(m, dtype=bool),
            task_rows=auto_task_rows(m, self.machine.n_threads),
            state_bytes_per_row=4,
        )
        trace = self.machine.engine.run(
            self._sched, tasks, self.machine.threads,
            d=self.d, k=self.k, reduction=False,
        )
        ns = self._compute_ns[m] = float(trace.total_ns)
        return ns

    def serve(
        self, arrivals: ArrivalProcess | ArrivalTrace
    ) -> ServeResult:
        """Drain an arrival stream and return answers + latency."""
        trace = (
            arrivals.generate(self.n_rows)
            if isinstance(arrivals, ArrivalProcess)
            else arrivals
        )
        if trace.row.size and (
            trace.row.min() < 0 or trace.row.max() >= self.n_rows
        ):
            raise DatasetError(
                "arrival rows out of range for the served dataset"
            )
        batcher = OpenLoopBatcher(
            trace.time_ns,
            max_batch=self.max_batch,
            window_ns=self.batch_window_ns,
        )
        n_arr = trace.n_arrivals
        assignments = np.full(n_arr, -1, dtype=np.int32)
        io_service_ns = 0.0
        compute_ns = 0.0
        rows_requested = 0
        pages_from_ssd = 0
        bytes_read = 0
        n_ingested = 0
        # Each folded row adds one to one count: keep the total here
        # instead of summing the counts per ingest batch.
        counts_total = int(self.counts.sum())

        with self.env.use():
            while (b := batcher.next_batch()) is not None:
                lo, hi, _dispatch = b
                rows = trace.row[lo:hi]
                ingest_mask = trace.is_ingest[lo:hi]
                io = self.io.run_iteration(
                    self.batch_index, np.unique(rows), self.observer
                )
                self.observer.on_io(self.batch_index, io)
                io_service_ns += io.service_ns
                rows_requested += io.rows_requested
                pages_from_ssd += io.pages_from_ssd
                bytes_read += io.bytes_read

                xb = self.x[rows]
                assign, dist = nearest_centroid(
                    xb, self.centroids, workspace=self.workspace,
                )
                if not np.isfinite(dist).all():
                    # Only a NaN/inf cell or an overflowing row gives
                    # a non-finite distance (the centroids are finite).
                    check_row_dist_finite(
                        xb, dist, "served rows", row_ids=rows
                    )
                assignments[lo:hi] = assign
                batch_compute_ns = self._price_compute(hi - lo)
                compute_ns += batch_compute_ns
                done = batcher.complete(
                    io.service_ns + batch_compute_ns
                )

                n_ing = int(np.count_nonzero(ingest_mask))
                if n_ing:
                    # Fresh array: the workspace caches ||c||^2 by
                    # identity.
                    folded = self.centroids.copy()
                    minibatch_update(
                        folded, self.counts,
                        xb[ingest_mask], assign[ingest_mask],
                    )
                    self.centroids = folded
                    n_ingested += n_ing
                    counts_total += n_ing
                    detail = {"counts_total": counts_total}
                    if self.tenant is not None:
                        detail["tenant"] = self.tenant
                    self.observer.on_ingest(
                        self.batch_index, n_ing, detail,
                    )
                n_q = (hi - lo) - n_ing
                if n_q:
                    worst = float(done - trace.time_ns[lo])
                    detail = {"io_ns": io.service_ns,
                              "compute_ns": batch_compute_ns}
                    if self.tenant is not None:
                        detail["tenant"] = self.tenant
                    self.observer.on_query(
                        self.batch_index, n_q, worst, detail,
                    )
                self.batch_index += 1

        query_lat = batcher.latency_ns[~trace.is_ingest]
        sample = query_lat if query_lat.size else batcher.latency_ns
        return ServeResult(
            algorithm="serve-assign",
            n_arrivals=n_arr,
            n_queries=n_arr - n_ingested,
            n_ingested=n_ingested,
            n_batches=len(batcher.batches),
            assignments=assignments,
            rows=trace.row.copy(),
            is_ingest=trace.is_ingest.copy(),
            latency_ns=batcher.latency_ns,
            percentiles=latency_percentiles(sample),
            sim_seconds=batcher.sim_end_ns / 1e9,
            io_service_ns=io_service_ns,
            compute_ns=compute_ns,
            rows_requested=rows_requested,
            pages_from_ssd=pages_from_ssd,
            bytes_read=bytes_read,
            centroids=self.centroids,
            counts=self.counts,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "max_batch": self.max_batch,
                "batch_window_ns": self.batch_window_ns,
                "T": self.machine.n_threads,
                "kernel": self.kernel,
            },
        )
