"""Wall-clock spans around the program's layer entry points.

A :class:`Tracer` patches each entry point *where callers look it up*
(a module attribute such as ``repro.runtime.backends.build_task_blocks``
or a class attribute such as ``IterationEngine.run``), records one span
per call -- name, layer, start, end and the index of the enclosing span
-- and restores every patched attribute when :meth:`Tracer.restore`
runs. Nothing under ``src/`` changes, and an untraced run installs
nothing.

A layer's *self time* is the duration of its spans minus the part of
each span that its child spans cover; because every measured call runs
under one root span, the layers' self times partition the root span's
duration exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def self_time_by(spans: list[Span], key: Callable[[Span], str]) -> dict:
    """Sum of self times grouped by ``key(span)``."""
    totals: dict[str, float] = defaultdict(float)
    for sp, st in zip(spans, self_times(spans)):
        totals[key(sp)] += st
    return dict(totals)


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it.

    ``counts`` collects per-layer tallies that the ``on_result`` hooks
    read off the wrapped calls' return values, so ratios are measured at
    the same boundary as the time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, layer, start, end, parent)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is the module or class whose attribute callers look
        up; for a class it must define ``attr`` itself (patch the base
        class for an inherited method).
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__qualname__} does not define {attr!r}"
                )
            original = owner.__dict__[attr]
            label = f"{owner.__qualname__}.{attr}"
        else:
            original = getattr(owner, attr)
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(layer, label):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back (the original objects)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """Dump the spans, times relative to the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "layer": sp.layer,
                    "start": sp.start - t0, "end": sp.end - t0,
                    "parent": sp.parent,
                }) + "\n")


# -- the program's layer entry points ----------------------------------


def _count_tasks(tr: Tracer, args: tuple, tasks: list) -> None:
    tr.counts["sched.tasks"] += len(tasks)


def _count_engine(tr: Tracer, args: tuple, trace: Any) -> None:
    c = tr.counts
    c["simhw.calls"] += 1
    c["simhw.span_sim_s"] += trace.span_ns / 1e9
    c["simhw.barrier_sim_s"] += trace.barrier_ns / 1e9
    c["simhw.reduction_sim_s"] += trace.reduction_ns / 1e9
    c["simhw.busy_sum"] += trace.busy_fraction
    c["simhw.steals"] += trace.total_steals


def _count_step(tr: Tracer, args: tuple, out: Any) -> None:
    dist = np.asarray(out.dist_per_row)
    tr.counts["core.dist_computations"] += int(dist.sum())
    tr.counts["core.row_slots"] += dist.size


def _count_lookup(tr: Tracer, args: tuple, out: Any) -> None:
    rows, k = args[0].shape[0], args[1].shape[0]
    tr.counts["core.dist_computations"] += rows * k
    tr.counts["core.row_slots"] += rows


def _count_io(tr: Tracer, args: tuple, io: Any) -> None:
    c = tr.counts
    c["sem.rows_needed"] += io.rows_needed
    c["sem.row_cache_hits"] += io.row_cache_hits
    c["sem.pages_needed"] += io.pages_needed
    c["sem.page_cache_hits"] += io.page_cache_hits
    c["sem.pages_from_ssd"] += io.pages_from_ssd
    c["sem.bytes_read"] += io.bytes_read
    c["sem.io_requests"] += io.merged_requests
    c["sem.io_service_sim_s"] += io.service_ns / 1e9


def _count_collective(tr: Tracer, args: tuple, out: tuple) -> None:
    tr.counts["dist.collectives"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points at their lookup sites."""
    import repro.runtime.backends as backends
    import repro.runtime.loop as loop
    import repro.sched.blocks as blocks
    import repro.serve.query as query
    from repro.drivers.common import NumericsLoop
    from repro.resilience.integrity import PageIntegrity
    from repro.sem.flashgraph import RowEngine
    from repro.sem.pagecache import PageCache
    from repro.sem.rowcache import RowCache
    from repro.sem.safs import Safs
    from repro.serve.query import ServePlane
    from repro.simhw.engine import IterationEngine

    w = tracer.wrap
    # core: the numerics, wherever the drivers and the serving path
    # call them.
    w(NumericsLoop, "step", "core", _count_step)
    w(NumericsLoop, "inertia", "core")
    w(backends.ShardedKmeans, "step", "core")
    w(backends.ShardedKmeans, "minimize", "core")
    w(query, "nearest_centroid", "core", _count_lookup)
    w(query, "minibatch_update", "core")
    # sched: task building at each lookup site (the serving path
    # imports it from repro.sched.blocks at call time).
    w(backends, "build_task_blocks", "sched", _count_tasks)
    w(blocks, "build_task_blocks", "sched", _count_tasks)
    # simhw: engine pricing; scheduler callbacks run inside it.
    w(IterationEngine, "run", "simhw", _count_engine)
    # sem: row engine, SAFS fetch, the two caches.
    w(RowEngine, "run_iteration", "sem", _count_io)
    w(Safs, "fetch_rows", "sem")
    w(RowCache, "lookup", "sem")
    w(RowCache, "refresh", "sem")
    w(PageCache, "lookup_batch", "sem")
    w(PageCache, "admit_batch", "sem")
    w(backends.CheckpointHook, "maybe_save", "checkpoint")
    # resilience: CRC verification and the retry/repair loops.
    w(PageIntegrity, "verify_pages", "resilience")
    w(PageIntegrity, "verify_row", "resilience")
    w(Safs, "_apply_faults", "resilience")
    w(Safs, "_apply_corruption", "resilience")
    w(RowEngine, "_quarantine_cache_line", "resilience")
    # dist: the collective (it folds the reduced model via minimize).
    w(backends.ShardedProgram, "reduce_and_broadcast", "dist",
      _count_collective)
    # serve and runtime: the plane's own loop and the iteration glue.
    w(ServePlane, "serve", "serve")
    w(loop.IterationLoop, "step", "runtime")


#: Sections of sem's self time reported on their own.
SEM_FETCH = ("Safs.fetch_rows",)
SEM_CACHE = (
    "RowCache.lookup", "RowCache.refresh",
    "PageCache.lookup_batch", "PageCache.admit_batch",
)
