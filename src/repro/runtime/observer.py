"""Run observability: trace-event hooks threaded through the runtime.

Every execution backend reports the same event stream while an
:class:`~repro.runtime.loop.IterationLoop` drives it:

``on_run_start`` → (``on_iteration_start`` → [``on_io_issue`` →
``on_io``] → ``on_task_trace``\\* → [``on_io_complete``] →
[``on_collective``] → ``on_iteration_end`` → [``on_checkpoint``])\\* →
``on_run_end``

The bracketed I/O triple is the SEM backend's: ``on_io_issue`` marks
the iteration's reads entering the request queue (before compute),
``on_io`` carries the planned accounting, and ``on_io_complete`` lands
after the compute trace with the overlap split (how much service time
the prefetcher hid vs how long compute blocked).

Fault injection (:mod:`repro.faults`) adds a second family that can
appear anywhere inside an iteration: ``on_fault`` (a fault fired),
``on_retry`` (one recovery attempt, charged simulated time) and
``on_recovery`` (the fault was answered -- retries succeeded, a
checkpoint was restored, shards were reassigned). Every ``on_fault``
from a recoverable fault is eventually followed by an ``on_recovery``
for the same site.

The resilience layer (:mod:`repro.resilience`) extends that family:
``on_corruption`` (an integrity check failed -- corruption was
*detected*, never silently clustered on), ``on_quarantine`` (the bad
page/row/checkpoint was fenced off pending a clean re-read),
``on_straggler`` (a thread or machine's EWMA iteration time crossed
the slowdown threshold) and ``on_rebalance`` (work was re-partitioned
onto healthy workers).

Benchmarks, the CLI's ``--trace`` flag, and future profilers all ride
this one mechanism instead of scraping ``IterationRecord`` lists after
the fact. Observers are passive: nothing they return can alter the
numerics or the simulated costs, which preserves the two-plane
invariant (see ``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence, TextIO


class RunObserver:
    """Base observer: every hook is a no-op; override what you need.

    Subclassing (rather than a Protocol) keeps observers forward
    compatible: new events default to no-ops for existing observers.
    """

    def on_run_start(self, n_rows: int, max_iters: int,
                     meta: dict | None = None) -> None:
        """The loop is about to run ``max_iters`` iterations max."""

    def on_iteration_start(self, iteration: int) -> None:
        """An iteration's numerics are about to execute."""

    def on_io_issue(self, iteration: int, rows: int, pages: int,
                    prefetched: bool) -> None:
        """A SEM backend submitted an iteration's reads to the queue.

        ``prefetched`` is True when the prefetcher issued (part of) the
        batch ahead of the compute front against banked overlap credit;
        always False in ``--sync-io`` mode.
        """

    def on_io(self, iteration: int, io: Any) -> None:
        """A SEM backend planned its row fetches (``IoIterationStats``)."""

    def on_io_complete(self, iteration: int, service_ns: float,
                       hidden_ns: float, blocked_ns: float) -> None:
        """The iteration's reads were serviced. ``hidden_ns`` overlapped
        with compute; ``blocked_ns`` is what compute waited behind
        (``hidden + blocked == service``; sync mode hides nothing)."""

    def on_task_trace(self, iteration: int, trace: Any,
                      machine_index: int = 0) -> None:
        """One machine replayed its task blocks (``IterationTrace``).

        Distributed backends emit one call per machine, tagged with
        ``machine_index``; single-machine backends always pass 0.
        """

    def on_collective(self, iteration: int, payload_bytes: int,
                      wire_bytes: int, sim_ns: float) -> None:
        """A distributed backend completed its allreduce."""

    def on_iteration_end(self, iteration: int, record: Any) -> None:
        """The iteration's ``IterationRecord`` is final."""

    def on_checkpoint(self, iteration: int, path: Any) -> None:
        """A backend persisted resumable state after an iteration."""

    def on_fault(self, iteration: int, site: str, kind: str,
                 detail: dict | None = None) -> None:
        """An injected fault fired at ``site`` (see :mod:`repro.faults`)."""

    def on_retry(self, iteration: int, site: str, attempt: int,
                 delay_ns: float) -> None:
        """One recovery attempt (re-read, retransmit) was charged."""

    def on_recovery(self, iteration: int, site: str, action: str,
                    detail: dict | None = None) -> None:
        """A fault was answered (retried, resumed, re-sharded...)."""

    def on_corruption(self, iteration: int, where: str,
                      detail: dict | None = None) -> None:
        """An integrity check failed: corruption was detected at ``where``
        (``ssd-page``, ``cache-line``, ``checkpoint``,
        ``net-payload``) before any numerics consumed the bytes."""

    def on_quarantine(self, iteration: int, where: str, what: Any,
                      detail: dict | None = None) -> None:
        """A corrupt resource (page, cached row, checkpoint) was
        fenced off; a clean copy will be re-read or the run aborts."""

    def on_straggler(self, iteration: int, scope: str, worker: int,
                     detail: dict | None = None) -> None:
        """A worker's EWMA iteration time crossed the slowdown
        threshold (``scope`` is ``thread`` or ``machine``)."""

    def on_rebalance(self, iteration: int, scope: str,
                     detail: dict | None = None) -> None:
        """Work was re-partitioned away from degraded workers."""

    def on_preempt_notice(self, iteration: int, machine: int,
                          deadline: int,
                          detail: dict | None = None) -> None:
        """A spot preemption was announced: ``machine`` is lost after
        completing iteration ``deadline``; the grace window is spent
        draining shards / flushing a checkpoint so the planned loss
        commits nothing to replay (see :mod:`repro.elastic`)."""

    def on_scale_up(self, iteration: int, machine: int,
                    detail: dict | None = None) -> None:
        """A machine joined the fleet (planned scale-up or an
        autoscaler grant) and shards re-sharded onto it."""

    def on_scale_down(self, iteration: int, machine: int,
                      detail: dict | None = None) -> None:
        """A machine left the fleet after draining its shards
        (planned scale-in, or a preemption deadline elapsing)."""

    def on_query(self, batch: int, queries: int, latency_ns: float,
                 detail: dict | None = None) -> None:
        """The serving plane answered a batch of assignment queries;
        ``latency_ns`` is the batch's worst arrival-to-completion
        latency and ``batch`` the serve-plane batch index (the
        serving analog of an iteration number)."""

    def on_ingest(self, batch: int, rows: int,
                  detail: dict | None = None) -> None:
        """The serving plane folded ``rows`` streamed arrivals into
        the model via the mini-batch update."""

    def on_alloc(self, tag: str, nbytes: int, reused: bool) -> None:
        """The memory manager handed out a buffer (``reused`` when it
        came from an arena free list instead of fresh backing memory).
        Unlike the iteration events, memory events carry no iteration
        number -- allocations outlive and straddle iterations."""

    def on_free(self, tag: str, nbytes: int) -> None:
        """A manager-owned buffer was returned (pooled or released)."""

    def on_spill(self, tag: str, nbytes: int, ns: float,
                 direction: str) -> None:
        """The budgeted manager moved a cold buffer to (``"out"``) or
        back from (``"in"``) the simulated SSD, charging ``ns``
        simulated I/O time to its spill ledger."""

    def on_run_end(self, iterations: int, converged: bool) -> None:
        """The loop finished (converged or hit the iteration cap)."""


class ObserverChain(RunObserver):
    """Fans every event out to a sequence of observers, in order."""

    def __init__(self, observers: Sequence[RunObserver]) -> None:
        self.observers = list(observers)

    def on_run_start(self, n_rows, max_iters, meta=None):
        for o in self.observers:
            o.on_run_start(n_rows, max_iters, meta)

    def on_iteration_start(self, iteration):
        for o in self.observers:
            o.on_iteration_start(iteration)

    def on_io_issue(self, iteration, rows, pages, prefetched):
        for o in self.observers:
            o.on_io_issue(iteration, rows, pages, prefetched)

    def on_io(self, iteration, io):
        for o in self.observers:
            o.on_io(iteration, io)

    def on_io_complete(self, iteration, service_ns, hidden_ns, blocked_ns):
        for o in self.observers:
            o.on_io_complete(iteration, service_ns, hidden_ns, blocked_ns)

    def on_task_trace(self, iteration, trace, machine_index=0):
        for o in self.observers:
            o.on_task_trace(iteration, trace, machine_index)

    def on_collective(self, iteration, payload_bytes, wire_bytes, sim_ns):
        for o in self.observers:
            o.on_collective(iteration, payload_bytes, wire_bytes, sim_ns)

    def on_iteration_end(self, iteration, record):
        for o in self.observers:
            o.on_iteration_end(iteration, record)

    def on_checkpoint(self, iteration, path):
        for o in self.observers:
            o.on_checkpoint(iteration, path)

    def on_fault(self, iteration, site, kind, detail=None):
        for o in self.observers:
            o.on_fault(iteration, site, kind, detail)

    def on_retry(self, iteration, site, attempt, delay_ns):
        for o in self.observers:
            o.on_retry(iteration, site, attempt, delay_ns)

    def on_recovery(self, iteration, site, action, detail=None):
        for o in self.observers:
            o.on_recovery(iteration, site, action, detail)

    def on_corruption(self, iteration, where, detail=None):
        for o in self.observers:
            o.on_corruption(iteration, where, detail)

    def on_quarantine(self, iteration, where, what, detail=None):
        for o in self.observers:
            o.on_quarantine(iteration, where, what, detail)

    def on_straggler(self, iteration, scope, worker, detail=None):
        for o in self.observers:
            o.on_straggler(iteration, scope, worker, detail)

    def on_rebalance(self, iteration, scope, detail=None):
        for o in self.observers:
            o.on_rebalance(iteration, scope, detail)

    def on_preempt_notice(self, iteration, machine, deadline, detail=None):
        for o in self.observers:
            o.on_preempt_notice(iteration, machine, deadline, detail)

    def on_scale_up(self, iteration, machine, detail=None):
        for o in self.observers:
            o.on_scale_up(iteration, machine, detail)

    def on_scale_down(self, iteration, machine, detail=None):
        for o in self.observers:
            o.on_scale_down(iteration, machine, detail)

    def on_query(self, batch, queries, latency_ns, detail=None):
        for o in self.observers:
            o.on_query(batch, queries, latency_ns, detail)

    def on_ingest(self, batch, rows, detail=None):
        for o in self.observers:
            o.on_ingest(batch, rows, detail)

    def on_alloc(self, tag, nbytes, reused):
        for o in self.observers:
            o.on_alloc(tag, nbytes, reused)

    def on_free(self, tag, nbytes):
        for o in self.observers:
            o.on_free(tag, nbytes)

    def on_spill(self, tag, nbytes, ns, direction):
        for o in self.observers:
            o.on_spill(tag, nbytes, ns, direction)

    def on_run_end(self, iterations, converged):
        for o in self.observers:
            o.on_run_end(iterations, converged)


def chain_observers(observers: Sequence[RunObserver]) -> RunObserver:
    """Collapse 0/1/N observers into one dispatch target."""
    if not observers:
        return RunObserver()
    if len(observers) == 1:
        return observers[0]
    return ObserverChain(observers)


@dataclass
class TraceEvent:
    """One recorded observer event (for tests and offline analysis)."""

    name: str
    iteration: int | None
    payload: dict = field(default_factory=dict)


class RecordingObserver(RunObserver):
    """Appends every event to ``self.events`` -- the test fixture for
    event-ordering guarantees, and a cheap in-memory profiler."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def _rec(self, name: str, iteration: int | None, **payload) -> None:
        self.events.append(TraceEvent(name, iteration, payload))

    def on_run_start(self, n_rows, max_iters, meta=None):
        self._rec("run_start", None, n_rows=n_rows, max_iters=max_iters)

    def on_iteration_start(self, iteration):
        self._rec("iteration_start", iteration)

    def on_io_issue(self, iteration, rows, pages, prefetched):
        self._rec("io_issue", iteration, rows=rows, pages=pages,
                  prefetched=prefetched)

    def on_io(self, iteration, io):
        self._rec("io", iteration, bytes_read=io.bytes_read,
                  service_ns=io.service_ns)

    def on_io_complete(self, iteration, service_ns, hidden_ns, blocked_ns):
        self._rec("io_complete", iteration, service_ns=service_ns,
                  hidden_ns=hidden_ns, blocked_ns=blocked_ns)

    def on_task_trace(self, iteration, trace, machine_index=0):
        self._rec("task_trace", iteration, machine_index=machine_index,
                  total_ns=trace.total_ns, steals=trace.total_steals)

    def on_collective(self, iteration, payload_bytes, wire_bytes, sim_ns):
        self._rec("collective", iteration, payload_bytes=payload_bytes,
                  wire_bytes=wire_bytes, sim_ns=sim_ns)

    def on_iteration_end(self, iteration, record):
        self._rec("iteration_end", iteration, sim_ns=record.sim_ns)

    def on_checkpoint(self, iteration, path):
        self._rec("checkpoint", iteration, path=str(path))

    def on_fault(self, iteration, site, kind, detail=None):
        self._rec("fault", iteration, site=site, kind=kind,
                  detail=detail or {})

    def on_retry(self, iteration, site, attempt, delay_ns):
        self._rec("retry", iteration, site=site, attempt=attempt,
                  delay_ns=delay_ns)

    def on_recovery(self, iteration, site, action, detail=None):
        self._rec("recovery", iteration, site=site, action=action,
                  detail=detail or {})

    def on_corruption(self, iteration, where, detail=None):
        self._rec("corruption", iteration, where=where,
                  detail=detail or {})

    def on_quarantine(self, iteration, where, what, detail=None):
        self._rec("quarantine", iteration, where=where, what=what,
                  detail=detail or {})

    def on_straggler(self, iteration, scope, worker, detail=None):
        self._rec("straggler", iteration, scope=scope, worker=worker,
                  detail=detail or {})

    def on_rebalance(self, iteration, scope, detail=None):
        self._rec("rebalance", iteration, scope=scope,
                  detail=detail or {})

    def on_preempt_notice(self, iteration, machine, deadline, detail=None):
        self._rec("preempt_notice", iteration, machine=machine,
                  deadline=deadline, detail=detail or {})

    def on_scale_up(self, iteration, machine, detail=None):
        self._rec("scale_up", iteration, machine=machine,
                  detail=detail or {})

    def on_scale_down(self, iteration, machine, detail=None):
        self._rec("scale_down", iteration, machine=machine,
                  detail=detail or {})

    def on_query(self, batch, queries, latency_ns, detail=None):
        self._rec("query", batch, queries=queries,
                  latency_ns=latency_ns, detail=detail or {})

    def on_ingest(self, batch, rows, detail=None):
        self._rec("ingest", batch, rows=rows, detail=detail or {})

    def on_alloc(self, tag, nbytes, reused):
        self._rec("alloc", None, tag=tag, nbytes=nbytes, reused=reused)

    def on_free(self, tag, nbytes):
        self._rec("free", None, tag=tag, nbytes=nbytes)

    def on_spill(self, tag, nbytes, ns, direction):
        self._rec("spill", None, tag=tag, nbytes=nbytes, ns=ns,
                  direction=direction)

    def on_run_end(self, iterations, converged):
        self._rec("run_end", None, iterations=iterations,
                  converged=converged)

    def names(self) -> list[str]:
        """Event names in arrival order (ordering assertions)."""
        return [e.name for e in self.events]

    def fault_events(self) -> list[TraceEvent]:
        """The fault-plane subset, in order -- a run's fault trace.

        Two runs with the same fault seed produce equal lists
        (byte-for-byte reproducibility; asserted in the fault tests).
        """
        return [
            e for e in self.events
            if e.name in ("fault", "retry", "recovery", "corruption",
                          "quarantine", "straggler", "rebalance")
        ]

    def elastic_events(self) -> list[TraceEvent]:
        """The membership subset, in order -- a run's elastic trace.

        Pure function of (plan seed, fault seed): two runs with the
        same seeds produce equal lists (pinned by the elastic suite).
        Empty for zero-event plans and plan-free runs.
        """
        return [
            e for e in self.events
            if e.name in ("preempt_notice", "scale_up", "scale_down")
        ]


class PrintObserver(RunObserver):
    """Writes one line per event -- the CLI's ``--trace`` output."""

    def __init__(self, stream: TextIO | None = None) -> None:
        import sys

        self.stream = stream if stream is not None else sys.stderr

    def _emit(self, line: str) -> None:
        print(line, file=self.stream)

    def on_run_start(self, n_rows, max_iters, meta=None):
        self._emit(f"[trace] run start: n={n_rows} max_iters={max_iters}")

    def on_io_issue(self, iteration, rows, pages, prefetched):
        mode = "prefetch" if prefetched else "demand"
        self._emit(
            f"[trace] it={iteration} io issue: rows={rows} "
            f"pages={pages} ({mode})"
        )

    def on_io(self, iteration, io):
        self._emit(
            f"[trace] it={iteration} io: rows={io.rows_needed} "
            f"rc_hits={io.row_cache_hits} read={io.bytes_read}B "
            f"service={io.service_ns / 1e6:.3f}ms"
        )

    def on_io_complete(self, iteration, service_ns, hidden_ns, blocked_ns):
        self._emit(
            f"[trace] it={iteration} io complete: "
            f"service={service_ns / 1e6:.3f}ms "
            f"hidden={hidden_ns / 1e6:.3f}ms "
            f"blocked={blocked_ns / 1e6:.3f}ms"
        )

    def on_task_trace(self, iteration, trace, machine_index=0):
        self._emit(
            f"[trace] it={iteration} m={machine_index} compute: "
            f"span={trace.span_ns / 1e6:.3f}ms "
            f"busy={trace.busy_fraction:.2f} steals={trace.total_steals}"
        )

    def on_collective(self, iteration, payload_bytes, wire_bytes, sim_ns):
        self._emit(
            f"[trace] it={iteration} allreduce: payload={payload_bytes}B "
            f"wire={wire_bytes}B time={sim_ns / 1e6:.3f}ms"
        )

    def on_iteration_end(self, iteration, record):
        self._emit(
            f"[trace] it={iteration} done: sim={record.sim_ns / 1e6:.3f}ms"
            f" changed={record.n_changed} dist={record.dist_computations}"
        )

    def on_checkpoint(self, iteration, path):
        self._emit(f"[trace] it={iteration} checkpoint -> {path}")

    def on_fault(self, iteration, site, kind, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(f"[fault] it={iteration} {site}: {kind}{extra}")

    def on_retry(self, iteration, site, attempt, delay_ns):
        self._emit(
            f"[fault] it={iteration} {site}: retry #{attempt} "
            f"(+{delay_ns / 1e6:.3f}ms)"
        )

    def on_recovery(self, iteration, site, action, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} {site}: recovered via {action}{extra}"
        )

    def on_corruption(self, iteration, where, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} corruption detected at "
            f"{where}{extra}"
        )

    def on_quarantine(self, iteration, where, what, detail=None):
        self._emit(
            f"[fault] it={iteration} quarantined {where} {what}"
        )

    def on_straggler(self, iteration, scope, worker, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} straggling {scope} "
            f"{worker}{extra}"
        )

    def on_rebalance(self, iteration, scope, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[fault] it={iteration} rebalanced {scope} work{extra}"
        )

    def on_preempt_notice(self, iteration, machine, deadline, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[elastic] it={iteration} preempt notice: machine "
            f"{machine} lost after it={deadline}{extra}"
        )

    def on_scale_up(self, iteration, machine, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[elastic] it={iteration} scale up: machine {machine} "
            f"joined{extra}"
        )

    def on_scale_down(self, iteration, machine, detail=None):
        extra = f" {detail}" if detail else ""
        self._emit(
            f"[elastic] it={iteration} scale down: machine {machine} "
            f"left{extra}"
        )

    def on_query(self, batch, queries, latency_ns, detail=None):
        self._emit(
            f"[serve] batch={batch} answered {queries} queries "
            f"(worst latency {latency_ns / 1e6:.3f}ms)"
        )

    def on_ingest(self, batch, rows, detail=None):
        self._emit(
            f"[serve] batch={batch} ingested {rows} rows"
        )

    # on_alloc/on_free stay silent under --trace: a run performs
    # thousands of allocations and the firehose would drown the
    # iteration trace. Spills are rare and load-bearing, so they print.
    def on_spill(self, tag, nbytes, ns, direction):
        self._emit(
            f"[mem] spill {direction}: {tag or '<untagged>'} "
            f"{nbytes}B (+{ns / 1e6:.3f}ms)"
        )

    def on_run_end(self, iterations, converged):
        state = "converged" if converged else "cap hit"
        self._emit(f"[trace] run end: {iterations} iterations ({state})")
