"""The benchmark's whole-run workloads and their correctness gates.

Every workload builds its inputs from the workload seed before any
timing starts: the seed shuffles the rows of a registry dataset (and,
for serving, draws the arrival stream), while the initial centroids are
fixed rows of the unshuffled dataset. Lloyd's iterations do not depend
on row order, so every seed runs the same amount of work and the
figures stay comparable across seeds, yet each seed gives the program
different bytes, task blocks, shards, pages and cache contents.

One call of :meth:`Workload.run` is one repetition: it times the
set-up (``setup_s``) and the measured call (``wall_s``), and returns the
run's sim-clock figures, golden digest and deterministic counters.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import knori, knors
from repro.core import ConvergenceCriteria
from repro.data.matrixfile import write_matrix
from repro.data.registry import load_dataset
from repro.drivers.knord import knord_loop
from repro.errors import KnorError
from repro.faults import FaultPlan, parse_fault_spec
from repro.mem import build_manager, use_manager
from repro.metrics.resilience import ResilienceObserver
from repro.serve import ServePlane
from repro.simhw.serving import ArrivalProcess

import spans

K = 16
#: Iterations of the batch workloads. The convergence test never fires
#: this early on these datasets, so every seed runs exactly this many.
ITERS = 20
#: Seed that picks the initial centroids among the unshuffled rows.
INIT_SEED = 0
#: The knors fault plan is part of the workload, not of the seed: a
#: seeded plan draws the same fault sequence for every row order, so
#: retry delays do not swamp the sim-time comparison across seeds.
FAULT_SPEC = "ssd_error=0.05,corrupt_page=0.1,corrupt_cache=0.3"
FAULT_SEED = 1
CHECKPOINT_INTERVAL = 5
SETUP_SAMPLES = 40
SERVE_FIT_ITERS = 5
SERVE_ARRIVALS = 20_000

#: Layers whose self time the traced run reports.
LAYERS = (
    "core", "sched", "simhw", "sem", "checkpoint", "resilience", "dist",
    "serve", "runtime",
)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    **{f"{layer}.wall_s": "s" for layer in LAYERS},
    "core.calls": "count",
    "core.dist_computations": "count",
    "core.pruned_frac": "ratio",
    "sched.tasks": "count",
    "simhw.calls": "count",
    "simhw.span_sim_s": "s",
    "simhw.barrier_sim_s": "s",
    "simhw.reduction_sim_s": "s",
    "simhw.busy_fraction": "ratio",
    "simhw.steals": "count",
    "sem.fetch_wall_s": "s",
    "sem.cache_wall_s": "s",
    "sem.rows_needed": "count",
    "sem.row_cache_hit_ratio": "ratio",
    "sem.page_cache_hit_ratio": "ratio",
    "sem.pages_from_ssd": "count",
    "sem.bytes_read": "bytes",
    "sem.io_requests": "count",
    "sem.io_service_sim_s": "s",
    "sem.io_blocked_sim_s": "s",
    "checkpoint.saves": "count",
    "resilience.retries": "count",
    "resilience.corruptions_detected": "count",
    "resilience.detection_recall": "ratio",
    "resilience.retry_delay_sim_s": "s",
    "dist.collectives": "count",
    "dist.allreduce_sim_s": "s",
    "dist.network_bytes": "bytes",
    "mem.allocs": "count",
    "mem.reuse_rate": "ratio",
    "mem.backing_allocs": "count",
    "mem.peak_bytes": "bytes",
    "serve.batches": "count",
    "serve.mean_batch_rows": "count",
    "serve.ingest_rows": "count",
    "serve.io_service_sim_s": "s",
    "serve.compute_sim_s": "s",
    "serve.query_p50_sim_us": "us",
    "serve.query_p99_sim_us": "us",
    "serve.query_p999_sim_us": "us",
    "trace.overhead_s": "s",
}


class BenchObserver(ResilienceObserver):
    """Fault tallies plus the few run events the metrics need."""

    def __init__(self) -> None:
        super().__init__()
        self.run_started: float | None = None
        self.saves = 0
        self.io_blocked_ns = 0.0

    def on_run_start(self, n_rows, max_iters, meta=None):
        if self.run_started is None:
            self.run_started = time.perf_counter()

    def on_checkpoint(self, iteration, path):
        self.saves += 1

    def on_io_complete(self, iteration, service_ns, hidden_ns, blocked_ns):
        self.io_blocked_ns += blocked_ns


class _RunStarted(Exception):
    pass


class _StopAtRunStart(BenchObserver):
    """Ends a driver call as its first iteration is about to start."""

    def on_run_start(self, n_rows, max_iters, meta=None):
        super().on_run_start(n_rows, max_iters, meta)
        raise _RunStarted


@dataclass
class Outcome:
    """One repetition of a workload."""

    #: Set-up samples of this repetition (several where set-up is
    #: cheap enough to repeat).
    setup_s: list
    wall_s: float
    sim_s: float
    digest: str
    #: Operations attempted / failed (runs for batch workloads,
    #: arrivals for serving).
    attempted: int
    failed: int
    #: Sim-clock figures and counters that must repeat exactly.
    counts: dict = field(default_factory=dict)
    #: Tracer-derived per-layer metrics (traced repetitions only).
    layers: dict = field(default_factory=dict)
    error: str | None = None
    #: Host-speed factor for this repetition's wall-clock figures.
    scale: float = 1.0


def digest(assignment, centroids, iterations: int, sim_s: float) -> str:
    """Golden digest: assignment, centroid bytes, iteration count, sim_s."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(assignment, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(centroids, dtype=np.float64).tobytes())
    h.update(f"{int(iterations)}|{float(sim_s)!r}".encode())
    return h.hexdigest()[:32]


def shuffled_dataset(name: str, n: int | None, seed: int):
    """``(rows shuffled by seed, fixed initial centroids)``."""
    x = load_dataset(name, n)
    init = x[np.random.default_rng(INIT_SEED).choice(len(x), K, replace=False)]
    perm = np.random.default_rng(seed).permutation(len(x))
    return np.ascontiguousarray(x[perm]), init


def lloyd_reference(x: np.ndarray, init: np.ndarray, iters: int):
    """Plain Lloyd's in numpy, the oracle for the pruned engines.

    Returns ``(assignment, centroids, sq_dist)`` where ``sq_dist`` holds
    the last assignment step's squared distances, to tell near-ties
    apart from wrong answers.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.array(init, dtype=np.float64)
    k, d = c.shape
    xx = np.einsum("ij,ij->i", x, x)
    for _ in range(iters):
        d2 = xx[:, None] - 2.0 * (x @ c.T) + np.einsum("ij,ij->i", c, c)
        a = d2.argmin(axis=1)
        counts = np.bincount(a, minlength=k)
        sums = np.zeros((k, d))
        np.add.at(sums, a, x)
        nz = counts > 0
        c = c.copy()
        c[nz] = sums[nz] / counts[nz, None]
    return a, c, d2


def check_against_reference(x, init, assignment, centroids, iters) -> list:
    """Problems found comparing a batch run with :func:`lloyd_reference`.

    An assignment may differ from the oracle's only on a near-tie, and
    the centroids must agree to round-off.
    """
    ref_a, ref_c, d2 = lloyd_reference(x, init, iters)
    assignment = np.asarray(assignment)
    problems = []
    bad = np.nonzero(assignment != ref_a)[0]
    if bad.size:
        gap = d2[bad, assignment[bad]] - d2[bad, ref_a[bad]]
        scale = 1e-9 * (1.0 + np.abs(d2[bad]).max(axis=1))
        wrong = int(np.count_nonzero(gap > scale))
        if wrong:
            problems.append(f"{wrong} rows assigned away from the nearest "
                            "centroid of the reference Lloyd run")
    err = np.abs(np.asarray(centroids) - ref_c).max()
    if not err <= 1e-8 * (1.0 + np.abs(ref_c).max()):
        problems.append(f"centroids differ from the reference by {err:.3g}")
    return problems


def _memory_counts(manager) -> dict:
    mc = manager.counters()
    return {
        "mem.allocs": mc.n_allocs,
        "mem.reuse_rate": mc.reuse_rate,
        "mem.backing_allocs": mc.backing_allocs,
        "mem.peak_bytes": mc.peak_bytes,
    }


def _resilience_counts(obs: BenchObserver) -> dict:
    c = obs.counters
    return {
        "resilience.retries": c.retries,
        "resilience.corruptions_detected": c.corruptions_detected,
        "resilience.detection_recall": c.detection_recall,
        "resilience.retry_delay_sim_s": c.retry_delay_ns / 1e9,
        "checkpoint.saves": obs.saves,
        "sem.io_blocked_sim_s": obs.io_blocked_ns / 1e9,
    }


def _batch_counts(result) -> dict:
    recs = result.records
    return {
        "dist.allreduce_sim_s": sum(r.allreduce_ns for r in recs) / 1e9,
        "dist.network_bytes": sum(r.network_bytes for r in recs),
    }


def _root(tracer, layer: str, name: str):
    if tracer is None:
        return nullcontext()
    # Spans recorded during set-up are not part of the measured call.
    tracer.spans.clear()
    tracer.counts.clear()
    return tracer.span(layer, name)


class Workload:
    """Inputs for one seed plus the timed repetition."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path, n: int | None = None,
                 arrivals: int = SERVE_ARRIVALS) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n = n
        self.arrivals = arrivals
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, tracer: spans.Tracer | None = None) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        """Seed-independent correctness problems of a repetition."""
        return []

    def _failed(self, exc: KnorError, attempted: int = 1) -> Outcome:
        return Outcome([], 0.0, 0.0, "", attempted, attempted,
                       error=f"{type(exc).__name__}: {exc}")


class KnordWorkload(Workload):
    name = "knord-rm856m"
    why = ("compute-heavy distributed run: core numerics lead the wall "
           "time, the allreduce a third of sim time, no sem code runs")

    def prepare(self) -> None:
        self.x, self.init = shuffled_dataset("rm-856m", self.n, self.seed)

    def _assemble(self):
        obs = BenchObserver()
        manager = build_manager("numpy")
        with use_manager(manager):
            loop, finalize = knord_loop(
                self.x, K, n_machines=4, pruning="mti", init=self.init,
                criteria=ConvergenceCriteria(max_iters=ITERS),
                allreduce="tree", observers=[obs],
            )
        return obs, manager, loop, finalize

    def run(self, tracer=None) -> Outcome:
        try:
            # Assembly takes about a millisecond: time several, run the
            # last one.
            setups = []
            for _ in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                obs, manager, loop, finalize = self._assemble()
                setups.append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            with _root(tracer, "runtime", "knord"):
                with use_manager(manager):
                    loop_result = loop.run()
                result = finalize(loop_result)
            t2 = time.perf_counter()
        except KnorError as exc:
            return self._failed(exc)
        self.result = result
        counts = {**_batch_counts(result), **_resilience_counts(obs),
                  **_memory_counts(manager)}
        return Outcome(
            setups, t2 - t1, result.sim_seconds,
            digest(result.assignment, result.centroids, result.iterations,
                   result.sim_seconds),
            1, 0, counts,
        )

    def check(self, outcome: Outcome) -> list[str]:
        r = self.result
        return check_against_reference(
            self.x, self.init, r.assignment, r.centroids, r.iterations)


class KnorsWorkload(Workload):
    name = "knors-rm1b-faults"
    why = ("only run of the SSD read path, row and page caches, "
           "checkpoint writes and CRC/retry recovery together")

    def prepare(self) -> None:
        x, self.init = shuffled_dataset("rm-1b", self.n, self.seed)
        self.path = self.workdir / "rm-1b.knor"
        write_matrix(self.path, x)
        self.ckpt = self.workdir / "ckpt"

    def _knors(self, obs: BenchObserver, manager):
        return knors(
            self.path, K, pruning="mti", init=self.init,
            criteria=ConvergenceCriteria(max_iters=ITERS),
            io_mode="async", checkpoint_dir=self.ckpt,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            faults=FaultPlan(parse_fault_spec(FAULT_SPEC), seed=FAULT_SEED),
            observers=[obs], mem=manager,
        )

    def run(self, tracer=None) -> Outcome:
        try:
            # Set-up happens inside knors(), before its first iteration:
            # sample it on calls stopped at run start.
            setups = []
            for _ in range(SETUP_SAMPLES):
                obs = _StopAtRunStart()
                t0 = time.perf_counter()
                try:
                    self._knors(obs, build_manager("numpy"))
                except _RunStarted:
                    setups.append(obs.run_started - t0)
            shutil.rmtree(self.ckpt, ignore_errors=True)
            obs = BenchObserver()
            manager = build_manager("numpy")
            t0 = time.perf_counter()
            with _root(tracer, "runtime", "knors"):
                result = self._knors(obs, manager)
            t2 = time.perf_counter()
        except KnorError as exc:
            return self._failed(exc)
        self.result = result
        counts = {**_batch_counts(result), **_resilience_counts(obs),
                  **_memory_counts(manager)}
        return Outcome(
            setups, t2 - t0, result.sim_seconds,
            digest(result.assignment, result.centroids, result.iterations,
                   result.sim_seconds),
            1, 0, counts,
        )

    def check(self, outcome: Outcome) -> list[str]:
        from repro.data.matrixfile import read_matrix

        r = self.result
        problems = check_against_reference(
            read_matrix(self.path), self.init, r.assignment, r.centroids,
            r.iterations)
        c = outcome.counts
        if c["resilience.detection_recall"] != 1.0:
            problems.append("an injected corruption went undetected")
        # The plan is tuned on the full-size dataset; small variants
        # may read too few pages to draw a fault.
        if self.n is None and c["resilience.retries"] < 1:
            problems.append("the fault plan caused no retry")
        if self.n is None and c["resilience.corruptions_detected"] < 1:
            problems.append("the fault plan caused no detected corruption")
        return problems


class ServeWorkload(Workload):
    name = "serve-rm856m-mixed"
    why = ("open-loop queries plus 20% ingest: per-batch simhw/sched "
           "pricing and sem accounting lead, core is a few percent")

    def prepare(self) -> None:
        self.x, self.init = shuffled_dataset("rm-856m", self.n, self.seed)
        self.trace = ArrivalProcess(
            n_arrivals=self.arrivals, rate_qps=50_000.0, seed=self.seed,
            skew=3.0, ingest_fraction=0.2,
        ).generate(len(self.x))

    def run(self, tracer=None) -> Outcome:
        obs = BenchObserver()
        manager = build_manager("numpy")
        arrivals = self.trace.n_arrivals
        try:
            t0 = time.perf_counter()
            fit = knori(self.x, K, init=self.init,
                        criteria=ConvergenceCriteria(max_iters=SERVE_FIT_ITERS))
            self.fit_counts = np.bincount(fit.assignment, minlength=K)
            plane = ServePlane(self.x, fit.centroids, counts=self.fit_counts,
                               observers=[obs], mem=manager)
            t1 = time.perf_counter()
            with _root(tracer, "serve", "serve"):
                result = plane.serve(self.trace)
            t2 = time.perf_counter()
        except KnorError as exc:
            return self._failed(exc, arrivals)
        self.result = result
        unanswered = int(np.count_nonzero(result.assignments < 0))
        pct = result.percentiles
        counts = {
            "serve.batches": result.n_batches,
            "serve.mean_batch_rows": result.n_arrivals / result.n_batches,
            "serve.ingest_rows": result.n_ingested,
            "serve.io_service_sim_s": result.io_service_ns / 1e9,
            "serve.compute_sim_s": result.compute_ns / 1e9,
            "serve.query_p50_sim_us": pct["p50"] / 1e3,
            "serve.query_p99_sim_us": pct["p99"] / 1e3,
            "serve.query_p999_sim_us": pct["p999"] / 1e3,
            **_resilience_counts(obs), **_memory_counts(manager),
        }
        return Outcome(
            [t1 - t0], t2 - t1, result.sim_seconds,
            digest(result.assignments, result.centroids, result.n_batches,
                   result.sim_seconds),
            arrivals, unanswered, counts,
        )

    def check(self, outcome: Outcome) -> list[str]:
        r = self.result
        problems = []
        answered = r.assignments[r.assignments >= 0]
        if answered.size and answered.max() >= K:
            problems.append("an answer names a cluster that does not exist")
        if int(r.counts.sum()) != int(self.fit_counts.sum()) + r.n_ingested:
            problems.append("ingested rows are missing from the model counts")
        return problems


WORKLOADS = {
    w.name: w for w in (KnordWorkload, KnorsWorkload, ServeWorkload)
}


def layer_metrics(tracer: spans.Tracer) -> dict:
    """Per-layer wall and count metrics of one traced repetition."""
    self_t = spans.self_time_by(tracer.spans, lambda sp: sp.layer)
    by_name = spans.self_time_by(tracer.spans, lambda sp: sp.name)
    c = tracer.counts
    m = {f"{layer}.wall_s": self_t.get(layer, 0.0) for layer in LAYERS}
    m["sem.fetch_wall_s"] = sum(by_name.get(n, 0.0) for n in spans.SEM_FETCH)
    m["sem.cache_wall_s"] = sum(by_name.get(n, 0.0) for n in spans.SEM_CACHE)
    m["core.calls"] = sum(1 for sp in tracer.spans if sp.layer == "core")
    m["core.dist_computations"] = c["core.dist_computations"]
    slots = c["core.row_slots"] * K
    m["core.pruned_frac"] = 1.0 - c["core.dist_computations"] / slots if slots else 0.0
    m["sched.tasks"] = c["sched.tasks"]
    for key in ("calls", "span_sim_s", "barrier_sim_s", "reduction_sim_s",
                "steals"):
        m[f"simhw.{key}"] = c[f"simhw.{key}"]
    calls = c["simhw.calls"]
    m["simhw.busy_fraction"] = c["simhw.busy_sum"] / calls if calls else 0.0
    for key in ("rows_needed", "pages_from_ssd", "bytes_read", "io_requests",
                "io_service_sim_s"):
        m[f"sem.{key}"] = c[f"sem.{key}"]
    needed, pages = c["sem.rows_needed"], c["sem.pages_needed"]
    m["sem.row_cache_hit_ratio"] = c["sem.row_cache_hits"] / needed if needed else 0.0
    m["sem.page_cache_hit_ratio"] = c["sem.page_cache_hits"] / pages if pages else 0.0
    m["dist.collectives"] = c["dist.collectives"]
    return m
