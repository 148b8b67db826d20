"""Golden digests pinning knori, knors and MM-plane results and event
streams.

Each case runs one driver configuration (or one registered MM
algorithm on one backend, through
:func:`~repro.extensions.run_algorithm`) and hashes two things:

* ``result`` -- the full :class:`~repro.metrics.RunResult`: algorithm,
  params, memory breakdown, iterations, convergence, every field of
  every iteration record, the centroid and assignment bytes and the
  inertia;
* ``events`` -- the :class:`~repro.runtime.RecordingObserver` stream,
  without the memory manager's alloc/free/spill events (those count
  interpreter buffers, not the simulated run).

GMM cases hash a third digest, ``model``: the fitted means, variances,
weights, responsibilities, log-likelihood history, iterations and
convergence flag, which :func:`~repro.extensions.gmm_em` returns as a
:class:`~repro.extensions.GmmResult`.

Serve cases run one :class:`~repro.serve.ServePlane` over a seeded
arrival stream and hash the whole :class:`~repro.serve.ServeResult`
(assignments, centroids, counts, ``latency_ns``, every counter and
percentile) as ``result``, the observer stream as ``events``, and as
``io`` every field of each batch's
:class:`~repro.sem.flashgraph.IoIterationStats`.

Trace cases hash the text a :class:`~repro.runtime.PrintObserver`
writes -- the CLI's ``--trace`` output -- as ``trace``, for a faulted
knors run with checkpoints, a faulted knord run and a faulted serve
run.

CLI cases run ``repro-kmeans`` commands through :func:`repro.cli.main`
and hash, per command, its exit code, stdout, stderr and ``--json``
file: every substrate with k-means and an MM algorithm, ``--trace``
with faults, retry policies and elastic plans, the autoscaler,
``--tenants``, the memory managers, checkpoint resume and serve.

Floats hash by their exact hex form, so any change in the last bit of a
centroid or a simulated time shows. Checkpoint paths are replaced by a
placeholder so the digests do not depend on the temporary directory.

The digests live in ``tests/data/driver_golden.json``. Regenerate them
only for a change that is meant to alter results::

    PYTHONPATH=src python tests/test_driver_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import ConvergenceCriteria, knord, knori, knors
from repro.data import write_matrix
from repro.baselines import minibatch_kmeans
from repro.cli import main as cli_main
from repro.extensions import (
    MM_ALGORITHMS,
    gmm_em,
    run_algorithm,
    semisupervised_kmeanspp,
    spherical_kmeans,
    yinyang_kmeans,
)
from repro.extensions.gmm import GmmMM
from repro.faults import FaultEvent, FaultPlan, FaultSpec, parse_fault_spec
from repro.runtime import PrintObserver, RecordingObserver
from repro.serve import ServePlane
from repro.simhw import ArrivalProcess

GOLDEN = Path(__file__).parent / "data" / "driver_golden.json"
K = 6
CRIT = ConvergenceCriteria(max_iters=10)
#: Memory-manager events: they count interpreter buffers, which a
#: refactor may legitimately allocate in a different order.
MANAGER_EVENTS = {"alloc", "free", "spill"}


def dataset(d: int = 8) -> np.ndarray:
    rng = np.random.default_rng(19)
    centers = rng.normal(scale=3.0, size=(8, d))
    x = np.vstack(
        [rng.normal(loc=c, scale=1.8, size=(250, d)) for c in centers]
    )
    rng.shuffle(x)
    return x


def _canon(value, tmp: str):
    """A JSON-stable, bit-exact form of ``value``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return [str(arr.dtype), list(arr.shape),
                hashlib.sha256(arr.tobytes()).hexdigest()]
    if isinstance(value, dict):
        return {str(k): _canon(v, tmp) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v, tmp) for v in value]
    if value is None:
        return None
    return str(value).replace(tmp, "<tmp>")


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def labels_for(x: np.ndarray) -> np.ndarray:
    """Sparse semisupervised labels: every 40th row, classes cycling."""
    n = x.shape[0]
    labels = np.full(n, -1)
    labels[::40] = np.arange(n)[::40] % K
    return labels


def gmm_model_digest(means, variances, weights, resp, ll_history,
                     iterations, converged) -> str:
    """The fitted GMM beyond what a :class:`RunResult` carries."""
    return _sha(_canon({
        "means": means, "variances": variances, "weights": weights,
        "resp": resp, "ll_history": list(ll_history),
        "iterations": iterations, "converged": converged,
    }, ""))


def digest(result, rec: RecordingObserver, tmp: str) -> dict[str, str]:
    res = {
        "algorithm": result.algorithm,
        "params": result.params,
        "memory_breakdown": result.memory_breakdown,
        "iterations": result.iterations,
        "converged": result.converged,
        "records": [dataclasses.asdict(r) for r in result.records],
        "centroids": result.centroids,
        "assignment": result.assignment,
        "inertia": result.inertia,
    }
    events = [
        [e.name, e.iteration, e.payload]
        for e in rec.events if e.name not in MANAGER_EVENTS
    ]
    return {
        "result": _sha(_canon(res, tmp)),
        "events": _sha(_canon(events, tmp)),
    }


# -- the grid -------------------------------------------------------------


def _knori_case(pruning, kernel, mem):
    def run(x, path, tmp):
        rec = RecordingObserver()
        res = knori(x, K, pruning=pruning, kernel=kernel, mem=mem,
                    seed=1, criteria=CRIT, observers=[rec])
        return [digest(res, rec, tmp)]
    return run


def _knori_faults(x, path, tmp):
    plan = FaultPlan(FaultSpec(), schedule=[
        FaultEvent(site="straggler", iteration=1, kind="slow", machine=2),
        FaultEvent(site="worker", iteration=3, kind="crash"),
    ])
    rec = RecordingObserver()
    res = knori(x, K, seed=1, criteria=CRIT, faults=plan, observers=[rec])
    return [digest(res, rec, tmp)]


def _knors_case(pruning, io_mode):
    def run(x, path, tmp):
        rec = RecordingObserver()
        res = knors(path, K, pruning=pruning, io_mode=io_mode, seed=1,
                    criteria=CRIT, observers=[rec])
        return [digest(res, rec, tmp)]
    return run


def _knors_resume(x, path, tmp):
    ckpt = Path(tmp) / "ckpt-resume"
    out = []
    for iters, resume in ((4, False), (9, True)):
        rec = RecordingObserver()
        res = knors(path, K, seed=1, observers=[rec],
                    criteria=ConvergenceCriteria(max_iters=iters),
                    checkpoint_dir=ckpt, checkpoint_interval=2,
                    resume=resume)
        out.append(digest(res, rec, tmp))
    return out


def _knors_faults(x, path, tmp):
    plan = FaultPlan(
        parse_fault_spec("ssd_error=0.05,corrupt_page=0.1,corrupt_cache=0.3"),
        seed=1,
        schedule=[FaultEvent(site="checkpoint", iteration=3,
                             kind="arrays-written")],
    )
    rec = RecordingObserver()
    res = knors(path, K, seed=1, criteria=CRIT, faults=plan,
                observers=[rec], checkpoint_dir=Path(tmp) / "ckpt-faults",
                checkpoint_interval=2)
    return [digest(res, rec, tmp)]


#: Constructor arguments of each registered MM algorithm's golden
#: cases; the standalone wrappers take the same ones.
MM_KWARGS = {
    "kmeans": {"seed": 1, "criteria": CRIT},
    "gmm": {"seed": 1, "max_iters": 10},
    "spherical": {"seed": 1, "criteria": CRIT},
    "semisupervised": {"seed": 1, "criteria": CRIT},
    "yinyang": {"t": 2, "seed": 1, "criteria": CRIT},
    "minibatch": {"batch_size": 256, "n_steps": 10, "seed": 1},
}
MM_BACKENDS = ("inmemory", "sem", "distributed")


def _mm_case(name, backend):
    def run(x, path, tmp):
        built = []

        def build(*args, **kwargs):
            built.append(GmmMM(*args, **kwargs))
            return built[-1]

        rec = RecordingObserver()
        labels = labels_for(x) if name == "semisupervised" else None
        with mock.patch.dict(MM_ALGORITHMS, {"gmm": build}):
            res = run_algorithm(
                name, x, K, backend=backend, labels=labels,
                algorithm_kwargs=MM_KWARGS[name], observers=[rec],
            )
        out = digest(res, rec, tmp)
        if built:
            (alg,) = built
            out["model"] = gmm_model_digest(
                alg.means, alg.variances, alg.weights, alg.resp,
                alg.ll_history, res.iterations, res.converged,
            )
        return [out]
    return run


class _IoLog(RecordingObserver):
    """A recording observer that also keeps every batch's full
    :class:`~repro.sem.flashgraph.IoIterationStats`."""

    def __init__(self) -> None:
        super().__init__()
        self.io: list[dict] = []

    def on_io(self, iteration, io):
        super().on_io(iteration, io)
        self.io.append(dataclasses.asdict(io))


#: Serve traffic: a fast stream so the window coalesces several rows
#: per batch, a fifth of them ingest.
SERVE_TRAFFIC = dict(n_arrivals=1200, rate_qps=200_000.0, seed=5,
                     skew=3.0, ingest_fraction=0.2)
SERVE_FAULTS = "ssd_error=0.1,corrupt_page=0.2,corrupt_cache=0.3"


def _serve(x, observer, traffic=None, faults=None, **plane_kw):
    """Fit a model on ``x`` and serve the golden traffic against it."""
    fit = knori(x, K, seed=1, criteria=ConvergenceCriteria(max_iters=4))
    counts = np.bincount(fit.assignment, minlength=K)
    plan = (None if faults is None
            else FaultPlan(parse_fault_spec(faults), seed=1))
    plane = ServePlane(x, fit.centroids, counts=counts, faults=plan,
                       observers=[observer], **plane_kw)
    return plane.serve(ArrivalProcess(**{**SERVE_TRAFFIC,
                                         **(traffic or {})}))


def _serve_case(d=8, **serve_kw):
    def run(x, path, tmp):
        if d != x.shape[1]:
            x = dataset(d)
        rec = _IoLog()
        res = _serve(x, rec, **serve_kw)
        fields = {f.name: getattr(res, f.name)
                  for f in dataclasses.fields(res)}
        events = [
            [e.name, e.iteration, e.payload]
            for e in rec.events if e.name not in MANAGER_EVENTS
        ]
        return [{
            "result": _sha(_canon(fields, tmp)),
            "events": _sha(_canon(events, tmp)),
            "io": _sha(_canon(rec.io, tmp)),
        }]
    return run


SERVE_CASES = {
    "serve-default": _serve_case(),
    # Two 4 KB pages against a 32-page matrix: nearly every batch evicts.
    "serve-evicting-page-cache": _serve_case(page_cache_bytes=2 * 4096),
    "serve-faults": _serve_case(faults=SERVE_FAULTS),
    "serve-ingest-0": _serve_case(traffic={"ingest_fraction": 0.0}),
    "serve-ingest-0.5": _serve_case(traffic={"ingest_fraction": 0.5}),
    "serve-max-batch-1": _serve_case(max_batch=1),
    # A burst fast enough that batches reach the 256-row cap.
    "serve-max-batch-256": _serve_case(
        max_batch=256, traffic={"rate_qps": 2e8}),
    "serve-gemm": _serve_case(kernel="gemm"),
    # 192-byte rows: some rows span two 4 KB pages.
    "serve-d24": _serve_case(d=24),
}


def _trace_case(run):
    """Hash the ``--trace`` text of one run, checkpoint paths replaced."""
    def case(x, path, tmp):
        out = io.StringIO()
        run(x, path, tmp, PrintObserver(out))
        text = out.getvalue().replace(tmp, "<tmp>")
        return [{"trace": hashlib.sha256(text.encode()).hexdigest()}]
    return case


def _trace_knors(x, path, tmp, observer):
    # No page cache, so every iteration reads the SSD and can fail.
    plan = FaultPlan(parse_fault_spec(
        "ssd_error=0.3,corrupt_page=0.2,corrupt_cache=0.5,max_corruptions=4"
    ), seed=1)
    knors(path, K, seed=1, criteria=CRIT, faults=plan, observers=[observer],
          page_cache_bytes=0, checkpoint_dir=Path(tmp) / "ckpt-trace",
          checkpoint_interval=2)


def _trace_knord(x, path, tmp, observer):
    plan = FaultPlan(parse_fault_spec(
        "node_fail=0.3,msg_drop=0.2,corrupt_msg=0.2"), seed=1)
    knord(x, K, seed=1, criteria=CRIT, faults=plan, observers=[observer])


def _trace_serve(x, path, tmp, observer):
    _serve(x, observer, faults=SERVE_FAULTS)


TRACE_CASES = {
    "trace-knors-faults-checkpoint": _trace_case(_trace_knors),
    "trace-knord-faults": _trace_case(_trace_knord),
    "trace-serve-faults": _trace_case(_trace_serve),
}


def _cli_case(*commands):
    """Run ``repro-kmeans`` commands in turn and hash, for each, its
    exit code, stdout, stderr and ``--json`` file, tmp paths replaced.
    ``{matrix}`` and ``{tmp}`` in a command name the golden matrix and
    the case's temporary directory."""
    def case(x, path, tmp):
        out = []
        for command in commands:
            report = Path(tmp) / "cli.json"
            argv = command.format(matrix=path, tmp=tmp).split()
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli_main(argv + ["--json", str(report)])
            texts = {
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "json": report.read_text() if report.exists() else "",
            }
            report.unlink(missing_ok=True)
            out.append({"code": str(code), **{
                key: hashlib.sha256(
                    text.replace(tmp, "<tmp>").encode()).hexdigest()
                for key, text in texts.items()
            }})
        return out
    return case


CLI = "{matrix} -k 6 --seed 1 --max-iters 10"
#: The CLI's flag combinations: each substrate with k-means and an MM
#: algorithm, faults and retry policies under --trace, elastic plans,
#: the autoscaler, tenants, memory managers, checkpoint resume, serve.
CLI_CASES = {
    "cli-knori-kmeans": _cli_case(f"knori {CLI} --quality"),
    "cli-knori-gmm": _cli_case(
        "knori {matrix} -k 6 --seed 1 --max-iters 6 --algorithm gmm "
        "--quality"),
    "cli-knors-kmeans": _cli_case(f"knors {CLI} --quality"),
    "cli-knors-minibatch": _cli_case(
        f"knors {CLI} --algorithm minibatch --batch-size 256 --quality"),
    "cli-knord-kmeans": _cli_case(f"knord {CLI} --machines 3 --quality"),
    "cli-knord-spherical": _cli_case(
        f"knord {CLI} --machines 3 --algorithm spherical --quality"),
    "cli-knord-elkan-rejected": _cli_case(f"knord {CLI} --pruning elkan"),
    "cli-knors-trace-faults": _cli_case(
        f"knors {CLI} --page-cache-bytes 0 --trace --faults "
        "ssd_error=0.3,corrupt_page=0.2,worker_crash=0.1 --fault-seed 2 "
        "--retry-policy retries=5,backoff_ms=2"),
    "cli-knord-trace-faults": _cli_case(
        f"knord {CLI} --machines 3 --trace --faults "
        "node_fail=0.2,msg_drop=0.3,corrupt_msg=0.3 --fault-seed 3 "
        "--retry-policy retries=6,timeout_ms=1"),
    "cli-knori-gmm-trace-faults": _cli_case(
        "knori {matrix} -k 6 --seed 1 --max-iters 6 --algorithm gmm "
        "--trace --faults worker_crash=0.2,straggler=0.3 --fault-seed 1"),
    "cli-knori-elastic": _cli_case(
        f"knori {CLI} --trace --elastic-plan preempt=0.3,preempt_notice=0 "
        "--elastic-seed 1"),
    "cli-knors-elastic": _cli_case(
        f"knors {CLI} --trace --checkpoint-dir {{tmp}}/ckpt-elastic "
        "--checkpoint-interval 3 --elastic-plan "
        "preempt=0.3,preempt_notice=2 --elastic-seed 2"),
    "cli-knord-elastic": _cli_case(
        f"knord {CLI} --machines 3 --trace --elastic-plan "
        "join=0.2,leave=0.2,preempt=0.2,preempt_notice=1 "
        "--elastic-seed 4"),
    "cli-knord-autoscale": _cli_case(
        f"knord {CLI} --machines 2 --trace --autoscale "
        "target_s=0.00001,provision_s=0.0001,max=4,warmup=1"),
    "cli-knord-tenants-faults": _cli_case(
        "knord {matrix} -k 6 --seed 1 --max-iters 8 --machines 2 --trace "
        "--tenants a=2,b=1 --faults msg_drop=0.3,corrupt_msg=0.3 "
        "--fault-seed 3"),
    "cli-knord-tenants-budget": _cli_case(
        f"knord {CLI} --machines 2 --mem arena --trace "
        "--tenants a=1,b=1@0.1"),
    "cli-knori-mem-arena": _cli_case(f"knori {CLI} --mem arena --trace"),
    "cli-knors-mem-budget": _cli_case(
        f"knors {CLI} --mem budget --mem-budget-mb 0.15 --trace"),
    "cli-knors-resume": _cli_case(
        "knors {matrix} -k 6 --seed 1 --max-iters 4 "
        "--checkpoint-dir {tmp}/ckpt --checkpoint-interval 2",
        "knors {matrix} -k 6 --seed 1 --max-iters 9 "
        "--checkpoint-dir {tmp}/ckpt --resume --trace"),
    "cli-serve": _cli_case(
        "serve {matrix} -k 6 --seed 1 --train-steps 5 --queries 1200 "
        "--qps 200000 --ingest-fraction 0.2 --trace"),
    "cli-serve-mem-budget": _cli_case(
        "serve {matrix} -k 6 --seed 1 --train-steps 5 --queries 1200 "
        "--qps 200000 --ingest-fraction 0.2 --mem budget "
        "--mem-budget-mb 0.13 --trace"),
}


CASES = {
    **{
        f"knori-{pruning}-{kernel}-{mem}": _knori_case(
            None if pruning == "none" else pruning, kernel, mem)
        for pruning in ("mti", "none", "elkan")
        for kernel in ("blocked", "gemm")
        for mem in ("numpy", "arena")
    },
    "knori-faults": _knori_faults,
    **{
        f"knors-{pruning}-{io_mode}": _knors_case(
            None if pruning == "none" else pruning, io_mode)
        for pruning in ("mti", "none")
        for io_mode in ("async", "sync")
    },
    "knors-checkpoint-resume": _knors_resume,
    "knors-faults-checkpoint-crash": _knors_faults,
    **{
        f"mm-{name}-{backend}": _mm_case(name, backend)
        for name in MM_KWARGS
        for backend in MM_BACKENDS
    },
    **SERVE_CASES,
    **TRACE_CASES,
    **CLI_CASES,
}


def run_case(name: str, tmp: Path) -> list[dict[str, str]]:
    x = dataset()
    path = tmp / "golden.knor"
    if not path.exists():
        write_matrix(path, x)
    return CASES[name](x, path, str(tmp))


# -- the test -------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_driver_matches_golden(name, golden, tmp_path):
    assert run_case(name, tmp_path) == golden[name]


#: The standalone entry points, each called with its golden case's
#: arguments.
WRAPPERS = {
    "spherical": lambda x: spherical_kmeans(x, K, **MM_KWARGS["spherical"]),
    "semisupervised": lambda x: semisupervised_kmeanspp(
        x, K, labels_for(x), **MM_KWARGS["semisupervised"]),
    "yinyang": lambda x: yinyang_kmeans(x, K, **MM_KWARGS["yinyang"]),
    "minibatch": lambda x: minibatch_kmeans(x, K, **MM_KWARGS["minibatch"]),
}


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_wrapper_matches_inmemory_golden(name, golden, tmp_path):
    res = WRAPPERS[name](dataset())
    got = digest(res, RecordingObserver(), str(tmp_path))["result"]
    assert got == golden[f"mm-{name}-inmemory"][0]["result"]


def test_gmm_em_matches_inmemory_golden(golden):
    r = gmm_em(dataset(), K, **MM_KWARGS["gmm"])
    got = gmm_model_digest(r.means, r.variances, r.weights,
                           r.responsibilities, r.ll_history,
                           r.iterations, r.converged)
    assert got == golden["mm-gmm-inmemory"][0]["model"]


def record() -> None:
    """Re-run every case and rewrite the golden file."""
    out = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = run_case(name, Path(tmp))
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(record())
