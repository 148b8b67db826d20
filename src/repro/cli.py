"""Command-line interface: ``repro-kmeans``.

Mirrors the knor binaries' usage: generate datasets in the binary
matrix layout, inspect them, and run the three modules against them.

Examples
--------
Generate a scaled Friendster-8 and cluster it in memory::

    repro-kmeans gen --dataset friendster-8 --n 65536 -o fr8.knor
    repro-kmeans knori fr8.knor -k 10 --threads 48

Semi-external run with checkpointing::

    repro-kmeans knors fr8.knor -k 10 --checkpoint-dir ckpt/

Distributed run on a simulated 8-machine cluster::

    repro-kmeans knord fr8.knor -k 10 --machines 8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import ConvergenceCriteria, knord, knori, knors
from repro.data import (
    DATASETS,
    MatrixFile,
    load_dataset,
    write_matrix,
)
from repro.errors import KnorError
from repro.metrics import RunResult


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every command that runs a model: the batch
    commands and serve."""
    from repro.faults import FAULT_SPEC_KEYS, RETRY_POLICY_KEYS

    parser.add_argument("matrix", help="input .knor matrix file")
    parser.add_argument("-k", type=int, required=True,
                        help="number of clusters")
    parser.add_argument("--init", default="random",
                        help="random|forgy|kmeans++|kmeans|| "
                        "(default: random)")
    parser.add_argument("--seed", type=int, default=0,
                        help="model seed (init and sampling)")
    parser.add_argument(
        "--kernel", choices=["blocked", "gemm"], default="blocked",
        help="distance kernel strategy: blocked (default, bit-exact "
        "reference) or gemm (norm-caching GEMM expansion; identical "
        "assignments, ULP-equivalent distances; kmeans and minibatch "
        "algorithms only)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the run's record as JSON (batch commands: timings "
        "and counters; serve: the latency/IO rollup)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="stream runtime trace events (iterations, I/O, "
        "collectives, serve batches) to stderr",
    )
    # Key lists come from the parsers themselves so the help text can
    # never drift from what --faults/--retry-policy actually accept.
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject seeded faults, e.g. "
        "'ssd_error=0.1,worker_crash=0.05,corrupt_page=0.05' "
        f"(keys: {', '.join(FAULT_SPEC_KEYS)})",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault-stream seed; the same seed reproduces the same "
        "fault trace byte-for-byte (default: 0)",
    )
    parser.add_argument(
        "--retry-policy", default=None, metavar="SPEC",
        help="recovery tuning, e.g. "
        "'retries=5,backoff_ms=4,node_failure=abort' "
        f"(keys: {', '.join(RETRY_POLICY_KEYS)})",
    )
    parser.add_argument(
        "--mem", choices=["numpy", "arena", "budget"], default="numpy",
        help="memory manager for workspace/cache/staging buffers: "
        "numpy (default behavior), arena (pooled reuse across "
        "iterations), or budget (hard byte cap with simulated-SSD "
        "spill; needs --mem-budget-mb). Results are bit-identical "
        "across managers",
    )
    parser.add_argument(
        "--mem-budget-mb", type=float, default=None, metavar="MB",
        help="byte cap for --mem budget, in MiB; exceeding it spills "
        "cold buffers to simulated SSD (charged simulated time) or "
        "fails with a MemoryBudgetError rather than growing silently",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags of the batch commands: knori, knors and knord."""
    from repro.elastic import MEMBERSHIP_SPEC_KEYS

    _add_run_flags(parser)
    parser.add_argument(
        "--pruning", choices=["mti", "elkan", "none"], default="mti",
        help="pruning mode (default: mti; 'none' = the paper's "
        "minus variants)",
    )
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write centroids/assignment to this .npz path",
    )
    parser.add_argument(
        "--quality", action="store_true",
        help="also report silhouette and Davies-Bouldin indices",
    )
    parser.add_argument(
        "--empty-cluster", choices=["drop", "reseed", "error"],
        default="drop",
        help="policy when a cluster loses all members: keep the "
        "previous centroid (drop, default), reseed from the farthest "
        "point (unpruned only), or abort (error)",
    )
    parser.add_argument(
        "--elastic-plan", default=None, metavar="SPEC",
        help="seeded membership churn, e.g. "
        "'join=0.1,leave=0.05,preempt=0.1,preempt_notice=2' "
        f"(keys: {', '.join(MEMBERSHIP_SPEC_KEYS)}). knord honors "
        "every event; knori/knors are single-machine, so only "
        "preemptions apply (notice flushes a checkpoint when the "
        "backend has one). Results stay bit-identical to the fixed "
        "run",
    )
    parser.add_argument(
        "--elastic-seed", type=int, default=0,
        help="membership-stream seed; the same seed reproduces the "
        "same churn trace byte-for-byte (default: 0)",
    )
    parser.add_argument(
        "--algorithm",
        choices=["kmeans", "gmm", "spherical", "semisupervised",
                 "yinyang", "minibatch"],
        default="kmeans",
        help="MM algorithm to run on this backend (default: kmeans, "
        "which uses the classic driver path; anything else rides the "
        "MM plane and ignores --pruning/--empty-cluster)",
    )
    parser.add_argument(
        "--labels", type=Path, default=None, metavar="NPY",
        help="length-n .npy label array for --algorithm "
        "semisupervised (ints in [0, k), -1 = unlabeled)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=1024,
        help="rows sampled per step for --algorithm minibatch "
        "(default: 1024)",
    )


def _pruning(value: str) -> str | None:
    return None if value == "none" else value


def _run_env(args: argparse.Namespace, budget_mb: float | None = None):
    """One run's :class:`~repro.runtime.RunEnv` from the command's flags.

    The trace observers are built once per command and shared by its
    runs, so ``[resilience]`` counts every run. Fault and membership
    plans are stateful (they consume RNG streams and scheduled
    events), so every run -- every tenant -- gets fresh ones, and its
    own memory manager: ``--mem``'s, or a budget of ``budget_mb`` MiB
    (a tenant's ``@budget_mb``). ``RunEnv.resolve`` attaches the
    observers to that manager, so a tenant's memory events are traced
    too. The env is handed to the library as keywords; the CLI keeps
    the manager to print its counters.
    """
    from repro.elastic import (
        Autoscaler,
        MembershipPlan,
        parse_autoscaler,
        parse_membership_spec,
    )
    from repro.faults import FaultPlan, parse_fault_spec, parse_retry_policy
    from repro.metrics import ResilienceObserver
    from repro.runtime import PrintObserver, RunEnv

    if not hasattr(args, "observers"):
        args.resilience = ResilienceObserver() if args.trace else None
        args.observers = (
            (PrintObserver(), args.resilience) if args.trace else ()
        )

    def given(text, build):
        return None if text is None else build(text)

    if budget_mb is None:
        mem, budget_mb = args.mem, args.mem_budget_mb
    else:
        mem = "budget"
    return RunEnv.resolve(
        observers=args.observers,
        faults=given(args.faults, lambda text: FaultPlan(
            parse_fault_spec(text), seed=args.fault_seed)),
        retry_policy=given(args.retry_policy, parse_retry_policy),
        membership=given(getattr(args, "elastic_plan", None),
                         lambda text: MembershipPlan(
                             parse_membership_spec(text),
                             seed=args.elastic_seed)),
        autoscaler=given(getattr(args, "autoscale", None),
                         lambda text: Autoscaler(parse_autoscaler(text))),
        # --mem numpy without a budget keeps the drivers' default.
        mem=None if mem == "numpy" and budget_mb is None else mem,
        mem_budget_bytes=(
            None if budget_mb is None else int(budget_mb * 2**20)
        ),
    )


def _print_resilience(args: argparse.Namespace) -> None:
    """One ``[resilience]`` line on stderr under ``--trace``."""
    if args.resilience is None:
        return
    c = args.resilience.counters
    line = (
        f"[resilience] faults={c.faults_injected} "
        f"recoveries={c.recoveries} retries={c.retries} "
        f"corruption_recall={c.detection_recall:.0%}"
    )
    if c.preempt_notices or c.scale_ups or c.scale_downs or c.reshards:
        line += (
            f" preempt_notices={c.preempt_notices} "
            f"scale_ups={c.scale_ups} scale_downs={c.scale_downs} "
            f"reshards={c.reshards}"
        )
    print(line, file=sys.stderr)


def _print_mem(manager) -> None:
    """One ``[mem]`` counters line on stderr (never in RunResult)."""
    if manager is None:
        return
    c = manager.counters()
    line = (
        f"[mem] {c.manager}: peak={c.peak_bytes / 1e6:.2f} MB "
        f"live={c.live_bytes / 1e6:.2f} MB allocs={c.n_allocs} "
        f"reuse={c.reuse_rate:.0%} backing={c.backing_allocs}"
    )
    if c.spill_count:
        line += (
            f" spills={c.spill_count} ({c.spill_bytes / 1e6:.1f} MB, "
            f"{c.spill_ns / 1e6:.2f} ms simulated)"
        )
    print(line, file=sys.stderr)


def cmd_gen(args: argparse.Namespace) -> int:
    """Generate a registry dataset into a .knor file."""
    x = load_dataset(args.dataset, n=args.n)
    path = write_matrix(args.output, x)
    print(
        f"wrote {args.dataset} (n={x.shape[0]}, d={x.shape[1]}, "
        f"{path.stat().st_size / 1e6:.1f} MB) to {path}"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Print a .knor file's header."""
    mf = MatrixFile(args.matrix)
    print(f"{args.matrix}: n={mf.n} d={mf.d} dtype={mf.dtype} "
          f"row_bytes={mf.row_bytes}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert a CSV/NPY matrix into the knor layout."""
    from repro.data import convert_to_knor

    path = convert_to_knor(
        args.src, args.output, fmt=args.format,
        delimiter=args.delimiter, skip_header=args.skip_header,
        allow_nonfinite=args.allow_nonfinite,
    )
    mf = MatrixFile(path)
    print(f"wrote {path}: n={mf.n} d={mf.d}")
    return 0


def _kmeans_kwargs(args: argparse.Namespace) -> dict:
    """The k-means driver flags every batch command shares."""
    return dict(
        pruning=_pruning(args.pruning), init=args.init, seed=args.seed,
        criteria=ConvergenceCriteria(max_iters=args.max_iters),
        empty_cluster=args.empty_cluster, kernel=args.kernel,
    )


def _run_mm(args: argparse.Namespace, x: np.ndarray, backend: str,
            **backend_kwargs) -> RunResult:
    """Route a non-kmeans ``--algorithm`` through the MM plane."""
    from repro.errors import ConfigError
    from repro.extensions import run_algorithm

    if args.kernel != "blocked" and args.algorithm != "minibatch":
        # Only the DistanceWorkspace-backed algorithms have a gemm
        # path; the rest would silently ignore the flag.
        raise ConfigError(
            f"--kernel={args.kernel} is supported for --algorithm kmeans "
            f"or minibatch, not {args.algorithm!r}"
        )
    labels = np.load(args.labels) if args.labels is not None else None
    algorithm_kwargs: dict = {"seed": args.seed}
    if args.algorithm == "minibatch":
        algorithm_kwargs["kernel"] = args.kernel
        algorithm_kwargs["batch_size"] = args.batch_size
    if args.algorithm != "semisupervised":
        # Semisupervised seeding is label-driven; no init method.
        algorithm_kwargs["init"] = args.init
    if args.algorithm == "gmm":
        algorithm_kwargs["max_iters"] = args.max_iters
    else:
        algorithm_kwargs["criteria"] = ConvergenceCriteria(
            max_iters=args.max_iters
        )
    return run_algorithm(
        args.algorithm, x, args.k,
        backend=backend,
        labels=labels,
        algorithm_kwargs=algorithm_kwargs,
        **backend_kwargs,
    )


def _run(args: argparse.Namespace, driver, backend: str,
         plans: tuple[str, ...], **substrate) -> int:
    """Run one batch command and report it.

    ``--algorithm kmeans`` runs ``driver``, any other algorithm the MM
    plane's ``backend``, each given the run env's observers, manager
    and the ``plans`` the driver takes, plus the ``substrate`` flags.
    """
    env = _run_env(args)
    kwargs = dict(
        observers=env.observers, mem=env.manager,
        **{name: getattr(env, name) for name in plans}, **substrate,
    )
    # knors streams its rows from the file; every other run reads them.
    streamed = driver is knors and args.algorithm == "kmeans"
    x = None if streamed else MatrixFile(args.matrix).read_rows(None)
    if args.algorithm == "kmeans":
        result = driver(
            args.matrix if x is None else x, args.k,
            **_kmeans_kwargs(args), **kwargs,
        )
    else:
        result = _run_mm(args, x, backend, **kwargs)
    print(result.summary())
    sizes = result.cluster_sizes
    print(f"cluster sizes: min={sizes.min()} max={sizes.max()} "
          f"nonempty={int((sizes > 0).sum())}/{sizes.shape[0]}")
    if args.quality:
        from repro.metrics import davies_bouldin_index, silhouette_score

        if x is None:
            x = MatrixFile(args.matrix).read_rows(None)
        sil = silhouette_score(x, result.assignment)
        db = davies_bouldin_index(x, result.assignment)
        print(f"quality: silhouette={sil:.3f} davies-bouldin={db:.3f}")
    if args.json is not None:
        from repro.metrics import write_json

        write_json(args.json, result)
        print(f"wrote {args.json}")
    if args.out is not None:
        np.savez(
            args.out,
            centroids=result.centroids,
            assignment=result.assignment,
            inertia=result.inertia,
        )
        print(f"wrote {args.out}")
    _print_mem(env.manager)
    _print_resilience(args)
    if backend == "sem":
        print(
            f"I/O: requested {result.total_bytes_requested / 1e6:.1f} MB, "
            f"read {result.total_bytes_read / 1e6:.1f} MB from SSD"
        )
    return 0


def cmd_knori(args: argparse.Namespace) -> int:
    """Run in-memory clustering on a .knor matrix."""
    return _run(
        args, knori, "inmemory", ("faults", "membership"),
        n_threads=args.threads, scheduler=args.scheduler,
    )


def cmd_knors(args: argparse.Namespace) -> int:
    """Run semi-external clustering on a .knor matrix."""
    return _run(
        args, knors, "sem", ("faults", "retry_policy", "membership"),
        row_cache_bytes=args.row_cache_bytes,
        page_cache_bytes=args.page_cache_bytes,
        cache_update_interval=args.cache_interval,
        io_mode=args.io_mode,
        io_queue_depth=args.io_queue_depth,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        resume=args.resume,
    )


#: The run-environment plans knord (and each of its tenants) takes.
_KNORD_PLANS = ("faults", "retry_policy", "membership", "autoscaler")


def cmd_knord(args: argparse.Namespace) -> int:
    """Run distributed clustering on a .knor matrix."""
    if args.algorithm == "kmeans" and args.pruning == "elkan":
        raise KnorError("knord supports --pruning mti|none")
    if args.tenants is not None:
        return _run_tenants(args)
    return _run(
        args, knord, "distributed", _KNORD_PLANS,
        n_machines=args.machines, allreduce=args.allreduce,
    )


def _run_tenants(args: argparse.Namespace) -> int:
    """``knord --tenants``: fair-share several jobs over one cluster.

    Every tenant clusters the same matrix on its own time-slice of the
    simulated fleet; weights set the fair-share rate, ``@budget_mb``
    caps a tenant's resident bytes (overflow spills to simulated SSD).
    Each tenant runs under its own env (see :func:`_run_env`), so it
    sees the same deterministic fault and elastic trace it would see
    running alone.
    """
    from repro.drivers.knord import knord_loop
    from repro.elastic import FairShareScheduler, TenantJob, parse_tenants

    if args.algorithm != "kmeans":
        raise KnorError("--tenants supports --algorithm kmeans")
    specs = parse_tenants(args.tenants)
    x = MatrixFile(args.matrix).read_rows(None)
    jobs, finalizers = [], []
    for spec in specs:
        env = _run_env(args, spec.budget_mb)
        with env.use():
            loop, finalize = knord_loop(
                x, args.k,
                n_machines=args.machines, allreduce=args.allreduce,
                observers=env.observers,
                **{name: getattr(env, name) for name in _KNORD_PLANS},
                **_kmeans_kwargs(args),
            )
        jobs.append(TenantJob(spec, loop, manager=env.manager))
        finalizers.append((finalize, env.manager))
    outcomes = FairShareScheduler(jobs).run()
    code = 0
    for spec, (finalize, tenant_mgr) in zip(specs, finalizers):
        outcome = outcomes[spec.name]
        if outcome.error is not None:
            print(f"[{spec.name}] aborted: {outcome.error}",
                  file=sys.stderr)
            code = 2
            continue
        result = finalize(outcome.result)
        print(f"[{spec.name}] {result.summary()}")
        print(
            f"[{spec.name}] fair-share: weight={spec.weight:g} "
            f"boundaries={outcome.boundaries} "
            f"sim={outcome.sim_ns / 1e9:.4f}s"
        )
        _print_mem(tenant_mgr)
    _print_resilience(args)
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    """Fit a streaming model, then serve assignment queries under
    seeded open-loop traffic and report latency percentiles."""
    import json as _json

    from repro.runtime import run_mm_inmemory
    from repro.serve import MiniBatchMM, ServePlane
    from repro.simhw import ArrivalProcess

    env = _run_env(args)
    x = MatrixFile(args.matrix).read_rows(None)
    with env.use():
        # Construct under the manager so the training workspace binds
        # to it (run_mm_inmemory re-pushes it for the run itself).
        algorithm = MiniBatchMM(
            x, args.k,
            batch_size=args.batch_size,
            n_steps=args.train_steps,
            init=args.init,
            seed=args.seed,
            kernel=args.kernel,
        )
    fit = run_mm_inmemory(
        algorithm, observers=env.observers, mem=env.manager
    )
    print(fit.summary())

    plane = ServePlane(
        x, fit.centroids,
        counts=algorithm.counts,
        page_cache_bytes=args.page_cache_bytes,
        max_batch=args.max_batch,
        batch_window_ns=args.batch_window_us * 1e3,
        observers=env.observers,
        faults=env.faults,
        retry_policy=env.retry_policy,
        kernel=args.kernel,
        mem=env.manager,
    )
    result = plane.serve(ArrivalProcess(
        n_arrivals=args.queries,
        rate_qps=args.qps,
        seed=args.arrival_seed,
        skew=args.skew,
        ingest_fraction=args.ingest_fraction,
    ))
    p = result.percentiles
    print(
        f"served {result.n_queries} queries + {result.n_ingested} "
        f"ingests in {result.n_batches} batches "
        f"({result.sim_seconds:.4f} simulated s)"
    )
    print(
        f"query latency: p50={p['p50'] / 1e6:.3f}ms "
        f"p99={p['p99'] / 1e6:.3f}ms p999={p['p999'] / 1e6:.3f}ms"
    )
    print(
        f"I/O: {result.rows_requested} rows requested, "
        f"{result.bytes_read / 1e6:.1f} MB from SSD"
    )
    if args.json is not None:
        args.json.write_text(
            _json.dumps(result.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    if args.out is not None:
        np.savez(
            args.out,
            centroids=result.centroids,
            assignments=result.assignments,
            rows=result.rows,
            latency_ns=result.latency_ns,
        )
        print(f"wrote {args.out}")
    _print_mem(env.manager)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-kmeans argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-kmeans",
        description="knor-repro: NUMA-optimized k-means "
        "(in-memory / semi-external / distributed, simulated hardware)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a Table 2 dataset")
    gen.add_argument("--dataset", choices=sorted(DATASETS),
                     required=True)
    gen.add_argument("--n", type=int, default=None,
                     help="rows (default: registry's scaled default)")
    gen.add_argument("-o", "--output", type=Path, required=True)
    gen.set_defaults(func=cmd_gen)

    info = sub.add_parser("info", help="inspect a .knor matrix header")
    info.add_argument("matrix")
    info.set_defaults(func=cmd_info)

    conv = sub.add_parser(
        "convert", help="convert a CSV/NPY matrix to .knor"
    )
    conv.add_argument("src")
    conv.add_argument("-o", "--output", type=Path, required=True)
    conv.add_argument("--format", choices=["csv", "npy"], default=None,
                      help="inferred from suffix when omitted")
    conv.add_argument("--delimiter", default=",")
    conv.add_argument("--skip-header", type=int, default=0)
    conv.add_argument(
        "--allow-nonfinite", action="store_true",
        help="accept NaN/inf rows instead of rejecting the matrix",
    )
    conv.set_defaults(func=cmd_convert)

    im = sub.add_parser("knori", help="in-memory clustering")
    _add_common(im)
    im.add_argument("--threads", type=int, default=None)
    im.add_argument(
        "--scheduler", choices=["numa_aware", "fifo", "static"],
        default="numa_aware",
    )
    im.set_defaults(func=cmd_knori)

    sem = sub.add_parser("knors", help="semi-external-memory clustering")
    _add_common(sem)
    sem.add_argument("--row-cache-bytes", type=int, default=None)
    sem.add_argument("--page-cache-bytes", type=int, default=None)
    sem.add_argument("--cache-interval", type=int, default=5)
    sem.add_argument(
        "--sync-io", dest="io_mode", action="store_const",
        const="sync", default="async",
        help="serialized I/O accounting (max(span, service))",
    )
    sem.add_argument(
        "--async-io", dest="io_mode", action="store_const",
        const="async",
        help="async request queue + prefetcher (default)",
    )
    sem.add_argument(
        "--io-queue-depth", type=int, default=32,
        help="outstanding requests per SSD channel (async mode)",
    )
    sem.add_argument("--checkpoint-dir", type=Path, default=None)
    sem.add_argument("--checkpoint-interval", type=int, default=10)
    sem.add_argument("--resume", action="store_true")
    sem.set_defaults(func=cmd_knors)

    dist = sub.add_parser("knord", help="distributed clustering")
    _add_common(dist)
    dist.add_argument("--machines", type=int, default=4)
    dist.add_argument(
        "--allreduce", choices=["tree", "rect"], default="tree",
        help="collective schedule for the centroid reduction: tree "
        "(default, best of binomial-tree/ring) or rect "
        "(communication-avoiding rectangular schedule -- fewer, "
        "larger messages; wins when latency dominates). Results are "
        "bit-identical; only the modeled time/wire bytes differ",
    )
    from repro.elastic import AUTOSCALER_KEYS

    dist.add_argument(
        "--autoscale", default=None, metavar="SPEC",
        help="feedback autoscaler, e.g. "
        "'target_s=0.02,provision_s=30,max=8' "
        f"(keys: {', '.join(AUTOSCALER_KEYS)}). Watches the "
        "iteration-time EWMA, straggler flags and memory pressure; "
        "requested capacity joins only after provision_s simulated "
        "seconds. Results stay bit-identical to the fixed run",
    )
    dist.add_argument(
        "--tenants", default=None, metavar="SPEC",
        help="multi-tenant fair-share run: 'name=weight[@budget_mb]' "
        "pairs, e.g. 'prod=3,batch=1@512'. Each tenant clusters the "
        "matrix on its own time-slice; weights set the fair-share "
        "rate, @budget_mb caps resident bytes (overflow spills to "
        "simulated SSD)",
    )
    dist.set_defaults(func=cmd_knord)

    srv = sub.add_parser(
        "serve",
        help="streaming ingest + assignment queries under simulated "
        "open-loop user traffic",
    )
    _add_run_flags(srv)
    srv.add_argument(
        "--train-steps", type=int, default=50,
        help="mini-batch steps to fit the model before serving",
    )
    srv.add_argument(
        "--batch-size", type=int, default=1024,
        help="rows per training mini-batch (default: 1024)",
    )
    srv.add_argument(
        "--queries", type=int, default=100_000,
        help="arrivals in the traffic trace (default: 100000)",
    )
    srv.add_argument(
        "--qps", type=float, default=50_000.0,
        help="open-loop arrival rate, queries/simulated-second",
    )
    srv.add_argument(
        "--skew", type=float, default=3.0,
        help="row-popularity skew; higher concentrates traffic on "
        "hot rows (default: 3.0)",
    )
    srv.add_argument(
        "--ingest-fraction", type=float, default=0.0,
        help="fraction of arrivals that are streaming ingests folded "
        "into the centroids (default: 0 = query-only)",
    )
    srv.add_argument(
        "--arrival-seed", type=int, default=0,
        help="traffic seed; latency percentiles are a pure function "
        "of it (default: 0)",
    )
    srv.add_argument(
        "--max-batch", type=int, default=256,
        help="max concurrent queries per dispatch batch",
    )
    srv.add_argument(
        "--batch-window-us", type=float, default=50.0,
        help="batching window in simulated microseconds",
    )
    srv.add_argument("--page-cache-bytes", type=int, default=None)
    srv.add_argument(
        "--out", type=Path, default=None,
        help="write centroids/assignments/latencies to this .npz",
    )
    srv.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KnorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
