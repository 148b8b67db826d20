"""Whole-run benchmark of knord, knors and the serving plane.

Run one workload for one seed in this process and print its metrics::

    python3 perfbench/run.py --workload knord-rm856m --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` are used and
reports the end-to-end metrics (medians over the repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; the spans of the last traced repetition are written
to ``.perfbench_work/traces/``. ``--workload all`` runs every workload,
each in a fresh process, and exits non-zero when any is incorrect.
``--record`` runs one repetition, checks it against the reference and
stores its digest in ``golden.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory for the workloads and metrics.
"""

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def median(values):
    return statistics.median(values) if values else 0.0


class HostSpeed:
    """How fast the host runs right now, relative to the reference box.

    On a shared host the CPU speed drifts by tens of percent over tens
    of seconds as neighbouring tenants come and go, in and between
    processes. A fixed calibration loop -- interpreter work and numpy
    calls like the workloads', never the program under test -- is timed
    before and after every repetition, and the repetition's wall-clock
    figures are scaled by ``REFERENCE_S`` over the calibration time
    around it. A slow stretch of the host then does not read as a slow
    program, while a slower program still does.
    """

    #: The calibration's median time on the development box at rest.
    REFERENCE_S = 0.028

    def __init__(self) -> None:
        import numpy as np

        # Small, preallocated buffers: the loop must not disturb the
        # workload's heap (and so its peak RSS).
        rng = np.random.default_rng(0)
        self._x = rng.random((4096, 16))
        self._ct = rng.random((16, 16))
        self._dist = np.empty((4096, 16))

    def _once(self) -> float:
        import numpy as np

        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i % 7
        table = {}
        for i in range(10000):
            table[i] = i
        a = np.arange(2048.0)
        for _ in range(400):
            a = np.sqrt(a + 1.0)
        for _ in range(64):
            np.matmul(self._x, self._ct, out=self._dist)
            self._dist.argmin(axis=1)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of five calibration loops, in seconds."""
        return statistics.median(self._once() for _ in range(5))


class Runner:
    """Repeats one workload, judges every repetition, keeps the figures."""

    def __init__(self, bench, golden: str | None, trace: bool) -> None:
        self.bench = bench
        self.golden = golden
        self.trace = trace
        self.outcomes = []
        self.reference = None
        self.problems: list[str] = []
        self.last_tracer = None
        self.spent = 0.0
        self.host = HostSpeed()

    def judge(self, out) -> None:
        if out.error is not None:
            self.problems.append(out.error)
            return
        ref = self.reference
        if ref is None:
            found = self.bench.check(out)
            if self.golden is not None and out.digest != self.golden:
                found.append(f"digest {out.digest} != golden {self.golden}")
            if not found:
                self.reference = out
        elif out.digest != ref.digest or out.counts != ref.counts:
            found = ["a repetition differs from the first one"]
        else:
            found = []
        if found:
            self.problems.extend(found)
            out.failed = out.attempted

    def run_once(self, traced: bool):
        import spans
        import workloads

        tracer = None
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
        # The previous repetition's cyclic garbage would otherwise be
        # freed at a timing-dependent point and move the peak RSS.
        gc.collect()
        start = time.perf_counter()
        try:
            out = self.bench.run(tracer)
        finally:
            self.spent += time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            out.layers = workloads.layer_metrics(tracer)
            self.last_tracer = tracer
        self.judge(out)
        self.outcomes.append(out)
        return out

    def measure(self, seconds: float) -> None:
        """Repeat until the repetitions (not the one-off reference
        check) have used ``seconds``. The first repetition is the
        warm-up: it pays the one-off costs (lazy imports, fresh memory
        pages) and is checked but not timed."""
        min_reps = 3 if self.trace else 4
        before = self.host.measure()
        while True:
            out = self.run_once(self.trace and len(self.outcomes) % 2 == 1)
            after = self.host.measure()
            out.scale = HostSpeed.REFERENCE_S / ((before + after) / 2)
            before = after
            per_rep = self.spent / len(self.outcomes)
            if len(self.outcomes) >= min_reps and self.spent + per_rep > seconds:
                return

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def timed(self, traced: bool | None = None) -> list:
        """Correct repetitions after the warm-up."""
        return [o for o in self.outcomes[1:] if o.failed == 0
                and o.error is None
                and (traced is None or bool(o.layers) == traced)]

    def end_to_end(self) -> dict:
        good = self.timed()
        ref = self.reference
        return {
            "wall_s": median([o.wall_s * o.scale for o in good]),
            "setup_s": median([t * o.scale for o in good for t in o.setup_s]),
            "sim_s": ref.sim_s if ref is not None else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }

    def per_layer(self) -> dict:
        import workloads

        traced, plain = self.timed(True), self.timed(False)
        ref = self.reference
        out = {}
        for name in workloads.PER_LAYER:
            if name.endswith("wall_s"):
                out[name] = median([o.layers[name] * o.scale for o in traced])
            elif traced and name in traced[-1].layers:
                out[name] = traced[-1].layers[name]
            elif ref is not None:
                out[name] = ref.counts.get(name, 0)
            else:
                out[name] = 0
        out["trace.overhead_s"] = (
            median([o.wall_s * o.scale for o in traced])
            - median([o.wall_s * o.scale for o in plain])
        )
        return out


def emit(name: str, runner: Runner, metrics: dict, units: dict) -> None:
    print(f"# {name}: {len(runner.outcomes)} repetitions "
          f"(the first is the warm-up), {len(runner.problems)} problems")
    print("# wall time per repetition, s (host-speed scale; t = traced): "
          + " ".join(f"{o.wall_s:.4f}({o.scale:.3f}){'t' if o.layers else ''}"
                     for o in runner.outcomes))
    if runner.timed(False):
        unscaled = median([o.wall_s for o in runner.timed(False)])
        print(f"# unscaled untraced wall time, median: {unscaled:.6g} s")
    for problem in dict.fromkeys(runner.problems):
        print(f"# problem: {problem}")
    for key, value in metrics.items():
        print(f"{name}  {key} = {value:.6g} {units[key]}")
    attempted = runner.attempted
    print(f"{name}  error_rate = {runner.failed / max(attempted, 1):.6g} "
          f"({runner.failed} of {attempted} failed)")
    if runner.reference is not None and not runner.trace:
        for key, value in runner.reference.counts.items():
            if key.startswith("serve.query_"):
                print(f"{name}  {key} = {value:.6g} us")
    result = {
        "correct": not runner.problems and runner.reference is not None,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload, each in a fresh process; non-zero if any fails."""
    status = 0
    import workloads

    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"# {name}: FAILED")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    load_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    expected = golden.get(args.workload, {}).get(str(args.seed))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cls = workloads.WORKLOADS[args.workload]
        bench = cls(args.seed, workdir)
        if args.record:
            return record(bench, golden, args)
        runner = Runner(bench, expected, bool(args.trace))
        runner.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units = runner.per_layer(), workloads.PER_LAYER
        if runner.last_tracer is not None:
            runner.last_tracer.write_jsonl(
                WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, units = runner.end_to_end(), workloads.END_TO_END
    if expected is None:
        print(f"# no golden digest for seed {args.seed}; checked against "
              "the reference run only")
    emit(args.workload, runner, metrics, units)
    return 0


def record(bench, golden: dict, args) -> int:
    runner = Runner(bench, None, False)
    out = runner.run_once(False)
    if runner.problems:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    golden.setdefault(args.workload, {})[str(args.seed)] = out.digest
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed {args.seed}: {out.digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
