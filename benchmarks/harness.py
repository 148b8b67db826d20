"""One scaffold for the before/after benchmark scripts.

Each ``bench_*.py`` script measures its own sections and writes one
JSON file at the repo root; this module holds what they share:

* :func:`time_callable` -- best-of-N wall clock of one callable, and
  :func:`ba`, which times a before/after pair into the JSON fragment
  whose ``speedup`` key ``check_bench_regression.py`` gates;
* :func:`blobs` -- blobby data, so MTI prunes and iterations do work;
* :func:`parse_args`, :func:`meta` and :func:`write` -- the
  ``--quick``/``--out`` command line, the ``meta`` block and the JSON
  write.

Best-of is the standard estimator for CPU-bound microbenchmarks (the
minimum is the least contaminated by scheduler noise); the mean is
kept alongside for sanity. Importing this module puts the repo's
``src`` (for ``repro``) and its root (for ``tests.oracles``, the frozen
"before" code) on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]


def time_callable(
    fn: Callable[[], Any], *, label: str = "", repeats: int = 5
) -> dict[str, Any]:
    """Best-of-``repeats`` wall-clock timing of ``fn()``.

    One untimed pass runs first so one-time costs (lazy buffer growth,
    BLAS thread pools, page faults on fresh arrays) do not pollute the
    samples.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fn()
    samples: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "label": label,
        "best_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "repeats": repeats,
        "samples_s": samples,
    }


def ba(before_fn, after_fn, repeats, loops=1):
    """Time both sides and produce the before/after JSON fragment.

    Each sample times ``loops`` back-to-back calls (the fragment reports
    seconds per call), so a sub-millisecond call is sampled over long
    enough that the sample measures the code rather than the host.
    """

    def looped(fn):
        def run():
            for _ in range(loops):
                fn()
        return run

    before = time_callable(looped(before_fn), label="before", repeats=repeats)
    after = time_callable(looped(after_fn), label="after", repeats=repeats)
    out = {
        "before_s": before["best_s"],
        "after_s": after["best_s"],
        "before_mean_s": before["mean_s"],
        "after_mean_s": after["mean_s"],
        "speedup": (
            before["best_s"] / after["best_s"]
            if after["best_s"] > 0 else float("inf")
        ),
        "repeats": repeats,
    }
    if loops > 1:
        for key in ("before_s", "after_s", "before_mean_s", "after_mean_s"):
            out[key] /= loops
        out["loops"] = loops
    return out


def blobs(n: int, d: int, k: int, seed: int = 0, scale: float = 8.0):
    """``(x, c0)``: ``n`` rows around ``k`` Gaussian centres and ``k``
    distinct rows of them as initial centroids."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    c0 = x[rng.choice(n, size=k, replace=False)].copy()
    return np.ascontiguousarray(x), c0


def parse_args(doc: str, out_path: Path, argv=None) -> argparse.Namespace:
    """``--quick`` (CI smoke sizes) and ``--out`` (default ``out_path``)."""
    ap = argparse.ArgumentParser(description=doc)
    ap.add_argument(
        "--quick", action="store_true",
        help="small sizes / few repeats (CI smoke test)",
    )
    ap.add_argument(
        "--out", type=Path, default=out_path,
        help=f"output JSON path (default: {out_path})",
    )
    return ap.parse_args(argv)


def meta(quick: bool, note: str, **extra: Any) -> dict[str, Any]:
    """The ``meta`` block: mode, interpreter and host, ``extra``, note."""
    return {
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **extra,
        "note": note,
    }


def write(results: dict, out: Path) -> None:
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
