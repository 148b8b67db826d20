"""The MM algorithm registry: names -> MM plane constructors.

This is the clusterNOR move made concrete: every algorithm here is an
:class:`~repro.runtime.mm.MMAlgorithm`, so the drivers, CLI and
benchmarks pick a *(algorithm, backend)* pair independently --
``run_algorithm("gmm", backend="sem", ...)`` gets SAFS, async I/O,
checkpoints, fault recovery and the observer bus without the GMM code
knowing any of it exists.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.metrics import RunResult
from repro.runtime.mm import KmeansMM, MMAlgorithm

from repro.extensions.gmm import GmmMM
from repro.extensions.semisupervised import SemisupervisedMM
from repro.extensions.spherical import SphericalMM
from repro.extensions.yinyang import YinyangMM
from repro.serve.ingest import MiniBatchMM

MM_ALGORITHMS: dict[str, type] = {
    "kmeans": KmeansMM,
    "gmm": GmmMM,
    "spherical": SphericalMM,
    "semisupervised": SemisupervisedMM,
    "yinyang": YinyangMM,
    "minibatch": MiniBatchMM,
}


def make_mm_algorithm(
    name: str,
    x: np.ndarray,
    k: int,
    *,
    labels: np.ndarray | None = None,
    **kwargs: Any,
) -> MMAlgorithm:
    """Construct a registered MM algorithm over ``(x, k)``.

    ``labels`` is required by (and only by) ``semisupervised``.
    Remaining kwargs go to the algorithm's constructor (``init``,
    ``seed``, ``criteria``, GMM's ``tol``/``var_floor``, yinyang's
    ``t``, ...).
    """
    if name not in MM_ALGORITHMS:
        raise ConfigError(
            f"unknown MM algorithm {name!r}; choose from "
            f"{sorted(MM_ALGORITHMS)}"
        )
    cls = MM_ALGORITHMS[name]
    if name == "semisupervised":
        if labels is None:
            raise ConfigError(
                "semisupervised requires labels (length-n ints in "
                "[0, k) or -1)"
            )
        return cls(x, k, labels, **kwargs)
    if labels is not None:
        raise ConfigError(
            f"{name!r} does not take labels (only semisupervised does)"
        )
    return cls(x, k, **kwargs)


def run_algorithm(
    name: str,
    x: np.ndarray,
    k: int,
    *,
    backend: str = "inmemory",
    labels: np.ndarray | None = None,
    algorithm_kwargs: dict | None = None,
    **backend_kwargs: Any,
) -> RunResult:
    """One-call dispatch: build the named algorithm, run it on the
    named backend (``inmemory`` | ``sem`` | ``distributed``).

    The run environment in the backend kwargs (observers, plans,
    ``mem``/``mem_budget_bytes``) is resolved *before* construction so
    the algorithm's internal workspaces bind to the same manager the
    backend runs under.
    """
    from repro.runtime.env import RunEnv
    from repro.runtime.mm import backend_runners

    runner, assembly = backend_runners(backend)
    env = RunEnv.take(backend_kwargs, runner)
    with env.use():
        algorithm = make_mm_algorithm(
            name, x, k, labels=labels, **(algorithm_kwargs or {})
        )
    return assembly(algorithm, env, **backend_kwargs)
