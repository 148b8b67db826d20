"""Gaussian mixture models via EM (Section 9's "later phases" list).

Diagonal-covariance EM, the standard large-scale variant: like Lloyd's
it alternates a per-point phase (responsibilities) with a global
reduction (weighted sums), so it maps onto the same super-phase
structure knor generalizes to -- the per-thread accumulators simply
carry weighted sums and weighted squared sums instead of plain sums.

Numerics follow the usual log-space formulation for stability.
:class:`GmmMM` is the one implementation; :func:`gmm_em` runs it in
memory and returns the fitted model as a :class:`GmmResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.init import init_centroids
from repro.drivers.common import check_rows_finite, check_x_k
from repro.errors import ConfigError, ConvergenceError, DatasetError
from repro.runtime.mm import MMStep, run_mm_inmemory

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GmmResult:
    """Outcome of an EM run."""

    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k, d) diagonal covariances
    weights: np.ndarray  # (k,) mixing proportions
    responsibilities: np.ndarray  # (n, k)
    log_likelihood: float
    ll_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def assignment(self) -> np.ndarray:
        """Hard labels: argmax responsibility."""
        return np.argmax(self.responsibilities, axis=1).astype(np.int32)


def _log_prob(
    x: np.ndarray, means: np.ndarray, variances: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Log of weighted component densities, (n, k)."""
    n, d = x.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for c in range(k):
        var = variances[c]
        diff = x - means[c]
        quad = ((diff**2) / var).sum(axis=1)
        out[:, c] = (
            np.log(weights[c])
            - 0.5 * (d * _LOG_2PI + np.log(var).sum() + quad)
        )
    return out


def gmm_em(
    x: np.ndarray,
    k: int,
    *,
    init: str | np.ndarray = "kmeans++",
    seed: int = 0,
    max_iters: int = 100,
    tol: float = 1e-6,
    var_floor: float = 1e-6,
) -> GmmResult:
    """Fit a k-component diagonal GMM with EM: :class:`GmmMM` on the
    in-memory substrate (:func:`~repro.runtime.mm.run_mm_inmemory`).

    Parameters
    ----------
    init:
        Mean initialization (a :func:`init_centroids` method name or
        an explicit (k, d) array). Variances start at the global
        per-dimension variance; weights uniform.
    tol:
        Converged when the mean log-likelihood improves by less than
        this between iterations.
    var_floor:
        Lower bound on each variance (prevents collapse onto a point);
        must be positive.
    """
    alg = GmmMM(x, k, init=init, seed=seed, max_iters=max_iters,
                tol=tol, var_floor=var_floor)
    res = run_mm_inmemory(alg)
    return GmmResult(
        means=alg.means,
        variances=alg.variances,
        weights=alg.weights,
        responsibilities=alg.resp,
        log_likelihood=alg.ll_history[-1],
        ll_history=alg.ll_history,
        iterations=res.iterations,
        converged=res.converged,
    )


class GmmMM:
    """Diagonal-covariance EM as an MM algorithm.

    *Majorize* is the E-step plus the weighted reductions -- per-row
    responsibilities voting into additive accumulators ``nk`` (soft
    counts), ``wsum`` (weighted sums) and ``wsq`` (weighted squared
    sums). *Minimize* is the M-step closed form over the reduced
    accumulators. This is the only EM implementation: :func:`gmm_em`
    runs it in memory, ``run_algorithm("gmm", ...)`` on any backend.
    """

    name = "gmm"

    def __init__(
        self,
        x: np.ndarray,
        k: int,
        *,
        init: str | np.ndarray = "kmeans++",
        seed: int = 0,
        max_iters: int = 100,
        tol: float = 1e-6,
        var_floor: float = 1e-6,
    ) -> None:
        x = np.asarray(x, dtype=np.float64)
        k = check_x_k(x, k)
        if max_iters < 1:
            raise ConvergenceError("max_iters must be >= 1")
        if not var_floor > 0:
            raise ConfigError(
                f"var_floor must be > 0, got {var_floor!r}"
            )
        check_rows_finite(x, self.name)
        self.x = x
        self.n_rows, self.d = x.shape
        self.k = k
        self.max_iters = max_iters
        self.tol = tol
        self.var_floor = var_floor
        if isinstance(init, np.ndarray):
            means = np.array(init, dtype=np.float64, copy=True)
            if means.shape != (k, self.d):
                raise DatasetError(
                    f"init means shape {means.shape} != ({k}, {self.d})"
                )
        else:
            means = init_centroids(x, k, init, seed=seed)
        variances = np.tile(np.maximum(x.var(axis=0), var_floor), (k, 1))
        self._model0 = (means, variances, np.full(k, 1.0 / k))
        # nk rides as one extra slot beside the 2k d-length vectors.
        self.reduction_slots = 2 * k + 1
        self.state_bytes_per_row = 8 * k  # one responsibility row
        self.reset()

    def reset(self) -> None:
        means, variances, weights = self._model0
        self.means = means.copy()
        self.variances = variances.copy()
        self.weights = weights.copy()
        self.resp = np.zeros((self.n_rows, self.k))
        self.ll_history: list[float] = []
        self.iteration = 0
        self._assignment = np.full(self.n_rows, -1, dtype=np.int32)
        self._pending_ll: float | None = None

    def majorize(self) -> MMStep:
        n, k = self.n_rows, self.k
        logp = _log_prob(self.x, self.means, self.variances,
                         self.weights)
        m = logp.max(axis=1, keepdims=True)
        log_norm = m[:, 0] + np.log(np.exp(logp - m).sum(axis=1))
        self.resp = np.exp(logp - log_norm[:, None])
        self._pending_ll = float(log_norm.mean())

        new_assign = np.argmax(self.resp, axis=1).astype(np.int32)
        n_changed = int(np.count_nonzero(new_assign != self._assignment))
        self._assignment = new_assign
        return MMStep(
            dist_per_row=np.full(n, k, dtype=np.int32),
            needs_data=np.ones(n, dtype=bool),
            n_changed=n_changed,
            payload={
                "nk": self.resp.sum(axis=0),
                "wsum": self.resp.T @ self.x,
                "wsq": self.resp.T @ (self.x**2),
            },
        )

    def minimize(self, payload: dict[str, np.ndarray]) -> None:
        nk = np.maximum(payload["nk"], 1e-12)
        self.means = payload["wsum"] / nk[:, None]
        self.variances = np.maximum(
            payload["wsq"] / nk[:, None] - self.means**2,
            self.var_floor,
        )
        self.weights = nk / self.n_rows
        assert self._pending_ll is not None
        self.ll_history.append(self._pending_ll)
        self._pending_ll = None
        self.iteration += 1

    def converged(self) -> bool:
        return len(self.ll_history) >= 2 and (
            self.ll_history[-1] - self.ll_history[-2] < self.tol
        )

    def export_state(self) -> dict:
        return {
            "iteration": self.iteration,
            "means": self.means,
            "variances": self.variances,
            "weights": self.weights,
            "resp": self.resp,
            "assignment": self._assignment,
            "ll_history": np.asarray(self.ll_history, dtype=np.float64),
        }

    def restore_state(self, snap: dict) -> None:
        self.iteration = int(snap["iteration"])
        self.means = np.array(snap["means"], dtype=np.float64)
        self.variances = np.array(snap["variances"], dtype=np.float64)
        self.weights = np.array(snap["weights"], dtype=np.float64)
        self.resp = np.array(snap["resp"], dtype=np.float64)
        self._assignment = np.array(snap["assignment"], dtype=np.int32)
        self.ll_history = [float(v) for v in snap["ll_history"]]
        self._pending_ll = None

    @property
    def model_array(self) -> np.ndarray:
        return self.means

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        return loop_result.as_run_result(
            algorithm="mm-gmm",
            centroids=self.means,
            assignment=np.argmax(self.resp, axis=1).astype(np.int32),
            inertia=float(-self.ll_history[-1]),
            memory_breakdown=memory_breakdown,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "algorithm": self.name, "tol": self.tol,
                "var_floor": self.var_floor,
                "log_likelihood": self.ll_history[-1],
                **(extra_params or {}),
            },
        )
