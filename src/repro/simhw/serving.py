"""Open-loop serving traffic for the simulated hardware plane.

Two pieces the serving plane (:mod:`repro.serve.query`) builds on:

* :class:`ArrivalProcess` -- a seeded description of user traffic. It
  generates a deterministic :class:`ArrivalTrace`: Poisson arrival
  times (exponential inter-arrival gaps at ``rate_qps``), a skewed
  popularity distribution over data rows (``u ** skew`` concentrates
  mass on low row indices -- the "hot rows" the caches should absorb),
  and an ingest/query split. Everything is drawn from one
  ``default_rng(seed)``, so the trace -- and therefore every latency
  percentile downstream -- is a pure function of the process
  parameters.

* :class:`OpenLoopBatcher` -- the open-loop service discipline.
  Arrivals keep coming whether or not the server keeps up (the
  load-testing convention that exposes queueing delay, unlike closed
  loops where slow servers throttle their own offered load). The
  server takes the oldest pending arrival, holds the batch open for
  ``window_ns`` of simulated time to coalesce concurrent arrivals (up
  to ``max_batch``), dispatches, and reports back each batch's service
  time; the batcher accrues per-arrival latency = completion − arrival
  and the shared clock ``t_free`` carries queueing delay forward.

Both are pure simulation-side objects: no numerics, only time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class ArrivalProcess:
    """Seeded open-loop traffic description (see module docstring)."""

    n_arrivals: int
    rate_qps: float = 50_000.0
    seed: int = 0
    skew: float = 3.0
    ingest_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_arrivals < 1:
            raise ConfigError(
                f"n_arrivals must be >= 1, got {self.n_arrivals}"
            )
        if self.rate_qps <= 0:
            raise ConfigError(
                f"rate_qps must be > 0, got {self.rate_qps}"
            )
        if self.skew <= 0:
            raise ConfigError(f"skew must be > 0, got {self.skew}")
        if not 0.0 <= self.ingest_fraction <= 1.0:
            raise ConfigError(
                "ingest_fraction must be in [0, 1], got "
                f"{self.ingest_fraction}"
            )

    def generate(self, n_rows: int) -> ArrivalTrace:
        """Materialize the trace against a dataset of ``n_rows``.

        Draw order (times, rows, ingest flags) is fixed so the same
        seed yields identical times and rows regardless of
        ``ingest_fraction``.
        """
        if n_rows < 1:
            raise ConfigError(f"n_rows must be >= 1, got {n_rows}")
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(
            1e9 / self.rate_qps, size=self.n_arrivals
        )
        time_ns = np.cumsum(gaps)
        u = rng.random(self.n_arrivals)
        row = np.minimum(
            (u**self.skew * n_rows).astype(np.int64), n_rows - 1
        )
        is_ingest = rng.random(self.n_arrivals) < self.ingest_fraction
        return ArrivalTrace(
            time_ns=time_ns, row=row, is_ingest=is_ingest
        )


@dataclass(frozen=True)
class ArrivalTrace:
    """A materialized arrival stream: when, which row, query/ingest."""

    time_ns: np.ndarray
    row: np.ndarray
    is_ingest: np.ndarray

    def __post_init__(self) -> None:
        # Malformed traffic fails here, typed and naming the field,
        # rather than deep in the serving loop's indexing.
        for name in ("time_ns", "row", "is_ingest"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ConfigError(
                    f"ArrivalTrace.{name} must be 1-D, got shape "
                    f"{arr.shape}"
                )
            object.__setattr__(self, name, arr)
        n = self.time_ns.shape[0]
        for name in ("row", "is_ingest"):
            got = getattr(self, name).shape[0]
            if got != n:
                raise ConfigError(
                    f"ArrivalTrace.{name} has {got} entries, time_ns "
                    f"has {n}"
                )
        if self.time_ns.dtype.kind not in "iuf":
            raise ConfigError(
                "ArrivalTrace.time_ns must be real numbers, got dtype "
                f"{self.time_ns.dtype}"
            )
        if not np.isfinite(self.time_ns).all():
            raise ConfigError("ArrivalTrace.time_ns must be finite")
        if np.any(np.diff(self.time_ns) < 0):
            raise ConfigError("ArrivalTrace.time_ns must be non-decreasing")
        if self.row.dtype.kind not in "iu":
            raise ConfigError(
                "ArrivalTrace.row must hold integer row ids, got dtype "
                f"{self.row.dtype}"
            )
        if self.is_ingest.dtype != np.bool_:
            raise ConfigError(
                "ArrivalTrace.is_ingest must be boolean, got dtype "
                f"{self.is_ingest.dtype}"
            )

    @property
    def n_arrivals(self) -> int:
        return int(self.time_ns.shape[0])


class OpenLoopBatcher:
    """Groups open-loop arrivals into dispatch batches on a shared
    simulated clock (see module docstring).

    Drive it with the two-call protocol::

        while (b := batcher.next_batch()) is not None:
            lo, hi, dispatch_ns = b
            batcher.complete(service_ns_for(lo, hi))

    ``latency_ns[i]`` is then arrival ``i``'s queueing + batching +
    service latency, and ``sim_end_ns`` the clock when the last batch
    drained.
    """

    def __init__(
        self,
        time_ns: np.ndarray,
        *,
        max_batch: int = 256,
        window_ns: float = 50_000.0,
    ) -> None:
        time_ns = np.asarray(time_ns, dtype=np.float64)
        if time_ns.ndim != 1 or time_ns.size == 0:
            raise ConfigError(
                "time_ns must be a non-empty 1-D array"
            )
        if not np.isfinite(time_ns).all():
            raise ConfigError("arrival times must be finite")
        if np.any(np.diff(time_ns) < 0):
            raise ConfigError("arrival times must be non-decreasing")
        if max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if not (np.isfinite(window_ns) and window_ns >= 0):
            raise ConfigError(
                f"window_ns must be finite and >= 0, got {window_ns}"
            )
        self.time_ns = time_ns
        self.max_batch = max_batch
        self.window_ns = float(window_ns)
        self.latency_ns = np.zeros(time_ns.size, dtype=np.float64)
        self.batches: list[tuple[int, int]] = []
        self.sim_end_ns = 0.0
        self._i = 0
        self._t_free = 0.0
        self._pending: tuple[int, int] | None = None
        self._dispatch_ns = 0.0

    def next_batch(self) -> tuple[int, int, float] | None:
        """The next dispatch batch ``(lo, hi, dispatch_ns)`` covering
        arrivals ``lo:hi``, or None when the stream is drained."""
        if self._pending is not None:
            raise ConfigError(
                "next_batch called with a batch in flight; call "
                "complete(service_ns) first"
            )
        if self._i >= self.time_ns.size:
            return None
        lo = self._i
        opened = max(self._t_free, float(self.time_ns[lo]))
        dispatch = opened + self.window_ns
        hi = int(
            np.searchsorted(self.time_ns, dispatch, side="right")
        )
        hi = min(hi, lo + self.max_batch)
        self._pending = (lo, hi)
        self._dispatch_ns = dispatch
        return lo, hi, dispatch

    def complete(self, service_ns: float) -> float:
        """Finish the in-flight batch; returns its completion time."""
        if self._pending is None:
            raise ConfigError(
                "complete called with no batch in flight"
            )
        lo, hi = self._pending
        done = self._dispatch_ns + float(service_ns)
        self.latency_ns[lo:hi] = done - self.time_ns[lo:hi]
        self.batches.append((lo, hi))
        self._t_free = done
        self.sim_end_ns = done
        self._i = hi
        self._pending = None
        return done
