"""Latency rollups for the serving plane: p50/p99/p999 and friends.

Percentiles use the **nearest-rank** order statistic (sort the sample,
take element ``ceil(q * n) - 1``) rather than interpolation: every
reported value is an actual observed latency, and the rollup is a pure
function of the sample multiset -- two runs that produce the same
latencies produce byte-identical JSON, which is what lets
``BENCH_serve.json`` be regression-gated without wall-clock noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

#: The serving plane's canonical tail-latency quantiles.
DEFAULT_QUANTILES = (0.50, 0.99, 0.999)


def _quantile_key(q: float) -> str:
    """0.5 -> 'p50', 0.99 -> 'p99', 0.999 -> 'p999'."""
    return "p" + f"{100 * q:g}".replace(".", "")


def latency_percentiles(
    latency_ns: np.ndarray,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> dict[str, float]:
    """Nearest-rank percentiles of a latency sample, in nanoseconds.

    Returns ``{"p50": ..., "p99": ..., "p999": ...}`` (keys derived
    from ``quantiles``). Deterministic: no interpolation, no RNG.
    """
    lat = np.sort(np.asarray(latency_ns, dtype=np.float64).ravel())
    if lat.size == 0:
        raise ConfigError(
            "latency_percentiles needs at least one sample"
        )
    out: dict[str, float] = {}
    for q in quantiles:
        if not 0.0 < q <= 1.0:
            raise ConfigError(
                f"quantiles must be in (0, 1], got {q}"
            )
        idx = max(0, math.ceil(q * lat.size) - 1)
        out[_quantile_key(q)] = float(lat[idx])
    return out

