"""Instrumentation: exact counters, memory accounting, result records.

Everything the evaluation section reports flows through this package:
per-iteration simulated time, distance-computation counts and pruning
breakdowns (Figures 5, 8), I/O bytes requested vs. read and cache hits
(Figures 6, 7), and peak memory by component (Table 1, Figures 8c, 9c).
"""

from repro.metrics.results import IterationRecord, RunResult
from repro.metrics.memory import (
    MemoryCounters,
    table1_bytes,
    ROUTINE_MEMORY_FORMULAS,
)
from repro.metrics.tables import render_series, render_table
from repro.metrics.export import write_json
from repro.metrics.quality import davies_bouldin_index, silhouette_score
from repro.metrics.resilience import (
    ResilienceCounters,
    ResilienceObserver,
)
from repro.metrics.latency import DEFAULT_QUANTILES, latency_percentiles

__all__ = [
    "davies_bouldin_index",
    "silhouette_score",
    "write_json",
    "IterationRecord",
    "RunResult",
    "MemoryCounters",
    "table1_bytes",
    "ROUTINE_MEMORY_FORMULAS",
    "render_table",
    "render_series",
    "ResilienceCounters",
    "ResilienceObserver",
    "DEFAULT_QUANTILES",
    "latency_percentiles",
]
